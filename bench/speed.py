"""The machine's current speed, from a fixed reference computation timed
between the jobs of a run.

On a shared 2-core Xeon VM the same job was measured to take up to 1.5x
as long in one minute as in the next.  Each run therefore also times a reference that
does not touch the program: a small grouped-binomial Newton loop in numpy
for the in-process workloads, and a cold interpreter importing numpy for
cli-session.  A run's time t is then also reported as
t * NOMINAL_MS / (median reference time of the run), i.e. in milliseconds
of a machine running the reference in NOMINAL_MS; throughputs scale the
other way.  Changes to the program cannot move the reference.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# median reference times on a 2-core Xeon VM, the unit of scaled times
NOMINAL_MS = {"inprocess": 12.0, "cold": 180.0}

_X = np.array([[1.0, x, float(j == 1), float(j == 2)] for j in range(3) for x in (1.0, 0.0)])
_CASES = np.array([10.0, 12.0, 30.0, 25.0, 7.0, 9.0])
_TOTALS = np.array([50.0, 60.0, 70.0, 65.0, 40.0, 45.0])


def _newton_loop() -> float:
    beta = np.zeros(_X.shape[1])
    ll = 0.0
    for _ in range(300):
        p = 1.0 / (1.0 + np.exp(-(_X @ beta)))
        score = _X.T @ (_CASES - _TOTALS * p)
        info = _X.T @ ((_TOTALS * p * (1.0 - p))[:, None] * _X)
        beta = beta + 0.5 * np.linalg.solve(info + 1e-9 * np.eye(len(beta)), score)
        ll = float(_CASES @ np.log(p) + (_TOTALS - _CASES) @ np.log1p(-p))
        ll += sum(math.log1p(k * 1e-3) for k in range(10))
    return ll


def reference_ms(kind: str, env: dict | None = None) -> float:
    """Wall time of one reference run of the given kind, in milliseconds."""
    t0 = time.perf_counter()
    if kind == "inprocess":
        _newton_loop()
    else:
        subprocess.run([sys.executable, "-c", "import argparse, json, numpy"],
                       env=env, capture_output=True, timeout=120, check=True)
    return 1000.0 * (time.perf_counter() - t0)
