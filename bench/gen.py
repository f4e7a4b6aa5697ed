"""Seeded inputs for the benchmark: stratified 2x2 tables as CSV text.

The program only ever sees the CSV text; the seed, the generator and the
job plan stay on the benchmark's side.  Tables vary in the dimensions the
program's cost and behaviour depend on:

- K, the number of strata;
- arm totals, log-uniform over [20, 1e5];
- baseline risk, logit-uniform over [0.01, 0.6];
- effect heterogeneity: the spread of the per-stratum log odds ratio
  around a common value (none, small or large);
- boundary cells: one generated table per block gets one cell forced to
  0 cases or to all cases (a share of 1/len(K values)); every other cell
  keeps 1 <= cases <= total - 1.

Such tables cost the profile CI many times more than the rest, so which
table gets the boundary cell, and which kind, is fixed by the block's
position rather than drawn: every seed then puts equally many of them at
each K, and a run's job mix does not depend on its seed.
"""

from __future__ import annotations

import math
import random

CSV_HEADER = "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total"

TOTAL_RANGE = (20, 100_000)
BASELINE_RISK_RANGE = (0.01, 0.6)
COMMON_LOG_OR_SD = 0.7
HETEROGENEITY_SDS = (0.0, 0.25, 0.75)
# boundary cell kinds, cycled by block: (arm column, zero or full)
BOUNDARY_KINDS = (("exposed", "zero"), ("unexposed", "full"), ("exposed", "full"), ("unexposed", "zero"))

# The two fixed tables every workload runs in every block: the embedded
# Newcastle example and the synthetic four-stratum table from
# scripts/make_figures.py (its hull figure).
NEWCASTLE_CSV = CSV_HEADER + "\n18-64,97,533,65,539\n65+,42,49,165,193\n"
FOUR_STRATA_CSV = (
    CSV_HEADER
    + "\n18-44,31,412,19,377\n45-54,44,310,33,335\n55-64,63,245,52,270\n65+,42,49,165,193\n"
)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _expit(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def _cases(rng: random.Random, total: int, risk: float) -> int:
    # binomial draw by its normal approximation, kept off 0 and total so
    # that zero and full cells appear only where they are injected
    sd = math.sqrt(total * risk * (1.0 - risk))
    return min(total - 1, max(1, round(rng.gauss(total * risk, sd))))


def make_table(rng: random.Random, k: int, boundary: tuple[str, str] | None = None) -> str:
    """CSV text of one random K-stratum table; ``boundary`` = (arm, "zero"
    or "full") forces that cell of one random stratum."""
    lo_t, hi_t = math.log(TOTAL_RANGE[0]), math.log(TOTAL_RANGE[1])
    lo_r, hi_r = _logit(BASELINE_RISK_RANGE[0]), _logit(BASELINE_RISK_RANGE[1])
    common = rng.gauss(0.0, COMMON_LOG_OR_SD)
    spread = rng.choice(HETEROGENEITY_SDS)
    rows = []
    for j in range(k):
        base = rng.uniform(lo_r, hi_r)
        exposed_risk = _expit(base + common + rng.gauss(0.0, spread))
        et = round(math.exp(rng.uniform(lo_t, hi_t)))
        ut = round(math.exp(rng.uniform(lo_t, hi_t)))
        rows.append([f"s{j + 1}", _cases(rng, et, exposed_risk), et, _cases(rng, ut, _expit(base)), ut])
    if boundary is not None:
        row = rng.choice(rows)
        col = 1 if boundary[0] == "exposed" else 3
        row[col] = 0 if boundary[1] == "zero" else row[col + 1]
    return CSV_HEADER + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)


def plan(workload: str, seed: int, k_values: range, blocks: int) -> list[list[tuple[int, str]]]:
    """Job blocks: each block holds the two fixed tables and one generated
    table for every K in k_values, in a seeded order.  Runs measure whole
    blocks, so every run sees the same mix of K."""
    rng = random.Random(f"rothman-bench:{workload}:{seed}")
    out = []
    for b in range(blocks):
        k_boundary = k_values[b % len(k_values)]
        kind = BOUNDARY_KINDS[b % len(BOUNDARY_KINDS)]
        ks = list(k_values)
        rng.shuffle(ks)
        block = [(2, NEWCASTLE_CSV), (4, FOUR_STRATA_CSV)]
        block += [(k, make_table(rng, k, kind if k == k_boundary else None)) for k in ks]
        out.append(block)
    return out
