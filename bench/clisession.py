"""The cli-session workload: one table's session of ``rothman`` subcommands,
each a cold ``python -m rothman.cli`` process, and the checks on what the
session printed.

Every subcommand runs even after an earlier one failed.  The traced run
replays the same sessions in-process through ``rothman.cli.main(argv)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import reference as ref

# (subcommand, arguments before --input); two plot figures per session
STEPS = (
    ("measures", ["measures"]),
    ("fit", ["fit", "--link", "all", "--format", "json"]),
    ("standardize", ["standardize", "--weights", "marginal"]),
    ("collapse", ["collapse", "--measure", "or", "--format", "json"]),
    ("plot", ["plot", "modification"]),
    ("plot", ["plot", "hull"]),
)
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)
STEP_TIMEOUT_S = 120


def argvs(path: str, fixed: str) -> list[tuple[str, list[str]]]:
    out = []
    for name, args in STEPS:
        extra = ["--grid-oracle"] if name == "collapse" and fixed == "newcastle" else []
        out.append((name, args + ["--input", path] + extra))
    return out


def run_cold(path: str, fixed: str, root: str, env: dict, tmp: str) -> list[dict]:
    """One session of cold subprocesses; a step that hangs is killed.  Each
    step's output goes through files in ``tmp`` so that the process can be
    reaped with ``os.wait4``, which gives its own peak RSS."""
    steps = []
    for name, argv in argvs(path, fixed):
        with tempfile.TemporaryFile("w+", dir=tmp) as out, tempfile.TemporaryFile("w+", dir=tmp) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "rothman.cli", *argv],
                                    cwd=root, env=env, stdout=out, stderr=err)
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            ms = 1000.0 * (time.perf_counter() - t0)
            timer.cancel()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        steps.append({"name": name, "argv": argv, "code": code, "stdout": stdout, "stderr": stderr,
                      "ms": ms, "exc": None, "rss_kb": usage.ru_maxrss})
    return steps


def run_inprocess(path: str, fixed: str) -> list[dict]:
    """The same session through ``rothman.cli.main``; an exception that
    escapes ``main`` becomes exit code 1 and a traceback, as in a process."""
    cli = importlib.import_module("rothman.cli")
    steps = []
    for name, argv in argvs(path, fixed):
        stdout, stderr, exc = io.StringIO(), io.StringIO(), None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception as e:  # the process boundary: report, keep going
                code, exc = 1, e
                traceback.print_exc()
        steps.append({"name": name, "argv": argv, "code": code, "stdout": stdout.getvalue(),
                      "stderr": stderr.getvalue(), "ms": 1000.0 * (time.perf_counter() - t0), "exc": exc})
    return steps


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON output")


def check(fixed: str, steps: list[dict]) -> list[str]:
    reasons = []
    svgs = {}
    for step in steps:
        name, code = step["name"], step["code"]
        label = f"{name} {step['argv'][1] if name == 'plot' else ''}".strip()
        if code not in DOCUMENTED_EXIT_CODES:
            reasons.append(f"{label}: exit code {code}")
        if "Traceback (most recent call last)" in step["stderr"]:
            reasons.append(f"{label}: traceback")
        if code != 0:
            continue
        if "--format" in step["argv"]:
            try:
                step["json"] = json.loads(step["stdout"], parse_constant=_reject_constant)
            except ValueError as e:
                reasons.append(f"{label}: bad JSON ({e})")
        elif name == "plot":
            svg = step["stdout"]
            if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
                reasons.append(f"{label}: not an SVG document")
            svgs[step["argv"][1]] = svg
    by_name = {s["name"]: s for s in steps if "json" in s}
    if "fit" in by_name:
        for rep in by_name["fit"]["json"]["fits"]:
            lr, ci = rep["interaction"], rep["ci"]
            if lr is not None and not 0.0 <= lr["p_value"] <= 1.0:
                reasons.append(f"fit {rep['link']}: LR p-value outside [0, 1]")
            if not ci["lower"] <= rep["common"] <= ci["upper"]:
                reasons.append(f"fit {rep['link']}: CI does not bracket the common estimate")
    if "collapse" in by_name:
        rep = by_name["collapse"]["json"]
        lo, hi, common = rep["minimum"]["value"], rep["maximum"]["value"], rep["common_value"]
        if not lo - 1e-9 <= common <= hi + 1e-9:
            reasons.append("collapse: common value outside [minimum, maximum]")
        grid = rep.get("grid_oracle")
        if grid is not None and (
            lo - grid["minimum"]["value"] > ref.ORACLE_REL_TOL * abs(grid["minimum"]["value"])
            or grid["maximum"]["value"] - hi > ref.ORACLE_REL_TOL * abs(grid["maximum"]["value"])
        ):
            reasons.append("oracle_miss")
    if fixed:
        for figure, svg in svgs.items():
            if hashlib.sha256(svg.encode()).hexdigest() != ref.SVG_SHA256[(fixed, figure)]:
                reasons.append(ref.reason_ref(f"{fixed} {figure} figure digest"))
    if fixed == "newcastle":
        reasons += _check_newcastle(steps, by_name)
    return reasons


def _check_newcastle(steps: list[dict], by_name: dict) -> list[str]:
    if any(s["code"] != 0 for s in steps) or set(by_name) != {"fit", "collapse"}:
        return [ref.reason_ref("newcastle session did not complete")]
    fits = {rep["link"]: rep for rep in by_name["fit"]["json"]["fits"]}
    for link, (strata_ref, common_ref, p_ref, ci_ref) in ref.NEWCASTLE_FITS.items():
        rep = fits[link]
        if not (
            all(map(ref.close, rep["stratum_estimates"].values(), strata_ref))
            and ref.close(rep["common"], common_ref)
            and ref.close(rep["interaction"]["p_value"], p_ref)
            and ref.close(rep["ci"]["lower"], ci_ref[0])
            and ref.close(rep["ci"]["upper"], ci_ref[1])
        ):
            return [ref.reason_ref(f"newcastle {link} fit")]
    value_ref, weights_ref = ref.NEWCASTLE_MIN_OR
    minimum = by_name["collapse"]["json"]["minimum"]
    if not (ref.close(minimum["value"], value_ref) and all(map(ref.close, minimum["weights"], weights_ref))):
        return [ref.reason_ref("newcastle minimum standardized OR")]
    return []
