#!/usr/bin/env python3
"""Benchmark of the rothman package: three seeded, closed-loop,
single-client workloads driven from outside the program.

    python3 bench/run.py --workload fit-strata --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads (why each exists is in BENCHMARK.json):

- ``cli-session``: per table, six cold ``python -m rothman.cli`` processes.
- ``fit-strata``: per table, what ``rothman fit --link all`` computes.
- ``geometry-strata``: per table, measures, confounding, standardization,
  hull, collapsibility verdicts and figures.

A run sets up (imports, inputs, temporary CSV files, a warm-up), then runs
whole blocks of jobs, as many as take ``--seconds`` at the unchanged
program; a block holds the two fixed tables and one generated table for
every K.  Every job's output is checked outside its timed region; a job
that raises or fails a check counts as failed.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs a fixed number of blocks with the
program's public functions wrapped and prints the per-layer metrics.

End-to-end times are scaled to the machine's reference speed, measured in
the same run (speed.py); the values as timed are reported as ``*_raw``.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; ``correct`` is false when a fixed
table's output differs from its known answer.  Details go to the lines
before it and to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import clisession
import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5
IMPORT_PROBES = 3


class Workload(NamedTuple):
    ks: range
    block_s: float     # one block's run and check time at the unchanged program
    trace_blocks: int  # blocks in a traced run


# A run does a fixed amount of work, seconds / block_s whole blocks, so
# that every run of every seed sees the same job mix; a faster program
# finishes sooner.  block_s was measured on a 2-core Xeon VM.
WORKLOADS = {
    "cli-session": Workload(range(1, 11), block_s=28.0, trace_blocks=1),
    "fit-strata": Workload(range(1, 11), block_s=1.4, trace_blocks=4),
    "geometry-strata": Workload(range(2, 11), block_s=4.0, trace_blocks=4),
}


def blocks_for(name: str, seconds: float) -> int:
    return max(int(seconds / WORKLOADS[name].block_s), WORKLOADS[name].trace_blocks)


class Job(NamedTuple):
    id: int
    k: int
    csv: str
    fixed: str  # "newcastle", "four" or "" for a generated table
    path: str   # CSV file for cli-session, else ""


class Record(NamedTuple):
    k: int
    ms: float
    reasons: list
    steps: list  # cli-session: per-subcommand results


# -- set-up -------------------------------------------------------------------


def setup(name: str, seed: int, seconds: float) -> dict:
    """Imports, inputs, temporary CSV files and a warm-up job; the cost of
    all of it is the run's set-up time."""
    w = WORKLOADS[name]
    fixed_of = {gen.NEWCASTLE_CSV: "newcastle", gen.FOUR_STRATA_CSV: "four"}
    state = {"name": name, "tmp": None}
    if name == "cli-session":
        OUT.mkdir(exist_ok=True)
        state["tmp"] = tempfile.mkdtemp(prefix="csv-", dir=OUT)
        state["env"] = dict(os.environ, PYTHONPATH=str(SRC))
    else:
        state["module"] = importlib.import_module("inproc")
    blocks, jid = [], 0
    for block in gen.plan(name, seed, w.ks, blocks_for(name, seconds)):
        jobs = []
        for k, csv in block:
            path = ""
            if state["tmp"]:
                path = os.path.join(state["tmp"], f"table{jid}.csv")
                Path(path).write_text(csv, encoding="utf-8")
            jobs.append(Job(jid, k, csv, fixed_of.get(csv, ""), path))
            jid += 1
        blocks.append(jobs)
    state["blocks"] = blocks
    warm_up = blocks[0][0]  # the Newcastle table
    if name == "cli-session":
        subprocess.run([sys.executable, "-m", "rothman.cli", "measures", "--input", warm_up.path],
                       cwd=ROOT, env=state["env"], capture_output=True, timeout=120, check=True)
    else:
        run_job(state, warm_up, cold=False)
    return state


def teardown(state: dict) -> None:
    if state["tmp"]:
        shutil.rmtree(state["tmp"], ignore_errors=True)


def run_job(state: dict, job: Job, cold: bool):
    """Run one job; returns the output the workload's check takes.  A cold
    cli-session job runs subprocesses, otherwise it replays in-process."""
    if state["name"] == "cli-session":
        if cold:
            return clisession.run_cold(job.path, job.fixed, str(ROOT), state["env"], state["tmp"])
        return clisession.run_inprocess(job.path, job.fixed)
    if state["name"] == "fit-strata":
        return state["module"].fit_strata(job.csv)
    return state["module"].geometry_strata(job.csv)


def check_job(state: dict, job: Job, out) -> list[str]:
    if state["name"] == "cli-session":
        return clisession.check(job.fixed, out)
    if state["name"] == "fit-strata":
        return state["module"].check_fit(job.fixed, out)
    return state["module"].check_geometry(job.fixed, out)


def attempt(state: dict, job: Job, cold: bool, tracer=None) -> Record:
    """Time one job, then check it outside the timed region."""
    if tracer:
        tracer.begin(job.id)
    t0 = time.perf_counter()
    try:
        out, exc = run_job(state, job, cold), None
    except Exception as e:  # a failed job is recorded, and the run goes on
        out, exc = None, e
    ms = 1000.0 * (time.perf_counter() - t0)
    if tracer:
        tracer.end()
        if exc is not None:
            tracer.escaped(exc)
        for step in out if state["name"] == "cli-session" else ():
            if step["exc"] is not None:
                tracer.escaped(step["exc"])
        tracer.begin(job.id, "check")
    if exc is not None:
        reasons = [f"raised {type(exc).__name__}"]
        if job.fixed == "newcastle":
            reasons.append("reference:newcastle job raised")
    else:
        try:
            reasons = check_job(state, job, out)
        except Exception as e:  # a check that cannot read the output fails the job
            reasons = [f"check raised {type(e).__name__}: {e}"]
    if tracer:
        tracer.end()
    return Record(job.k, ms, reasons, out if state["name"] == "cli-session" else [])


# -- timed and traced runs -------------------------------------------------------


def timed_run(state: dict) -> tuple[list[Record], float]:
    """All jobs, each followed by one timed reference computation; returns
    the records and the factor that scales this run's times to the
    reference speed."""
    import speed  # imports numpy, which set-up has to pay for itself

    kind = "cold" if state["name"] == "cli-session" else "inprocess"
    records, refs = [], []
    for block in state["blocks"]:
        for job in block:
            records.append(attempt(state, job, cold=True))
            refs.append(speed.reference_ms(kind, state.get("env")))
    return records, speed.NOMINAL_MS[kind] / statistics.median(refs)


def traced_run(state: dict) -> tuple[list[Record], dict]:
    import spans

    jobs = [j for b in state["blocks"][: WORKLOADS[state["name"]].trace_blocks] for j in b]
    first = state["blocks"][0]
    # the second untraced pass, once first-call costs are paid, is the base
    # of the tracing overhead
    untraced = [sum(attempt(state, job, cold=False).ms for job in first) for _ in range(2)][1]
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = [attempt(state, job, cold=False, tracer=tracer) for job in jobs]
    finally:
        tracer.uninstall()
    traced = sum(r.ms for r in records[: len(first)])
    metrics = spans.summarize(tracer, len(records))
    metrics["trace.overhead_frac"] = traced / untraced
    metrics["standardize.oracle_misses"] = sum(r.reasons.count("oracle_miss") for r in records)
    codes = Counter(s["code"] for r in records for s in r.steps)
    for code in (0, 1, 2, 3, 4):
        metrics[f"cli.exit_code.{code}"] = codes.get(code, 0)
    metrics["cli.tracebacks"] = sum(
        "Traceback (most recent call last)" in s["stderr"] for r in records for s in r.steps
    )
    metrics.update(import_probe())
    write_spans(state, tracer)
    return records, metrics


def import_probe() -> dict:
    """Cold ``import rothman.cli`` and its numpy share, from -X importtime."""
    cli, numpy = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rothman.cli"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            _, _, rest = line.partition("import time:")
            fields = rest.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                _, cum, pkg = fields
                cumulative.setdefault(pkg.strip(), int(cum) / 1000.0)
        cli.append(cumulative["rothman.cli"])
        numpy.append(cumulative["numpy"])
    return {"cli.import_ms": statistics.median(cli), "cli.import_numpy_ms": statistics.median(numpy)}


def write_spans(state: dict, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{state['name']}-seed{state['seed']}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "root", "job", "ok"],
                   "spans": tracer.spans}, f, separators=(",", ":"))


# -- metrics and report --------------------------------------------------------------


def end_to_end(records: list[Record], setup_s: float, peak_rss_mb: float, scale: float) -> dict:
    """Percentiles over completed jobs, with their sample count; throughput
    over the time of every job, failed ones included.  Times are scaled to
    the reference speed by ``scale`` (see speed.py); ``*_raw`` are as timed."""
    done = [r.ms for r in records if not r.reasons]
    if not done:
        raise SystemExit("no job completed; nothing to time")
    busy_s = sum(r.ms for r in records) / 1000.0
    raw = {
        "job_ms_p50": statistics.median(done),
        "job_ms_p90": statistics.quantiles(done, n=10, method="inclusive")[8] if len(done) > 1 else done[0],
        "jobs_per_s": len(done) / busy_s,
        "setup_s": setup_s,
    }
    metrics = {k: v / scale if k == "jobs_per_s" else v * scale for k, v in raw.items()}
    metrics.update({f"{k}_raw": v for k, v in raw.items()})
    metrics.update(
        job_ms_samples=len(done),
        failed_frac=(len(records) - len(done)) / len(records),
        peak_rss_mb=peak_rss_mb,
        speed_scale=scale,
    )
    return metrics


def setup_probes(args, own_s: float) -> float:
    """Median set-up time over this run and fresh processes doing the same."""
    times = [own_s]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(name: str, seed: int, records: list[Record], blocks: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    by_k = {}
    for r in records:
        entry = by_k.setdefault(r.k, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        entry["failed"] += bool(r.reasons)
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "workload": name,
        "seed": seed,
        "blocks": blocks,
        "jobs_by_k": {str(k): by_k[k] for k in sorted(by_k)},
    }


REPORT_UNITS = {"job_ms_p50": "ms", "job_ms_p90": "ms", "job_ms_samples": "count", "failed_frac": "share",
                "measure_wall_s": "s", "speed_scale": "ratio", "jobs_per_s_raw": "1/s", "setup_s_raw": "s"}


def unit_of(name: str, spec: dict) -> str:
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if name in declared or name in REPORT_UNITS:
        return declared.get(name) or REPORT_UNITS[name]
    return "ms" if "_ms" in name else "B" if "svg_bytes" in name else "count"


def failure_reasons(records: list[Record]) -> dict:
    counts = Counter(reason for r in records for reason in dict.fromkeys(r.reasons))
    return dict(counts.most_common())


def cli_step_ms(records: list[Record]) -> dict:
    steps = {}
    for r in records:
        for s in r.steps:
            steps.setdefault(s["name"], []).append(s["ms"])
    return {f"cli.subcommand_cold_ms.{k}": statistics.median(v) for k, v in steps.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rothman" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no rothman sources under {SRC} or no {spec_path.name}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    state = setup(args.workload, args.seed, args.seconds)
    own_setup_s = time.perf_counter() - t0
    state["seed"] = args.seed
    try:
        if args.setup_probe:
            print(own_setup_s)
            return 0
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        if args.trace:
            records, metrics = traced_run(state)
            wanted = spec["per_layer"]
            blocks = WORKLOADS[args.workload].trace_blocks
            report = metrics
        else:
            t_run = time.perf_counter()
            (records, scale), blocks = timed_run(state), len(state["blocks"])
            report_wall_s = time.perf_counter() - t_run
            if args.workload == "cli-session":
                peak_rss_mb = max(s["rss_kb"] for r in records for s in r.steps) / 1024.0
            else:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(records, setup_probes(args, own_setup_s), peak_rss_mb, scale)
            wanted = spec["end_to_end"]
            report = dict(metrics, **cli_step_ms(records), measure_wall_s=report_wall_s)
    finally:
        teardown(state)

    failed = sum(bool(r.reasons) for r in records)
    correct = not any(reason.startswith("reference:") for r in records for reason in r.reasons)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details = {
        "environment": environment(args.workload, args.seed, records, blocks),
        "completed_jobs": len(records) - failed,
        "failure_reasons": failure_reasons(records),
        "metrics": report,
        "result": result,
        "jobs": [{"k": r.k, "ms": r.ms, "failed": r.reasons} for r in records],
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    print(f"# environment: {json.dumps(details['environment'])}")
    print(f"# attempted {len(records)}, completed {len(records) - failed}, failed {failed}; "
          f"failure reasons: {json.dumps(details['failure_reasons'])}")
    for key, value in report.items():
        print(f"# {key:<48} {value:12.6g} {unit_of(key, spec)}")
    print(f"# details in {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    details = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        details[name] = json.loads(
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").read_text(encoding="utf-8")
        )
    print(f"{'metric [unit]':<52}" + "".join(f"{n:>17}" for n in details))
    for key in dict.fromkeys(k for d in details.values() for k in d["metrics"]):
        cells = "".join(f"{d['metrics'].get(key, float('nan')):>17.5g}" for d in details.values())
        print(f"{f'{key} [{unit_of(key, spec)}]':<52}{cells}")
    for name, d in details.items():
        print(f"{name}: {d['completed_jobs']} of {d['result']['attempted']} jobs completed, "
              f"correct={d['result']['correct']}, failures {json.dumps(d['failure_reasons'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
