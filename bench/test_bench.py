"""The benchmark's own test: the work counts of a traced run repeat exactly,
so a later change may cite them as counts.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys

import pytest

import run as bench

sys.path.insert(0, str(bench.SRC))

COUNT_UNITS = ("count", "B")


def traced_counts(name: str, jobs: int = 4) -> dict:
    state = bench.setup(name, seed=1, seconds=0)
    state["seed"] = 1
    state["blocks"] = [state["blocks"][0][:jobs]]
    try:
        _, metrics = bench.traced_run(state)
    finally:
        bench.teardown(state)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: metrics[m["name"]] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_work_counts_repeat_exactly(name):
    first, second = traced_counts(name), traced_counts(name)
    assert first == second
    assert first["tables.parse_table_calls"] > 0
    assert first["inference.newton_iterations"] > 0
