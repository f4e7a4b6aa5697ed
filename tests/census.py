"""Accuracy census: the program's no-interaction fit, saturated fit and LR
statistic against the exact reference of exact_fit.py, per link.

    PYTHONPATH=src python tests/census.py --seeds 1 2

For each seed it takes the distinct tables of the benchmark's fit-strata
plan (bench/gen.py, read and not changed) and EXTREME_DRAWS tables drawn
from random.Random(seed) as conftest.extreme_tables draws them, and prints
one JSON object with a summary per link of each of the two sets:

- b1_ulps_max, b1_ulps_median: |b1 - b1_ref| in ulps of b1_ref;
- b1_abs_max: the largest |b1 - b1_ref|;
- loglik_gap_max: the largest |loglik - lp_ref(b1)| / |lp_ref(b1)|, at the
  fit's own b1, or against the saturated supremum where the fit is in
  closed form (one stratum) or runs off to an end of b1's range;
- saturated_gap_max: the same gap of the saturated fit's loglik against
  the saturated supremum (two or more strata);
- lr_abs_max: the largest |statistic - 2 (saturated_ref - lp_ref(b1_ref))|;
- kinks, flat: fits at a kink of lp at b1 = 0 (identity and log links) and
  fits where lp'' is 0 at the reference maximum, where b1 is not
  identified. Both are counted apart and left out of the three b1 columns.

The seed-1 plan (252 tables, 1008 fits) takes about a minute on one core.
This script is not a test module: pytest does not collect it, and
test_inference.py runs census() on the two example tables.
"""

import argparse
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

import exact_fit
from rothman.errors import RothmanError
from rothman.inference import LinkFunction, ModelSpec, fit, lr_test_interaction
from rothman.tables import CellCounts, StratifiedTable, Stratum, parse_table

EXTREME_DRAWS = 100


def plan_tables(seeds) -> list[StratifiedTable]:
    """The distinct tables of the fit-strata plans of these seeds, in plan order."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    plans = [gen.plan("fit-strata", seed, range(1, 11), 25) for seed in seeds]
    return [parse_table(csv) for csv in dict.fromkeys(csv for plan in plans for block in plan for _, csv in block)]


def extreme_table(rng: random.Random) -> StratifiedTable:
    """A table as conftest.extreme_tables draws it: K = 1-6, totals
    log-uniform up to 1e9, cells often forced to 0, n, 1 or n - 1."""
    strata = []
    for j in range(rng.randint(1, 6)):
        cells = []
        for _ in range(2):
            n = max(1, round(math.exp(rng.uniform(0.0, math.log(1e9)))))
            cases = rng.choice([0, n, 1, n - 1]) if rng.random() < 0.5 else rng.randint(0, n)
            cells.append(CellCounts(cases, n))
        strata.append(Stratum(f"s{j}", exposed=cells[0], unexposed=cells[1]))
    return StratifiedTable(tuple(strata))


def _gap(value: float, exact) -> float:
    exact = float(exact)
    return abs(value - exact) / abs(exact) if exact else abs(value)


def _row(table: StratifiedTable, link: LinkFunction) -> dict:
    """One fit's distances from the reference."""
    restricted = fit(table, ModelSpec(link, interaction=False))
    b1 = restricted.coefficients[1]
    b1_ref, lp_ref = exact_fit.restricted_fit(table, link)
    saturated_ref = exact_fit.saturated_loglik(table)
    closed = table.k == 1 or exact_fit.run_off(table, link) != 0
    row = {
        "b1_ulps": float(abs(b1 - b1_ref) / math.ulp(float(b1_ref))),
        "b1_abs": float(abs(b1 - b1_ref)),
        "loglik_gap": _gap(restricted.loglik, saturated_ref if closed else exact_fit.profile(table, link, b1)[0]),
        "kink": not closed and b1_ref == 0 and link in (LinkFunction.IDENTITY, LinkFunction.LOG),
        "flat": not closed and exact_fit.profile(table, link, b1_ref)[2] == 0,
    }
    if table.k >= 2:
        row["saturated_gap"] = _gap(fit(table, ModelSpec(link, interaction=True)).loglik, saturated_ref)
        row["lr_abs"] = abs(lr_test_interaction(table, link).statistic - float(2 * (saturated_ref - lp_ref)))
    return row


def census(tables) -> dict:
    """Per link, the summary of the fits of these tables (see above); a fit
    that raises is counted under "errors" by its exception's name."""
    out = {}
    for link in LinkFunction:
        rows, errors = [], {}
        for table in tables:
            try:
                rows.append(_row(table, link))
            except RothmanError as e:
                errors[type(e).__name__] = errors.get(type(e).__name__, 0) + 1
        identified = [r for r in rows if not (r["kink"] or r["flat"])]
        ulps = [r["b1_ulps"] for r in identified]
        out[link.value] = {
            "fits": len(rows),
            "kinks": sum(r["kink"] for r in rows),
            "flat": sum(r["flat"] and not r["kink"] for r in rows),
            "b1_ulps_max": max(ulps, default=0.0),
            "b1_ulps_median": statistics.median(ulps) if ulps else 0.0,
            "b1_abs_max": max((r["b1_abs"] for r in identified), default=0.0),
            "loglik_gap_max": max((r["loglik_gap"] for r in rows), default=0.0),
            "saturated_gap_max": max((r["saturated_gap"] for r in rows if "saturated_gap" in r), default=0.0),
            "lr_abs_max": max((r["lr_abs"] for r in rows if "lr_abs" in r), default=0.0),
            "errors": errors,
        }
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="seeds of the plans and draws (default 1)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    plan = plan_tables(args.seeds)
    extreme = [extreme_table(rng) for seed in args.seeds for rng in [random.Random(seed)] for _ in range(EXTREME_DRAWS)]
    report = {
        "seeds": args.seeds,
        "plan": {"tables": len(plan), **census(plan)},
        "extreme": {"tables": len(extreme), **census(extreme)},
    }
    report["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
