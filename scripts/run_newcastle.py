#!/usr/bin/env python3
"""End-to-end analysis of the embedded Newcastle table: stratum and crude
measures, all four GLM rows (interaction test, common estimate, profile CI),
the confounding verdict, and the collapsibility analysis for each measure.

Usage: python scripts/run_newcastle.py
"""

from rothman.inference import (
    LinkFunction,
    ModelSpec,
    common_measure,
    fit,
    link_for_measure,
    lr_test_interaction,
    measure_for_link,
    profile_ci,
)
from rothman.measures import Measure, evaluate
from rothman.standardize import Verdict, collapsibility_verdict, is_confounded
from rothman.tables import crude_point, newcastle_fixture, stratum_points


def main() -> None:
    table = newcastle_fixture()
    points = stratum_points(table)
    crude = crude_point(table)

    print("stratum-specific and crude risk points")
    for s, p in zip(table.strata, points):
        print(f"  {s.label:>6}: x = {p.x:.5f}, y = {p.y:.5f}")
    print(f"  {'crude':>6}: x = {crude.x:.5f}, y = {crude.y:.5f}")
    print()

    conf = is_confounded(table)
    print(
        f"confounded: {'yes' if conf.confounded else 'no'} "
        f"(crude point {conf.distance:.4f} from the standardized segment)"
    )
    print()

    header = f"{'measure':<26} {'18-64':>7} {'65+':>7} {'p':>7} {'common':>7}  95% CI"
    print(header)
    restricted = {}
    for link in (LinkFunction.IDENTITY, LinkFunction.LOGIT, LinkFunction.LOG, LinkFunction.CLOGLOG):
        measure = measure_for_link(link)
        saturated = fit(table, ModelSpec(link, interaction=True))
        strat = [evaluate(measure, p) for p in saturated.fitted_points]
        restricted[link] = fit(table, ModelSpec(link, interaction=False))
        test = lr_test_interaction(table, link)
        ci = profile_ci(table, link)
        print(
            f"{measure.label:<26} {strat[0]:>7.3f} {strat[1]:>7.3f} {test.p_value:>7.3f} "
            f"{common_measure(restricted[link]):>7.3f}  ({ci.lower:.3f}, {ci.upper:.3f})"
        )
    print()

    for measure in Measure:
        fitted = list(restricted[link_for_measure(measure)].fitted_points)
        report = collapsibility_verdict(fitted, measure)
        line = f"{measure.label}: common {report.common_value:.3f}, verdict {report.verdict.value}"
        if report.verdict is Verdict.ATTENUATED_TOWARD_NULL:
            weights = ", ".join(f"{w:.3f}" for w in report.minimum.weights)
            line += f", minimum {report.minimum.value:.3f} at weights ({weights})"
        print(line)


if __name__ == "__main__":
    main()
