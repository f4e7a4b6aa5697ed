"""The in-process workloads, fit-strata and geometry-strata: one job each
as the library's public API runs it, and the checks on its output.

Jobs call the program through module attributes (``inference.fit``, not a
name imported from it) so that a tracer installed on those attributes sees
them.  Checks return a list of failure reasons; an empty list passes.
"""

from __future__ import annotations

import hashlib
import math

from rothman import inference, measures, render, standardize, tables
from rothman.errors import DomainError
from rothman.inference import LinkFunction, ModelSpec
from rothman.measures import Measure

import reference as ref

GEOMETRY_FIGURES = ("modification", "collapsible", "noncollapsible", "hull")


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def fit_strata(csv: str) -> dict:
    """The library path of ``rothman fit --link all``, one link after another."""
    table = tables.parse_table(csv)
    out = {}
    for link in LinkFunction:
        measure = inference.measure_for_link(link)
        saturated = inference.fit(table, ModelSpec(link, interaction=True)) if table.k >= 2 else None
        restricted = inference.fit(table, ModelSpec(link, interaction=False))
        strata = [measures.evaluate(measure, p) for p in (saturated or restricted).fitted_points]
        lr = inference.lr_test_interaction(table, link) if table.k >= 2 else None
        ci = inference.profile_ci(table, link, 0.95)
        out[link.value] = (strata, lr, inference.common_measure(restricted), ci)
    return out


def check_fit(fixed: str, out: dict) -> list[str]:
    reasons = []
    for link, (strata, lr, common, ci) in out.items():
        if not _finite(*strata, common, ci.lower, ci.upper):
            reasons.append(f"{link}: non-finite estimate")
        if lr is not None and not 0.0 <= lr.p_value <= 1.0:
            reasons.append(f"{link}: LR p-value outside [0, 1]")
        if not ci.lower <= common <= ci.upper:
            reasons.append(f"{link}: CI does not bracket the common estimate")
    if fixed == "newcastle":
        for link, (strata_ref, common_ref, p_ref, ci_ref) in ref.NEWCASTLE_FITS.items():
            strata, lr, common, ci = out[link]
            if not (
                all(map(ref.close, strata, strata_ref))
                and ref.close(common, common_ref)
                and ref.close(lr.p_value, p_ref)
                and ref.close(ci.lower, ci_ref[0])
                and ref.close(ci.upper, ci_ref[1])
            ):
                reasons.append(ref.reason_ref(f"newcastle {link} fit"))
    return reasons


def _measure_values(point) -> dict:
    values = {}
    for m in Measure:
        try:
            values[m] = measures.evaluate(m, point)
        except DomainError:
            values[m] = None
    return values


def geometry_strata(csv: str) -> dict:
    """Points, measures, confounding, standardization, hull, collapsibility
    verdicts from restricted fits, and the table's figures."""
    table = tables.parse_table(csv)
    points = tables.stratum_points(table)
    values = [_measure_values(p) for p in points + [tables.crude_point(table)]]
    confounding = standardize.is_confounded(table)
    standardized = [
        standardize.standardized_point(table, standardize.marginal_distribution(table)),
        standardize.standardized_point(table, standardize.uniform_distribution(table.k)),
    ]
    hull = standardize.standardized_hull(points)
    verdicts = {}
    for m in Measure:
        restricted = inference.fit(table, ModelSpec(inference.link_for_measure(m), interaction=False))
        fitted = list(restricted.fitted_points)
        verdicts[m] = (fitted, standardize.collapsibility_verdict(fitted, m))
    names = GEOMETRY_FIGURES + (("modconf",) if table.k == 2 else ())
    svgs = {name: render.render_svg(render.FIGURES[name](table)) for name in names}
    return {
        "table": table, "values": values, "confounding": confounding,
        "standardized": standardized, "hull": hull, "verdicts": verdicts, "svgs": svgs,
    }


def check_geometry(fixed: str, out: dict) -> list[str]:
    reasons = []
    table = out["table"]
    for p in out["standardized"]:
        if standardize.distance_to_hull(p, out["hull"]) > 1e-12:
            reasons.append("standardized point off the hull")
    steps = ref.ORACLE_STEPS[table.k]
    for m, (fitted, report) in out["verdicts"].items():
        for objective, sign, found in (("min", 1.0, report.minimum), ("max", -1.0, report.maximum)):
            grid = standardize.grid_extremize(fitted, m, objective, 1.0 / steps)
            if sign * (found.value - grid.value) > ref.ORACLE_REL_TOL * abs(grid.value):
                reasons.append("oracle_miss")
    svgs = dict(out["svgs"])
    for name, svg in out["svgs"].items():
        if render.render_svg(render.FIGURES[name](table)) != svg:
            reasons.append(f"{name} figure not byte-identical when rendered twice")
    if fixed:
        if fixed == "newcastle":
            svgs["contours"] = render.render_svg(render.figure_contours())
        for name, svg in svgs.items():
            if hashlib.sha256(svg.encode()).hexdigest() != ref.SVG_SHA256[(fixed, name)]:
                reasons.append(ref.reason_ref(f"{fixed} {name} figure digest"))
    if fixed == "newcastle":
        value_ref, weights_ref = ref.NEWCASTLE_MIN_OR
        minimum = out["verdicts"][Measure.ODDS_RATIO][1].minimum
        if not (
            out["confounding"].confounded
            and ref.close(minimum.value, value_ref)
            and all(map(ref.close, minimum.weights, weights_ref))
        ):
            reasons.append(ref.reason_ref("newcastle confounding and minimum standardized OR"))
    return reasons
