"""Acceptance suite: every numbered correctness criterion at its pinned tolerance,
one pass/fail line per criterion (run ``pytest tests/test_acceptance.py -s``
to see the lines as they complete).

All criteria run against the embedded Newcastle fixture unless noted; the
multi-stratum code paths run on synthetic data.
"""

import math
import random
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from rothman.errors import DomainError
from rothman.inference import (
    LinkFunction,
    ModelSpec,
    chi2_sf,
    common_measure,
    fit,
    loglik_at,
    lr_test_interaction,
    measure_for_link,
    profile_ci,
    score,
)
from rothman.measures import ContourValue, Measure, contour_y, evaluate, in_domain, null_value
from rothman.render import (
    CELL,
    MARGIN,
    PANEL_SIZE,
    figure_collapsible,
    figure_contours,
    figure_hull,
    figure_modconf,
    figure_modification,
    figure_noncollapsible,
    render_svg,
)
from rothman.standardize import extremize_standardized, grid_extremize, is_confounded
from rothman.tables import RiskPoint, crude_point, four_strata_fixture, newcastle_fixture, stratum_points

from conftest import points_on_contour, random_table

ALL_LINKS = (LinkFunction.IDENTITY, LinkFunction.LOGIT, LinkFunction.LOG, LinkFunction.CLOGLOG)


@contextmanager
def criterion(num: str, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num:>3}] FAIL - {description}")
        raise
    print(f"[criterion {num:>3}] PASS - {description}")


def test_criterion_1_stratum_estimates():
    targets = {
        LinkFunction.IDENTITY: (0.061, 0.002),
        LinkFunction.LOGIT: (1.622, 1.018),
        LinkFunction.LOG: (1.509, 1.003),
        LinkFunction.CLOGLOG: (1.563, 1.008),
    }
    with criterion("1", "stratum estimates match at 3 decimals, closed form and saturated GLM agree"):
        table = newcastle_fixture()
        observed = stratum_points(table)
        for link, expected in targets.items():
            measure = measure_for_link(link)
            closed = [evaluate(measure, p) for p in observed]
            saturated = fit(table, ModelSpec(link, interaction=True))
            via_glm = [evaluate(measure, p) for p in saturated.fitted_points]
            for a, b in zip(closed, via_glm):
                assert abs(a - b) <= 1e-8
            assert tuple(round(v, 3) for v in closed) == expected


def test_criterion_2_common_estimates():
    targets = {
        LinkFunction.IDENTITY: 0.052,
        LinkFunction.LOGIT: 1.537,
        LinkFunction.LOG: 1.062,
        LinkFunction.CLOGLOG: 1.316,
    }
    with criterion("2", "common estimates from no-interaction fits match at 3 decimals"):
        table = newcastle_fixture()
        for link, expected in targets.items():
            result = fit(table, ModelSpec(link, interaction=False))
            assert round(common_measure(result), 3) == expected


def test_criterion_3_interaction_p_values():
    targets = {
        LinkFunction.IDENTITY: 0.300,
        LinkFunction.LOGIT: 0.353,
        LinkFunction.LOG: 0.010,
        LinkFunction.CLOGLOG: 0.085,
    }
    with criterion("3", "interaction LR p-values match within 0.001"):
        table = newcastle_fixture()
        for link, expected in targets.items():
            assert abs(lr_test_interaction(table, link).p_value - expected) <= 1e-3


def test_criterion_4_profile_likelihood_cis():
    targets = {
        LinkFunction.IDENTITY: (0.013, 0.091),
        LinkFunction.LOGIT: (1.119, 2.125),
        LinkFunction.LOG: (0.952, 1.166),
        LinkFunction.CLOGLOG: (1.034, 1.676),
    }
    with criterion("4", "95% profile likelihood CIs match within 0.001 per endpoint"):
        table = newcastle_fixture()
        for link, (lo, hi) in targets.items():
            ci = profile_ci(table, link, 0.95)
            assert abs(ci.lower - lo) <= 1e-3
            assert abs(ci.upper - hi) <= 1e-3


def test_criterion_5_minimum_standardized_odds_ratio():
    with criterion("5", "minimum standardized OR 1.229 at weights (0.484, 0.516); grid oracle agrees"):
        table = newcastle_fixture()
        fitted = list(fit(table, ModelSpec(LinkFunction.LOGIT, interaction=False)).fitted_points)
        best = extremize_standardized(fitted, Measure.ODDS_RATIO, "min")
        assert abs(best.value - 1.229) <= 5e-3
        assert abs(best.weights[0] - 0.484) <= 1e-2
        assert abs(best.weights[1] - 0.516) <= 1e-2
        oracle = grid_extremize(fitted, Measure.ODDS_RATIO, "min", resolution=0.001)
        assert abs(oracle.value - best.value) <= 5e-4


def test_criterion_6_confounding_verdict():
    with criterion("6", "Newcastle is confounded and shows the crude odds ratio reversal"):
        table = newcastle_fixture()
        result = is_confounded(table)
        assert result.confounded
        assert result.distance > 1e-3
        crude_or = evaluate(Measure.ODDS_RATIO, crude_point(table))
        stratum_ors = [evaluate(Measure.ODDS_RATIO, p) for p in stratum_points(table)]
        assert crude_or < 1.0
        assert all(v > 1.0 for v in stratum_ors)


def _contour_level(rng: random.Random, measure: Measure) -> float:
    if measure is Measure.RISK_DIFFERENCE:
        return rng.uniform(-0.9, 0.9)
    if measure is Measure.RISK_RATIO:
        return rng.uniform(0.1, 10.0)
    return rng.uniform(1.2, 10.0)


def test_criterion_7_collapsibility_property_suite():
    with criterion("7", "collapsibility properties on 1,000 random two-point instances per measure"):
        rng = random.Random(7001)
        for measure in Measure:
            straight = measure in (Measure.RISK_DIFFERENCE, Measure.RISK_RATIO)
            for _ in range(1000):
                m = _contour_level(rng, measure)
                pts = points_on_contour(rng, measure, m, 2, min_sep=0.01)
                for _ in range(50):
                    w = rng.uniform(1e-3, 1.0 - 1e-3)
                    p = RiskPoint(
                        w * pts[0].x + (1.0 - w) * pts[1].x,
                        w * pts[0].y + (1.0 - w) * pts[1].y,
                    )
                    value = evaluate(measure, p)
                    if straight:
                        assert abs(value - m) <= 1e-9
                    else:
                        assert 1.0 < value < m
        # null-contour instances collapse for every measure
        for measure in Measure:
            for _ in range(100):
                t1, t2 = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
                pts = [RiskPoint(t1, t1), RiskPoint(t2, t2)]
                for _ in range(50):
                    w = rng.random()
                    p = RiskPoint(
                        w * pts[0].x + (1.0 - w) * pts[1].x,
                        w * pts[0].y + (1.0 - w) * pts[1].y,
                    )
                    assert abs(evaluate(measure, p) - null_value(measure)) <= 1e-9


def test_criterion_7_multiway_strata_with_grid_oracle():
    """K in {3, 4, 5} extension: same properties on multi-point instances,
    optimizer checked against the exhaustive grid oracle. Grid resolutions
    are 0.001 (K=3), 0.002 (K=4), and 0.01 (K=5) to stay inside the desk-
    scale time budget; agreement stays well under the 5e-4 bound."""
    resolutions = {3: 0.001, 4: 0.002, 5: 0.01}
    with criterion("7b", "multi-stratum collapsibility and grid-oracle agreement, K in {3, 4, 5}"):
        rng = random.Random(7002)
        for k, resolution in resolutions.items():
            for measure in (Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO):
                m = rng.uniform(1.2, 6.0)
                pts = points_on_contour(rng, measure, m, k, min_sep=0.02)
                for _ in range(50):
                    raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
                    total = sum(raw)
                    w = [v / total for v in raw]
                    p = RiskPoint(
                        sum(wi * q.x for wi, q in zip(w, pts)),
                        sum(wi * q.y for wi, q in zip(w, pts)),
                    )
                    value = evaluate(measure, p)
                    assert 1.0 < value < m
                for objective in ("min", "max"):
                    opt = extremize_standardized(pts, measure, objective)
                    oracle = grid_extremize(pts, measure, objective, resolution=resolution)
                    assert abs(opt.value - oracle.value) <= 5e-4
            for measure in (Measure.RISK_DIFFERENCE, Measure.RISK_RATIO):
                m = 0.3 if measure is Measure.RISK_DIFFERENCE else rng.uniform(0.5, 3.0)
                pts = points_on_contour(rng, measure, m, k, min_sep=0.02)
                lo = extremize_standardized(pts, measure, "min")
                hi = extremize_standardized(pts, measure, "max")
                assert abs(lo.value - m) <= 1e-9
                assert abs(hi.value - m) <= 1e-9


def test_criterion_8_glm_correctness():
    with criterion("8", "score matches finite differences; saturated fits reproduce risks; LR >= 0"):
        rng = random.Random(8001)
        h = 1e-6
        for link in ALL_LINKS:
            checked = 0
            while checked < 100:
                table = random_table(rng, k=2, interior=True)
                spec = ModelSpec(link, interaction=bool(rng.getrandbits(1)))
                base = fit(table, spec).coefficients
                beta = np.array(base) + np.array(
                    [rng.uniform(-0.05, 0.05) for _ in base]
                )
                try:
                    analytic = score(table, spec, beta)
                except DomainError:
                    continue
                numeric = np.empty_like(beta)
                for i in range(len(beta)):
                    up, dn = beta.copy(), beta.copy()
                    up[i] += h
                    dn[i] -= h
                    numeric[i] = (loglik_at(table, spec, up) - loglik_at(table, spec, dn)) / (2 * h)
                assert np.max(np.abs(analytic - numeric)) < 1e-4
                checked += 1
        for i in range(200):
            table = random_table(rng, k=rng.randint(2, 4), interior=True)
            link = ALL_LINKS[i % 4]
            saturated = fit(table, ModelSpec(link, interaction=True))
            for fitted, observed in zip(saturated.fitted_points, stratum_points(table)):
                assert abs(fitted.x - observed.x) <= 1e-8
                assert abs(fitted.y - observed.y) <= 1e-8
            assert lr_test_interaction(table, link).statistic >= 0.0


def test_criterion_9_chi_square_tail():
    with criterion("9", "chi2_sf matches the erfc closed form within 1e-10 on [0, 50]"):
        for i in range(0, 2001):
            x = 0.025 * i
            assert abs(chi2_sf(x, 1) - math.erfc(math.sqrt(x / 2.0))) < 1e-10
        assert abs(chi2_sf(3.8415, 1) - 0.0500) <= 1e-4


def _check_figure(spec) -> None:
    first = render_svg(spec)
    second = render_svg(spec)
    assert first == second
    root = ET.fromstring(first)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    panels = root.findall("{http://www.w3.org/2000/svg}g")
    assert len(panels) == len(spec.panels)
    ncols = 1 if len(spec.panels) == 1 else 2
    for i, (g, panel) in enumerate(zip(panels, spec.panels)):
        row, col = divmod(i, ncols)
        ox, oy = col * CELL + MARGIN, row * CELL + MARGIN
        polylines = g.findall("{http://www.w3.org/2000/svg}polyline")
        from rothman.measures import contour_polyline

        levels = [
            c.level
            for c in panel.contours
            if len(contour_polyline(ContourValue(panel.measure, c.level), 201)) >= 2
        ]
        assert len(polylines) == len(levels)
        for element, level in zip(polylines, levels):
            for pair in element.attrib["points"].split():
                sx, sy = (float(v) for v in pair.split(","))
                x = min(1.0, max(0.0, (sx - ox) / PANEL_SIZE))
                y = min(1.0, max(0.0, 1.0 - (sy - oy) / PANEL_SIZE))
                point = RiskPoint(x, y)
                if in_domain(panel.measure, point):
                    assert abs(evaluate(panel.measure, point) - level) <= 1e-9
                else:
                    expected = contour_y(ContourValue(panel.measure, level), x)
                    assert abs(y - expected) <= 1e-9


def test_criterion_10_rendering():
    with criterion("10", "six figure analogs: well-formed, byte-identical, vertices re-evaluate to 1e-9"):
        table = newcastle_fixture()
        figures = [
            figure_contours(),
            figure_modification(table),
            figure_modconf(table),
            figure_collapsible(table),
            figure_noncollapsible(table),
            figure_hull(four_strata_fixture()),
        ]
        for spec in figures:
            _check_figure(spec)
