import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rothman import standardize
from rothman.errors import DomainError, ModificationError
from rothman.inference import LinkFunction, ModelSpec, fit
from rothman.measures import Measure, evaluate, is_straight, null_value
from rothman.standardize import (
    StandardDistribution,
    Verdict,
    collapsibility_verdict,
    distance_to_hull,
    extremize_standardized,
    grid_extremize,
    is_confounded,
    marginal_distribution,
    point_segment_distance,
    standardized_hull,
    standardized_point,
    standardized_risk,
    uniform_distribution,
)
from rothman.tables import (
    CellCounts,
    RiskPoint,
    StratifiedTable,
    Stratum,
    crude_point,
    newcastle_fixture,
    stratum_points,
)

from conftest import points_on_contour, random_table


def test_standard_distribution_validation():
    with pytest.raises(DomainError):
        StandardDistribution((0.5, 0.6))
    with pytest.raises(DomainError):
        StandardDistribution((-0.1, 1.1))
    StandardDistribution((0.25, 0.75))


def test_standardized_risk_degenerate_weights(newcastle):
    assert standardized_risk(newcastle, exposed=False, dist=StandardDistribution((1.0, 0.0))) == (
        pytest.approx(65 / 539)
    )


def test_standardized_risk_marginal_weights(newcastle):
    dist = marginal_distribution(newcastle)
    assert dist.weights == pytest.approx((1072 / 1314, 242 / 1314))
    assert standardized_risk(newcastle, exposed=False, dist=dist) == pytest.approx(0.25584, abs=1e-5)


def test_standardized_risk_half_half(newcastle):
    v = standardized_risk(newcastle, exposed=True, dist=StandardDistribution((0.5, 0.5)))
    assert v == pytest.approx((97 / 533 + 42 / 49) / 2)
    assert v == pytest.approx(0.51957, abs=1e-5)


def test_standardized_risk_misaligned_length(newcastle):
    with pytest.raises(DomainError):
        standardized_risk(newcastle, exposed=True, dist=StandardDistribution((1.0,)))


def test_standardized_point_examples(newcastle):
    first = standardized_point(newcastle, StandardDistribution((1.0, 0.0)))
    assert first == stratum_points(newcastle)[0]
    marginal = standardized_point(newcastle, marginal_distribution(newcastle))
    assert marginal.x == pytest.approx(0.2558353, abs=1e-6)
    assert marginal.y == pytest.approx(0.3063322, abs=1e-6)


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
def test_standardized_point_inside_hull(raw):
    total = sum(raw)
    if total == 0.0:
        raw = [1.0] * len(raw)
        total = float(len(raw))
    weights = tuple(w / total for w in raw)
    rng = random.Random(20)
    table = random_table(rng, k=len(weights))
    hull = standardized_hull(stratum_points(table))
    p = standardized_point(table, StandardDistribution(weights))
    assert distance_to_hull(p, hull) <= 1e-9


def test_hull_two_points_is_segment():
    hull = standardized_hull([RiskPoint(0.2, 0.4), RiskPoint(0.6, 0.1)])
    assert len(hull.vertices) == 2


def test_hull_collinear_points_keep_extremes():
    pts = [RiskPoint(0.1, 0.1), RiskPoint(0.2, 0.2), RiskPoint(0.4, 0.4)]
    hull = standardized_hull(pts)
    assert set(hull.vertices) == {RiskPoint(0.1, 0.1), RiskPoint(0.4, 0.4)}


def test_hull_square_plus_center_drops_center():
    pts = [
        RiskPoint(0.2, 0.2),
        RiskPoint(0.8, 0.2),
        RiskPoint(0.8, 0.8),
        RiskPoint(0.2, 0.8),
        RiskPoint(0.5, 0.5),
    ]
    hull = standardized_hull(pts)
    assert len(hull.vertices) == 4
    assert RiskPoint(0.5, 0.5) not in hull.vertices
    # counterclockwise from the lowest-then-leftmost vertex
    assert hull.vertices[0] == RiskPoint(0.2, 0.2)
    assert hull.vertices[1] == RiskPoint(0.8, 0.2)
    assert hull.vertices[2] == RiskPoint(0.8, 0.8)
    assert hull.vertices[3] == RiskPoint(0.2, 0.8)


def test_hull_single_point():
    hull = standardized_hull([RiskPoint(0.3, 0.7)])
    assert hull.vertices == (RiskPoint(0.3, 0.7),)


def _brute_force_extreme_points(pts):
    """A point is extreme iff it is not a convex combination of the others;
    checked on a fine weight grid over all pairs (enough for points in
    general position)."""
    extremes = set()
    for p in pts:
        others = [q for q in pts if q != p]
        inside = False
        for a, b in itertools.combinations(others, 2):
            for i in range(0, 201):
                t = i / 200
                qx, qy = a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)
                if math.hypot(qx - p.x, qy - p.y) < 1e-9:
                    inside = True
        if not inside:
            extremes.add(p)
    return extremes


def test_hull_vertices_are_extreme_points():
    rng = random.Random(11)
    for _ in range(25):
        pts = [RiskPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(6)]
        hull = standardized_hull(pts)
        for v in hull.vertices:
            assert v in _brute_force_extreme_points(pts) or len(hull.vertices) <= 2


def test_point_segment_distance_oracle():
    a, b = RiskPoint(0.0, 0.0), RiskPoint(0.5, 0.0)
    assert point_segment_distance(RiskPoint(0.25, 0.3), a, b) == pytest.approx(0.3)
    # beyond the endpoint the distance is to the endpoint, not the line
    assert point_segment_distance(RiskPoint(0.9, 0.3), a, b) == pytest.approx(math.hypot(0.4, 0.3))
    assert point_segment_distance(RiskPoint(0.3, 0.0), a, b) == 0.0


def test_newcastle_is_confounded(newcastle):
    result = is_confounded(newcastle)
    assert result.confounded
    # independent projection oracle, frozen: project the crude point onto the
    # segment between the stratum points
    p1, p2 = stratum_points(newcastle)
    crude = crude_point(newcastle)
    assert result.distance == pytest.approx(point_segment_distance(crude, p1, p2), abs=1e-14)
    assert result.distance == pytest.approx(0.0891980, abs=1e-6)


def test_not_confounded_when_arm_distributions_match():
    table = StratifiedTable(
        (
            Stratum("a", exposed=CellCounts(10, 100), unexposed=CellCounts(20, 100)),
            Stratum("b", exposed=CellCounts(30, 50), unexposed=CellCounts(10, 50)),
        )
    )
    result = is_confounded(table)
    assert not result.confounded
    assert result.distance == 0.0


def test_confounding_with_coincident_stratum_points():
    # both strata sit at the same risk point, so the hull is that point
    same = StratifiedTable(
        (
            Stratum("a", exposed=CellCounts(1, 4), unexposed=CellCounts(1, 2)),
            Stratum("b", exposed=CellCounts(25, 100), unexposed=CellCounts(100, 200)),
        )
    )
    r = is_confounded(same)
    assert not r.confounded  # crude equals the shared point here
    shifted = StratifiedTable(
        (
            Stratum("a", exposed=CellCounts(1, 4), unexposed=CellCounts(1, 2)),
            Stratum("b", exposed=CellCounts(25, 100), unexposed=CellCounts(150, 300)),
        )
    )
    # crude unexposed risk now differs from 1/2 only if margins shift
    r2 = is_confounded(shifted)
    assert r2.confounded == (r2.distance > 1e-9)


def test_crude_in_hull_iff_weights_reproduce_both_margins():
    """K = 2 brute-force grid over candidate weights: some common weight
    reproduces both marginal risks exactly when the crude point is on the
    standardized segment."""
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        table = random_table(rng, k=2)
        p1, p2 = stratum_points(table)
        crude = crude_point(table)
        result = is_confounded(table)
        best = min(
            math.hypot(
                w * p1.x + (1 - w) * p2.x - crude.x,
                w * p1.y + (1 - w) * p2.y - crude.y,
            )
            for w in (i / 2000 for i in range(2001))
        )
        if 1e-9 < result.distance < 3e-3:
            continue  # too close to call for a 1/2000 grid
        checked += 1
        if result.confounded:
            assert best > 1e-4
        else:
            assert best < 1e-3


def test_extremize_newcastle_minimum_standardized_odds_ratio(newcastle):
    fitted = fit(newcastle, ModelSpec(LinkFunction.LOGIT, interaction=False)).fitted_points
    res = extremize_standardized(list(fitted), Measure.ODDS_RATIO, "min")
    assert res.value == pytest.approx(1.229, abs=5e-4)
    assert res.weights[0] == pytest.approx(0.484, abs=1e-3)
    assert res.weights[1] == pytest.approx(0.516, abs=1e-3)


def _assert_witness(pts, measure, res):
    """The weights sum to 1, sit on the two ends of one hull edge (or one
    vertex), and re-evaluate to the reported value."""
    assert sum(res.weights) == pytest.approx(1.0, abs=1e-12)
    support = [i for i, w in enumerate(res.weights) if w != 0.0]
    verts = standardized_hull(pts).vertices
    ends = [verts.index(pts[i]) for i in support]
    assert len(ends) in (1, 2)
    if len(ends) == 2:
        assert (ends[0] - ends[1]) % len(verts) in (1, len(verts) - 1)
    p = RiskPoint(
        sum(w * q.x for w, q in zip(res.weights, pts)),
        sum(w * q.y for w, q in zip(res.weights, pts)),
    )
    assert evaluate(measure, p) == pytest.approx(res.value, rel=1e-12)


def test_extremize_identical_points():
    p = RiskPoint(0.3, 0.4)
    for k in (1, 2, 3):
        lo = extremize_standardized([p] * k, Measure.ODDS_RATIO, "min")
        hi = extremize_standardized([p] * k, Measure.ODDS_RATIO, "max")
        assert lo.value == hi.value == pytest.approx(evaluate(Measure.ODDS_RATIO, p))
        # ties go to the smallest weight vector: everything on the last stratum
        assert lo.weights == hi.weights == (0.0,) * (k - 1) + (1.0,)


def test_extremize_straight_contour_is_flat():
    # risk difference contours are straight, so for k > 2 the strata are
    # collinear; OR and CHR are identically 1 on the null line, where their
    # directional derivative is rounding noise
    rng = random.Random(5)
    cases = [
        (Measure.RISK_DIFFERENCE, 0.2, points_on_contour(rng, Measure.RISK_DIFFERENCE, 0.2, k))
        for k in (2, 4)
    ]
    cases += [
        (measure, 1.0, [RiskPoint(x, x) for x in xs])
        for measure in (Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO)
        for xs in ((0.1, 0.8), (0.05, 0.3, 0.55, 0.9))
    ]
    for measure, value, pts in cases:
        for objective in ("min", "max"):
            res = extremize_standardized(pts, measure, objective)
            assert res.value == pytest.approx(value, abs=1e-12)
            _assert_witness(pts, measure, res)
            assert extremize_standardized(pts, measure, objective).weights == res.weights


def test_extremize_monotone_case_picks_endpoint():
    # points on different risk ratio contours: the extreme is a vertex
    a, b = RiskPoint(0.1, 0.2), RiskPoint(0.4, 0.5)
    for pts in (
        [a, b],
        [a, RiskPoint(0.25, 0.35), b],  # collinear: the middle stratum is on the segment
        [b, a, b, a],  # duplicate strata
    ):
        lo = extremize_standardized(pts, Measure.RISK_RATIO, "min")
        hi = extremize_standardized(pts, Measure.RISK_RATIO, "max")
        assert lo.value == pytest.approx(0.5 / 0.4, abs=1e-9)
        assert hi.value == pytest.approx(2.0, abs=1e-9)
        for res in (lo, hi):
            _assert_witness(pts, Measure.RISK_RATIO, res)


def test_extremize_rejects_out_of_domain_vertex():
    with pytest.raises(DomainError):
        extremize_standardized([RiskPoint(0.0, 0.2), RiskPoint(0.5, 0.6)], Measure.ODDS_RATIO, "min")


def test_extremize_objective_validation():
    with pytest.raises(DomainError):
        extremize_standardized([RiskPoint(0.2, 0.3)], Measure.ODDS_RATIO, "sup")


# K > 4 uses coarse grids: the oracle's cost grows as resolution ** -(K - 1)
_ORACLE_RESOLUTION = {2: 0.001, 3: 0.001, 4: 0.001, 5: 0.01, 6: 0.025, 7: 0.05, 8: 0.1}


def _oracle_points(k: int) -> tuple[Measure, list[RiskPoint]]:
    rng = random.Random(100 + k)
    measure = Measure.ODDS_RATIO if k % 2 == 0 else Measure.CUMULATIVE_HAZARD_RATIO
    return measure, points_on_contour(rng, measure, rng.uniform(1.5, 6.0), k, min_sep=0.05)


@pytest.mark.parametrize("k", sorted(_ORACLE_RESOLUTION))
def test_extremize_agrees_with_grid_oracle(k):
    """Every grid point is a feasible weight vector, so the extremizer is at
    least as extreme as the exhaustive grid; at the 0.001 resolution it also
    tracks the grid within 5e-4."""
    resolution = _ORACLE_RESOLUTION[k]
    measure, pts = _oracle_points(k)
    for objective, sign in (("min", 1), ("max", -1)):
        opt = extremize_standardized(pts, measure, objective)
        grid = grid_extremize(pts, measure, objective, resolution=resolution)
        assert sign * (opt.value - grid.value) <= 1e-9 * abs(grid.value)
        if resolution == 0.001:
            assert opt.value == pytest.approx(grid.value, abs=5e-4)
        _assert_witness(pts, measure, opt)


def _no_arrays(*args, **kwargs):
    raise AssertionError("the grid oracle allocated an array")


@pytest.mark.parametrize(
    "pts, resolution",
    [
        # 1e300 + 1 entries at K = 2
        ([RiskPoint(0.2, 0.3), RiskPoint(0.5, 0.7)], 1e-300),
        # n = 4471 gives 4472 * 4473 / 2 = 10 001 628 pairs at K = 3
        ([RiskPoint(0.2, 0.3), RiskPoint(0.5, 0.7), RiskPoint(0.4, 0.6)], 1 / 4471),
    ],
    ids=["k2", "k3"],
)
def test_grid_oracle_refuses_a_lattice_over_the_bound(pts, resolution, monkeypatch):
    for name in ("array", "arange", "repeat", "concatenate"):
        monkeypatch.setattr(standardize.np, name, _no_arrays)
    with pytest.raises(DomainError, match="too fine"):
        grid_extremize(pts, Measure.ODDS_RATIO, "min", resolution)


def _log_measure_slope(measure: Measure, p0: RiskPoint, p1: RiskPoint):
    """d/dw of log M at w p0 + (1 - w) p1 for OR and CHR, written out; it has
    the sign of the directional derivative of M."""
    dx, dy = p0.x - p1.x, p0.y - p1.y

    def slope(w: float) -> float:
        x, y = w * p0.x + (1.0 - w) * p1.x, w * p0.y + (1.0 - w) * p1.y
        if measure is Measure.ODDS_RATIO:
            return dy / (y * (1.0 - y)) - dx / (x * (1.0 - x))
        return dx / ((1.0 - x) * math.log1p(-x)) - dy / ((1.0 - y) * math.log1p(-y))

    return slope


def _edge_optimum_cases(case: str):
    if case == "newcastle":
        fitted = fit(newcastle_fixture(), ModelSpec(LinkFunction.LOGIT, interaction=False)).fitted_points
        return [(Measure.ODDS_RATIO, list(fitted), "min")]
    measure = Measure(case)
    rng = random.Random(29)
    cases = []
    for _ in range(10):
        # the attenuated extreme of two strata on one contour is interior
        for m, objective in ((rng.uniform(1.2, 8.0), "min"), (rng.uniform(0.1, 0.8), "max")):
            cases.append((measure, points_on_contour(rng, measure, m, 2, y_cap=1.0 - 1e-3), objective))
    return cases


@pytest.mark.parametrize("case", ["newcastle", Measure.ODDS_RATIO.value, Measure.CUMULATIVE_HAZARD_RATIO.value])
def test_extremize_edge_optimum_is_the_slope_root(case):
    """The interior edge optimum sits on the root of the analytic directional
    derivative, found independently by scipy's brentq."""
    from scipy.optimize import brentq

    for measure, pts, objective in _edge_optimum_cases(case):
        res = extremize_standardized(pts, measure, objective)
        root = brentq(_log_measure_slope(measure, *pts), 0.0, 1.0, xtol=1e-15)
        assert res.weights[0] == pytest.approx(root, abs=1e-12)
        assert res.weights[1] == pytest.approx(1.0 - root, abs=1e-12)


def test_extremize_segment_work_is_bounded(newcastle, measure_calls, monkeypatch):
    """The end points and one bisection on the derivative's sign: at most 60
    measure evaluations and gradients per hull edge."""
    per_edge = []
    original = standardize._extremize_segment

    def counted(points, measure, sign):
        before = len(measure_calls)
        res = original(points, measure, sign)
        per_edge.append(len(measure_calls) - before)
        return res

    monkeypatch.setattr(standardize, "_extremize_segment", counted)
    fitted = fit(newcastle, ModelSpec(LinkFunction.LOGIT, interaction=False)).fitted_points
    inputs = [(Measure.ODDS_RATIO, list(fitted))] + [_oracle_points(k) for k in sorted(_ORACLE_RESOLUTION)]
    for measure, pts in inputs:
        for objective in ("min", "max"):
            extremize_standardized(pts, measure, objective)
    assert len(per_edge) >= 2 * len(inputs)
    assert max(per_edge) <= 60


@pytest.mark.parametrize("measure", [Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO])
def test_extremize_attenuated_extreme_on_outer_chord(measure):
    """For strata on one curved contour the extreme attenuated toward the
    null lies on the chord between the outermost strata. Above the null
    line that chord is the first hull edge, below it the last one."""
    rng = random.Random(41)
    for k in range(3, 9):
        for m, objective in ((rng.uniform(1.5, 6.0), "min"), (rng.uniform(0.2, 0.7), "max")):
            pts = points_on_contour(rng, measure, m, k, min_sep=0.02)
            chord = extremize_standardized([pts[0], pts[-1]], measure, objective)
            res = extremize_standardized(pts, measure, objective)
            assert res.value == pytest.approx(chord.value, rel=1e-12)
            assert res.weights == (chord.weights[0],) + (0.0,) * (k - 2) + (chord.weights[1],)


def test_collapsibility_verdict_common_risk_difference(newcastle):
    fitted = fit(newcastle, ModelSpec(LinkFunction.IDENTITY, interaction=False)).fitted_points
    report = collapsibility_verdict(list(fitted), Measure.RISK_DIFFERENCE)
    assert report.verdict is Verdict.COLLAPSIBLE_HERE
    assert report.common_value == pytest.approx(0.052, abs=5e-4)
    assert report.minimum.value == pytest.approx(report.maximum.value, abs=1e-9)


def test_collapsibility_verdict_common_odds_ratio(newcastle):
    fitted = fit(newcastle, ModelSpec(LinkFunction.LOGIT, interaction=False)).fitted_points
    report = collapsibility_verdict(list(fitted), Measure.ODDS_RATIO)
    assert report.verdict is Verdict.ATTENUATED_TOWARD_NULL
    assert report.common_value == pytest.approx(1.537, abs=5e-4)
    assert report.minimum.value == pytest.approx(1.229, abs=5e-4)
    assert report.maximum.value == pytest.approx(report.common_value, abs=1e-9)


@pytest.mark.parametrize("measure", list(Measure))
def test_null_line_collapses_for_every_measure(measure):
    pts = [RiskPoint(0.2, 0.2), RiskPoint(0.7, 0.7)]
    report = collapsibility_verdict(pts, measure)
    assert report.verdict is Verdict.COLLAPSIBLE_HERE
    assert report.common_value == pytest.approx(null_value(measure), abs=1e-12)


def test_collapsibility_verdict_refuses_modification(newcastle):
    with pytest.raises(ModificationError) as exc:
        collapsibility_verdict(stratum_points(newcastle), Measure.ODDS_RATIO)
    assert len(exc.value.values) == 2
    assert "1.622" in str(exc.value)


def test_collapsibility_single_point_trivial():
    report = collapsibility_verdict([RiskPoint(0.2, 0.5)], Measure.ODDS_RATIO)
    assert report.verdict is Verdict.COLLAPSIBLE_HERE


def test_recover_distribution_on_segment(newcastle):
    """K = 2: any point of the segment determines its weights by a linear solve."""
    p1, p2 = stratum_points(newcastle)
    rng = random.Random(3)
    for _ in range(25):
        w = rng.random()
        target = RiskPoint(w * p1.x + (1 - w) * p2.x, w * p1.y + (1 - w) * p2.y)
        dx, dy = p1.x - p2.x, p1.y - p2.y
        w_hat = ((target.x - p2.x) * dx + (target.y - p2.y) * dy) / (dx * dx + dy * dy)
        assert w_hat == pytest.approx(w, abs=1e-12)
        again = standardized_point(newcastle, StandardDistribution((w_hat, 1 - w_hat)))
        assert again.x == pytest.approx(target.x, abs=1e-12)
        assert again.y == pytest.approx(target.y, abs=1e-12)


@pytest.mark.parametrize("measure", [Measure.RISK_DIFFERENCE, Measure.RISK_RATIO])
def test_forward_collapsibility_straight_measures(measure):
    rng = random.Random(17)
    for _ in range(50):
        m = rng.uniform(-0.5, 0.8) if measure is Measure.RISK_DIFFERENCE else rng.uniform(0.3, 4.0)
        pts = points_on_contour(rng, measure, m, 2)
        for _ in range(10):
            w = rng.random()
            p = RiskPoint(
                w * pts[0].x + (1 - w) * pts[1].x, w * pts[0].y + (1 - w) * pts[1].y
            )
            assert evaluate(measure, p) == pytest.approx(m, abs=1e-9)


@pytest.mark.parametrize("measure", [Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO])
def test_strict_noncollapsibility_curved_measures(measure):
    rng = random.Random(23)
    for _ in range(50):
        m = rng.uniform(1.2, 10.0)
        pts = points_on_contour(rng, measure, m, 2, min_sep=5e-3)
        for _ in range(10):
            w = rng.uniform(1e-3, 1.0 - 1e-3)
            p = RiskPoint(
                w * pts[0].x + (1 - w) * pts[1].x, w * pts[0].y + (1 - w) * pts[1].y
            )
            assert 1.0 < evaluate(measure, p) < m


@pytest.mark.parametrize("measure", list(Measure))
def test_straightness_matches_brute_force_collapsibility(measure):
    """Straight contours <=> standardized values never leave the contour,
    checked by a dense weight grid on random two-point instances."""
    rng = random.Random(29)
    for _ in range(20):
        m = rng.uniform(0.1, 0.6) if measure is Measure.RISK_DIFFERENCE else rng.uniform(1.5, 5.0)
        pts = points_on_contour(rng, measure, m, 2, min_sep=0.1)
        values = [
            evaluate(measure, RiskPoint(w * pts[0].x + (1 - w) * pts[1].x,
                                        w * pts[0].y + (1 - w) * pts[1].y))
            for w in (i / 50 for i in range(51))
        ]
        spread = max(values) - min(values)
        if is_straight(measure):
            assert spread <= 1e-9
        else:
            assert spread > 1e-9


def test_confounding_and_modification_are_independent(newcastle):
    """All four combinations are constructible from the fixture, and the two
    classifiers answer independently."""
    observed = stratum_points(newcastle)
    fitted = list(fit(newcastle, ModelSpec(LinkFunction.LOG, interaction=False)).fitted_points)
    marginal = marginal_distribution(newcastle).weights
    exposed_n = [s.exposed.total for s in newcastle.strata]
    unexposed_n = [s.unexposed.total for s in newcastle.strata]
    exposed_w = [n / sum(exposed_n) for n in exposed_n]
    unexposed_w = [n / sum(unexposed_n) for n in unexposed_n]

    outcomes = {}
    for mod_label, pts in (("mod", observed), ("nomod", fitted)):
        values = [evaluate(Measure.RISK_RATIO, p) for p in pts]
        modified = max(values) - min(values) > 1e-9
        segment = standardized_hull(pts)
        for conf_label, (wx, wy) in (
            ("noconf", (marginal, marginal)),
            ("conf", (unexposed_w, exposed_w)),
        ):
            marginal_point = RiskPoint(
                sum(w * p.x for w, p in zip(wx, pts)),
                sum(w * p.y for w, p in zip(wy, pts)),
            )
            confounded = distance_to_hull(marginal_point, segment) > 1e-9
            outcomes[(mod_label, conf_label)] = (modified, confounded)

    assert outcomes[("nomod", "noconf")] == (False, False)
    assert outcomes[("nomod", "conf")] == (False, True)
    assert outcomes[("mod", "noconf")] == (True, False)
    assert outcomes[("mod", "conf")] == (True, True)


def test_uniform_distribution():
    assert uniform_distribution(4).weights == (0.25, 0.25, 0.25, 0.25)
