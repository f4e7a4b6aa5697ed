import gc
import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rothman import standardize
from rothman.errors import DomainError, ModificationError, RothmanError
from rothman.inference import LinkFunction, ModelSpec, fit, link_for_measure
from rothman.measures import ContourValue, Measure, _gradient_xy, contour_y, evaluate, is_straight, null_value
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

from conftest import extreme_tables, points_on_contour, random_table, sweep_tables


def test_standard_distribution_validation():
    with pytest.raises(DomainError):
        StandardDistribution((0.5, 0.6))
    with pytest.raises(DomainError):
        StandardDistribution((-0.1, 1.1))
    StandardDistribution((0.25, 0.75))


def test_standardized_risk_degenerate_weights(newcastle):
    assert standardized_point(newcastle, StandardDistribution((1.0, 0.0))).x == pytest.approx(65 / 539)


def test_standardized_risk_marginal_weights(newcastle):
    dist = marginal_distribution(newcastle)
    assert dist.weights == pytest.approx((1072 / 1314, 242 / 1314))
    assert standardized_point(newcastle, dist).x == pytest.approx(0.25584, abs=1e-5)


def test_standardized_risk_half_half(newcastle):
    v = standardized_point(newcastle, StandardDistribution((0.5, 0.5))).y
    assert v == pytest.approx((97 / 533 + 42 / 49) / 2)
    assert v == pytest.approx(0.51957, abs=1e-5)


def test_standardized_risk_misaligned_length(newcastle):
    message = "distribution has 1 weights but the table has 2 strata"
    with pytest.raises(DomainError, match=message):
        standardized_point(newcastle, StandardDistribution((1.0,)))


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


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_standardized_point_is_the_exact_weighted_average(k):
    # each coordinate is K products of a rounded risk and a weight, summed:
    # at most K + 1 roundings of nonnegative terms, each at most 2^-53 of
    # the running value
    rng = random.Random(3300 + k)
    for _ in range(20):
        table = random_table(rng, k)
        raw = [rng.random() for _ in range(k)]
        dist = StandardDistribution(tuple(w / sum(raw) for w in raw))
        point = standardized_point(table, dist)
        for exposed, got in ((False, point.x), (True, point.y)):
            cells = [s.exposed if exposed else s.unexposed for s in table.strata]
            exact = sum(Fraction(w) * Fraction(c.cases, c.total) for w, c in zip(dist.weights, cells))
            assert abs(Fraction(got) - exact) <= (k + 1) * Fraction(1, 2**53) * exact


@pytest.mark.parametrize("k", range(1, 11))
def test_standardized_point_of_weights_within_the_sum_tolerance(k):
    """Weights within 1e-12 of summing to 1 are accepted, and their
    standardized point on a valid table lies in the unit square, also where
    every risk is 1 and the weights sum to more than 1."""
    rng = random.Random(8000 + k)
    for i in range(40):
        table = random_table(rng, k, max_total=6)
        if i % 2:
            table = StratifiedTable(tuple(
                Stratum(s.label, CellCounts(s.exposed.total, s.exposed.total),
                        CellCounts(s.unexposed.total, s.unexposed.total))
                for s in table.strata
            ))
        raw = [rng.random() for _ in range(k)]
        scale = (1.0 + rng.uniform(-0.9e-12, 0.9e-12)) / sum(raw)
        point = standardized_point(table, StandardDistribution(tuple(w * scale for w in raw)))
        assert 0.0 <= point.x <= 1.0 and 0.0 <= point.y <= 1.0


@pytest.mark.parametrize("table", sweep_tables(), ids=lambda t: f"k{t.k}")
def test_crude_point_is_the_weighted_point_under_each_arms_own_sizes(table):
    # the crude point rounds once; each of the weighted point's K terms
    # rounds its share, its risk and their product, and the sum adds K - 1
    # roundings of nonnegative terms: to first order (K + 3) 2^-53 of the value
    unexposed = standardize._shares([s.unexposed.total for s in table.strata])
    exposed = standardize._shares([s.exposed.total for s in table.strata])
    weighted = standardize._weighted_point(stratum_points(table), unexposed, exposed)
    crude = crude_point(table)
    for got, want in ((weighted.x, crude.x), (weighted.y, crude.y)):
        assert abs(got - want) <= (table.k + 3) * 2.0**-53 * want


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
    # a zero-length segment is its one point
    assert point_segment_distance(RiskPoint(0.3, 0.4), a, a) == math.hypot(0.3, 0.4)
    # so a one-point hull measures to that point
    hull = standardized_hull([RiskPoint(0.2, 0.3)] * 2)
    assert hull.vertices == (RiskPoint(0.2, 0.3),)
    assert distance_to_hull(RiskPoint(0.5, 0.7), hull) == math.hypot(0.5 - 0.2, 0.7 - 0.3)
    assert distance_to_hull(RiskPoint(0.2, 0.3), hull) == 0.0


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


def _rational_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(a, b, q) -> bool:
    return (
        _rational_cross(a, b, q) == 0
        and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
    )


def _in_rational_hull(points, q) -> bool:
    """Carathéodory in the plane: q is in the hull of the points iff it is
    in the triangle, segment or point of some three of them (repeats
    allowed), tested with exact Fraction orientations."""
    for a, b, c in itertools.combinations_with_replacement(points, 3):
        if _rational_cross(a, b, c) == 0:
            if _on_segment(a, b, q) or _on_segment(b, c, q) or _on_segment(a, c, q):
                return True
            continue
        sides = (_rational_cross(a, b, q), _rational_cross(b, c, q), _rational_cross(c, a, q))
        if min(sides) >= 0 or max(sides) <= 0:
            return True
    return False


def _confounding_oracle(table):
    """(confounded, distance) from the counts as Fractions: a crude point in
    the hull reads (False, 0.0); otherwise the float distance between the
    rounded crude point and the hull of the rounded stratum points."""
    pts = [
        (Fraction(s.unexposed.cases, s.unexposed.total), Fraction(s.exposed.cases, s.exposed.total))
        for s in table.strata
    ]
    crude = (
        Fraction(sum(s.unexposed.cases for s in table.strata), sum(s.unexposed.total for s in table.strata)),
        Fraction(sum(s.exposed.cases for s in table.strata), sum(s.exposed.total for s in table.strata)),
    )
    if _in_rational_hull(pts, crude):
        return False, 0.0
    hull = standardized_hull([RiskPoint(float(x), float(y)) for x, y in pts])
    distance = distance_to_hull(RiskPoint(float(crude[0]), float(crude[1])), hull)
    return distance > 1e-9, distance


def _large_table(rng: random.Random, k: int) -> StratifiedTable:
    """Totals log-uniform up to 1e9, cases anywhere in [0, total]."""
    strata = []
    for j in range(k):
        cells = []
        for _ in range(2):
            total = round(math.exp(rng.uniform(0.0, math.log(1e9))))
            cells.append(CellCounts(rng.randint(0, total), total))
        strata.append(Stratum(f"s{j}", exposed=cells[0], unexposed=cells[1]))
    return StratifiedTable(tuple(strata))


def _table_of(rows) -> StratifiedTable:
    return StratifiedTable(
        tuple(Stratum(f"s{j}", CellCounts(ec, et), CellCounts(uc, ut)) for j, (ec, et, uc, ut) in enumerate(rows))
    )


def _proportional_table(rng: random.Random, k: int) -> StratifiedTable:
    """Exposed totals s n_j and unexposed totals u n_j, up to 1e8: the crude
    point is the standardized point of the weights n_j / sum n, so it lies
    in the hull, on the segment when K = 2."""
    n = [rng.randint(1, 10**4) for _ in range(k)]
    s, u = rng.randint(1, 10**4), rng.randint(1, 10**4)
    return _table_of([(rng.randint(0, s * nj), s * nj, rng.randint(0, u * nj), u * nj) for nj in n])


def _exact_boundary_tables() -> list[StratifiedTable]:
    """Tables whose crude point lies exactly in the hull, most of them on its
    boundary, then the same tables with one subject added to the first
    stratum's exposed arm, which moves the crude point by about 1e-9 and
    may take it off the hull."""
    m = 21 * 3_000_000  # risks in thirds and sevenths, totals up to 7.6e8
    rng = random.Random(1618)
    tables = [_proportional_table(rng, k) for k in (2, 2, 2, 3, 4) for _ in range(8)] + [
        # K = 2 with proportional arm totals: the crude point is on the segment
        _table_of([(2 * m // 7, m, m // 3, 3 * m), (5 * m // 7, 4 * m, 2 * m // 3, 12 * m)]),
        # a triangle with c = (x_a, y_b) and u_a + u_c = e_a = 1/2: the crude
        # point is the midpoint of the edge from a = (1/3, 2/7) to b = (2/3, 5/7)
        _table_of([(2 * m // 7 * 5, 5 * m, 2 * m // 3, 2 * m), (5 * m // 7 * 3, 3 * m, 2 * m // 3 * 5, 5 * m),
                   (5 * m // 7 * 2, 2 * m, m, 3 * m)]),
        # collinear strata with proportional arm totals
        _table_of([(j * m // 7, m, j * m // 21, m) for j in range(1, 6)]),
        # equal risks in every stratum: the hull is one point, the crude point
        _table_of([(2 * m // 7 * t, m * t, m // 3 * t, m * t) for t in (1, 2, 3, 4)]),
        _table_of([(2 * t, 7 * t, t, 3 * t) for t in (1, 5, 11)]),
    ]
    off = []
    for table in tables:
        rows = [(s.exposed.cases, s.exposed.total, s.unexposed.cases, s.unexposed.total) for s in table.strata]
        ec, et, uc, ut = rows[0]
        rows[0] = (ec, et + 1, uc, ut)
        off.append(_table_of(rows))
    return tables + off


def _huge_table(rng: random.Random, k: int) -> StratifiedTable:
    """Totals log-uniform up to 10^100, equal in both arms of every stratum in
    about a third of the tables (the crude point is then in the hull), cells
    often zero or full, and in about half of the tables a last stratum that
    repeats the first one's point, at a multiple of its counts where that
    stays within 10^100."""
    equal = rng.random() < 0.3
    rows = []
    for _ in range(k):
        et = rng.randint(1, 10 ** rng.randint(1, 100))
        ut = et if equal else rng.randint(1, 10 ** rng.randint(1, 100))
        ec, uc = (rng.randint(0, t) if rng.random() < 0.7 else rng.choice((0, t)) for t in (et, ut))
        rows.append((ec, et, uc, ut))
    if rng.random() < 0.5:
        f = rng.randint(1, 1000)
        f = f if max(rows[0]) * f <= 10**100 else 1
        rows[-1] = tuple(f * c for c in rows[0])
    return _table_of(rows)


def test_confounding_matches_a_rational_oracle():
    rng = random.Random(2718)
    tables = [_large_table(rng, k) for k in range(2, 11) for _ in range(12)]
    tables += [random_table(rng, k) for k in range(2, 11) for _ in range(4)]
    huge = [_huge_table(random.Random(k * 100 + i), k) for k in range(2, 11) for i in range(12)]
    boundary = _exact_boundary_tables()
    for table in tables + huge + boundary:
        result = is_confounded(table)
        assert (result.confounded, result.distance) == _confounding_oracle(table), table
    exact = boundary[: len(boundary) // 2]
    for table in exact:
        result = is_confounded(table)
        assert (result.confounded, result.distance) == (False, 0.0)
    # on many of them a hull test in floating point would put the crude
    # point off the hull, at a distance of a few ulps
    rounded = [distance_to_hull(crude_point(t), standardized_hull(stratum_points(t))) for t in exact]
    assert sum(d > 0.0 for d in rounded) >= 3
    for group in (tables, huge):
        verdicts = [is_confounded(t) for t in group]
        assert any(r.confounded for r in verdicts) and not all(r.confounded for r in verdicts)


def test_confounding_work_at_a_thousand_strata_with_huge_totals(monkeypatch):
    """The exact hull test at K = 1000 with totals of 1e90-1e100 hands _cross
    integers of at most about three totals' length, K T^3, and calls it a
    few times per stratum."""
    rng = random.Random(1000)
    k = 1000
    rows = []
    for _ in range(k):
        et, ut = rng.randint(10**90, 10**100), rng.randint(10**90, 10**100)
        rows.append((rng.randint(0, et), et, rng.randint(0, ut), ut))
    table = _table_of(rows)
    largest = max(max(et, ut) for _, et, _, ut in rows)
    bound = 3 * largest.bit_length() + k.bit_length() + 1
    calls = []
    cross = standardize._cross

    def counted(o, a, b):
        # checked at each call: integers past the bound fail at the first one
        calls.append(max(abs(c).bit_length() for point in (o, a, b) for c in point if isinstance(c, int)))
        assert calls[-1] <= bound, (len(calls), calls[-1], bound)
        return cross(o, a, b)

    monkeypatch.setattr(standardize, "_cross", counted)
    is_confounded(table)
    assert 0 < len(calls) <= 5 * k


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


@pytest.mark.parametrize("measure", list(Measure))
def test_extremize_identical_points(measure):
    # the hull is one point, searched as the zero-length edge from it to itself
    for p in (RiskPoint(0.3, 0.4), RiskPoint(0.3, 0.0)):
        for k in (1, 2, 3):
            lo = extremize_standardized([p] * k, measure, "min")
            hi = extremize_standardized([p] * k, measure, "max")
            assert lo.value == hi.value == evaluate(measure, p)
            # ties go to the smallest weight vector: everything on the last stratum
            assert lo.weights == hi.weights == (0.0,) * (k - 1) + (1.0,)


def test_extremize_odds_ratio_with_zero_exposed_risk():
    # stratum points on y = 0, where the odds ratio is 0 and its gradient
    # needs its limit form
    for pts in (
        [RiskPoint(0.3, 0.0), RiskPoint(0.5, 0.2)],
        [RiskPoint(0.3, 0.0), RiskPoint(0.5, 0.0), RiskPoint(0.4, 0.3)],
    ):
        for objective in ("min", "max"):
            opt = extremize_standardized(pts, Measure.ODDS_RATIO, objective)
            grid = grid_extremize(pts, Measure.ODDS_RATIO, objective, resolution=0.01)
            assert opt.value == pytest.approx(grid.value, abs=1e-12)
            _assert_witness(pts, Measure.ODDS_RATIO, opt)


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
        # 501 501 pairs at K = 5, under the entry bound, but C(1004, 4) = 4.2e10
        # weight vectors to scan
        ([RiskPoint(0.1 + 0.15 * i, 0.2 + 0.15 * i) for i in range(5)], 0.001),
        # an infinite n at K = 5: the entry bound refuses it before the count
        ([RiskPoint(0.1 + 0.15 * i, 0.2 + 0.15 * i) for i in range(5)], 1e-300),
        # n = 25 at K = 12: 351 pairs and C(36, 11) = 6.0e8 weight vectors are
        # under both bounds, but the loop over the first nine weights would
        # take C(34, 9) = 5.2e7 passes
        ([RiskPoint(0.05 + 0.07 * i, 0.1 + 0.07 * i) for i in range(12)], 0.04),
    ],
    ids=["k2", "k3", "k5-points", "k5-entries", "k12-heads"],
)
def test_grid_oracle_refuses_a_lattice_over_the_bound(pts, resolution, monkeypatch):
    # numpy's own attributes, which the oracle reaches however it imports numpy
    for name in ("array", "arange", "repeat", "concatenate"):
        monkeypatch.setattr(np, name, _no_arrays)
    with pytest.raises(DomainError, match="too fine"):
        grid_extremize(pts, Measure.ODDS_RATIO, "min", resolution)


@pytest.mark.parametrize("k", [3, 4])
def test_grid_oracle_frees_its_lattice_without_the_cyclic_gc(k):
    """Reference counting alone frees the oracle's arrays: at 1/300 the two
    pair arrays hold 182 KB, and none of it may outlive the call. What may
    stay is Python's freelist of small tuples (14 KB of heads at K = 4)."""
    measure, pts = _oracle_points(k)
    grid_extremize(pts, measure, "min", 1 / 300)  # numpy's first-call allocations
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid_extremize(pts, measure, "min", 1 / 300)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < 64 * 1024


@pytest.mark.parametrize("k, resolution", [(2, 1e-6), (3, 0.001)])
def test_grid_oracle_working_set_is_set_by_the_tile(k, resolution):
    """The oracle's peak traced memory is at most 16 float64 arrays of one
    tile each, plus at K >= 3 its two int16 pair tables and a third of their
    length that building them holds for a moment. Evaluating each pass in
    one piece took 40 MB at K = 2 and 28-32 MB at K = 3."""
    measure, pts = _oracle_points(k)
    grid_extremize(pts, measure, "min", 0.1)  # numpy's first-call allocations
    n = round(1 / resolution)
    pairs = 0 if k == 2 else (n + 1) * (n + 2) // 2
    bound = 16 * standardize._GRID_TILE * 8 + 3 * pairs * 2
    tracemalloc.start()
    try:
        grid_extremize(pts, measure, "min", resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("tile", [1, 7, 64])
def test_first_min_picks_what_one_argmin_picks(tile, monkeypatch):
    """Across tiles the first minimum wins, the first NaN wins over every
    number, and -0.0 ties with 0.0."""
    monkeypatch.setattr(standardize, "_GRID_TILE", tile)
    rng = random.Random(35 + tile)
    choices = [-1.0, -0.0, 0.0, 1.0, 2.0, math.inf, math.nan]
    for _ in range(300):
        values = np.array([rng.choice(choices[: rng.randint(2, 7)]) for _ in range(rng.randint(1, 200))])
        for sign in (1, -1):
            want = int(np.argmin(sign * values))
            i, value = standardize._first_min(lambda lo, hi: values[lo:hi], len(values), sign)
            assert i == want
            assert repr(value) == repr(float(values[want]))


# powers of two: on the dyadic cases below every lattice point is exact
_TILE_RESOLUTION = {2: 1 / 512, 3: 1 / 32, 4: 1 / 16, 5: 1 / 8, 6: 1 / 8}


def _tile_cases(k: int) -> list[list[RiskPoint]]:
    rng = random.Random(3500 + k)
    p, q = (RiskPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(2))
    return [
        [RiskPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(k)],
        # duplicate strata: weight vectors that differ in which duplicate
        # they weight can tie
        [(p, q)[i % 2] for i in range(k)],
        [RiskPoint(0.25 + 0.125 * (i % 3), 0.5 + 0.125 * (i % 2)) for i in range(k)],
        # one exact value at every lattice point: each pass's first entry wins
        [RiskPoint(0.375, 0.625)] * k,
    ]


@pytest.mark.parametrize("tile", [1, 7, 64])
@pytest.mark.parametrize("k", sorted(_TILE_RESOLUTION))
def test_grid_oracle_answer_does_not_depend_on_the_tile(k, tile, monkeypatch):
    """Tiles of 1, 7 or 64 entries split each pass, and its exact ties, at
    other places than the default tile; value and weights are the same
    bits."""
    resolution = _TILE_RESOLUTION[k]
    cases = [(pts, m, o) for pts in _tile_cases(k) for m in Measure for o in ("min", "max")]
    want = [grid_extremize(pts, m, o, resolution) for pts, m, o in cases]
    monkeypatch.setattr(standardize, "_GRID_TILE", tile)
    for (pts, m, o), expected in zip(cases, want):
        got = grid_extremize(pts, m, o, resolution)
        assert got.value == expected.value and got.weights == expected.weights


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
    """The end points and one search for the derivative's root: at most 60
    measure evaluations and gradients per hull edge. An edge that does not
    search takes at most two gradients and two values, so a count above four
    shows that the search's gradients are counted."""
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
    assert max(per_edge) > 4


def _bisection_segment(points, measure, sign):
    """Reference edge search: bisection on the sign of the directional
    derivative to a bracket at most 1e-15 wide, its midpoint the candidate."""
    (x0, y0), (x1, y1) = ((p.x + 0.0, p.y + 0.0) for p in points)

    def at(w):
        return w * x0 + (1.0 - w) * x1, w * y0 + (1.0 - w) * y1

    def slope(w):
        gx, gy = _gradient_xy(measure, *at(w))
        return sign * (gx * (x0 - x1) + gy * (y0 - y1))

    candidates = [0.0, 1.0]
    lo, hi = 0.0, 1.0
    if slope(lo) < 0.0 < slope(hi):
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
        candidates.append(0.5 * (lo + hi))
    best = None
    for w in candidates:
        value, weights = sign * evaluate(measure, RiskPoint(*at(w))), (w, 1.0 - w)
        # values within 1e-12 tie, and a tie goes to the smaller weights
        if best is None or value < best[0] - 1e-12 or (abs(value - best[0]) <= 1e-12 and weights < best[1]):
            best = (value, weights)
    return standardize.ExtremeResult(sign * best[0], best[1])


# how much less extreme than the grid oracle an extremization may be, as a
# share of the oracle's value, and the oracle's steps per unit weight by K:
# the bounds the benchmark checks its geometry jobs with
ORACLE_REL_TOL = 1e-9
_GEOMETRY_ORACLE_STEPS = {2: 10000, 3: 300, 4: 60, 5: 25, 6: 10, 7: 7, 8: 6, 9: 5, 10: 4}


def _edge_search_inputs():
    """Restricted fitted points under each measure's link, and observed
    stratum points, of seeded tables with K = 2 to 10 and totals up to 1e5."""
    rng = random.Random(1971)
    out = []
    for k in range(2, 11):
        for _ in range(3):
            table = random_table(rng, k, max_total=100_000, interior=True)
            for measure in Measure:
                fitted = fit(table, ModelSpec(link_for_measure(measure), interaction=False)).fitted_points
                out.append((measure, list(fitted)))
            out += [(m, stratum_points(table)) for m in (Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO)]
    return out


def test_edge_search_is_short_and_matches_bisection(measure_calls, monkeypatch):
    """An edge whose derivative changes sign takes at most 36 gradients,
    where bisection to 1e-15 took 52, and lands within 2e-15 relative of
    bisection's optimum; no optimum is less extreme than the grid oracle's
    beyond the benchmark's tolerance."""
    search, per_edge = standardize._extremize_segment, []

    def counted(points, measure, sign):
        before = len(measure_calls)
        res = search(points, measure, sign)
        per_edge.append(measure_calls[before:].count("_gradient_xy"))
        return res

    for measure, pts in _edge_search_inputs():
        for objective, sign in (("min", 1), ("max", -1)):
            monkeypatch.setattr(standardize, "_extremize_segment", counted)
            res = extremize_standardized(pts, measure, objective)
            monkeypatch.setattr(standardize, "_extremize_segment", _bisection_segment)
            ref = extremize_standardized(pts, measure, objective)
            assert res.value == pytest.approx(ref.value, rel=2e-15, abs=0.0)
            grid = grid_extremize(pts, measure, objective, 1.0 / _GEOMETRY_ORACLE_STEPS[len(pts)])
            assert sign * (res.value - grid.value) <= ORACLE_REL_TOL * abs(grid.value)
    interior = [n for n in per_edge if n > 2]
    assert len(interior) > 100
    assert max(interior) <= 36


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


# sha256 over the sweep tables' restricted fitted points under each measure
# of the repr of each verdict, or of the name of the error it raises: the
# bits of every value and weight, as SWEEP_SHA256 pins the figures' bytes.
# Re-recorded when the edge search went from bisection to the Illinois
# method: 34 of these 120 reports changed in their last bits. Over the
# benchmark's seed 1-10 geometry plans (four blocks each, 3520 extremum
# values) 623 values moved, by at most 1.1e-15 relative, 262 of them to
# less extreme ones, and 852 weight vectors moved.
# Re-recorded when the restricted fit's only fallback became the profile
# maximum started from the data: 11 reports moved with the fitted points
# of these fits (see SWEEP_SHA256 in test_render.py for their b1 and
# loglik): tables 3, 7, 14 and 15 under the risk ratio, 7, 11, 17, 18 and
# 19 under the risk difference, and 24 and 26 under the cumulative hazard
# ratio.
# Re-recorded with the step-growth rule and the ascent's boundary rule (see
# SWEEP_SHA256): the risk-ratio reports of tables 3, 15 and 18 moved with
# their log fits, in the last bits of their values and, for 3 and 15, in
# which stratum's weight vector attains them; the risk-ratio, odds-ratio
# and cumulative-hazard-ratio reports of table 13 and the odds-ratio and
# cumulative-hazard-ratio reports of table 19 moved with the point of the
# stratum put at 1e-13, their extremes by up to 2.2e-6 relative. No verdict
# changed.
# Re-recorded when the verdict read stratum values as on one contour within
# their points' rounding (see _share_a_level): 12 reports of fits with a
# point at 1e-13 or 1 - 1e-13, each refused as modification before, now
# read attenuated-toward-null: tables 16, 27 and 28 under the odds ratio
# and the cumulative hazard ratio, and 22, 24, 25, 26 and 29 under the odds
# ratio. Their odds ratios spread by up to 1.3e-3 relative, about one ulp
# of such a point's 1 - p. No other report moved.
VERDICT_SHA256 = "7a2ecb0daf1cd44cd25e692057a9650691ea80be4f5ec2168195c2a736cec2a4"


def test_collapsibility_verdicts_digest():
    digest = hashlib.sha256()
    for table in sweep_tables():
        for measure in Measure:
            fitted = fit(table, ModelSpec(link_for_measure(measure), interaction=False)).fitted_points
            try:
                out = repr(collapsibility_verdict(list(fitted), measure))
            except RothmanError as exc:
                out = type(exc).__name__
            digest.update(f"{out}\0".encode())
    assert digest.hexdigest() == VERDICT_SHA256


def test_verdict_refuses_a_standardized_range_outside_null_and_strata(newcastle, monkeypatch):
    # every standardized value lies between the null and the stratum values,
    # so an extremum outside that interval is refused, not classified
    fitted = fit(newcastle, ModelSpec(LinkFunction.LOGIT, interaction=False)).fitted_points
    values = {"min": 0.5, "max": 2.0}
    monkeypatch.setattr(
        standardize,
        "extremize_standardized",
        lambda points, measure, objective: standardize.ExtremeResult(values[objective], (1.0, 0.0)),
    )
    with pytest.raises(DomainError, match=r"^standardized odds ratio range \[0\.5, 2\.0\] escapes the interval"):
        collapsibility_verdict(list(fitted), Measure.ODDS_RATIO)


@settings(max_examples=50, deadline=None)
@given(table=extreme_tables())
def test_no_interaction_fits_near_the_bounds_get_a_verdict(table):
    # near a risk of 0 or 1 the rounding of a fitted p alone spreads the
    # odds ratios of one fit's points by up to about 1e-4 relative and the
    # cumulative hazard ratios by about 1e-6: a 1e-9 test refused such fits
    # as modification
    for measure in Measure:
        restricted = fit(table, ModelSpec(link_for_measure(measure), interaction=False))
        if not restricted.boundary_warning:
            collapsibility_verdict(list(restricted.fitted_points), measure)


@pytest.mark.parametrize("measure", list(Measure))
def test_values_a_millionth_apart_far_from_the_bounds_are_refused(measure):
    # with every risk in [0.02, 0.95] the rounding allowance is below 1e-12,
    # so moving one point to a contour 1e-6 away still reads as modification
    rng = random.Random(70)
    for k in range(2, 8):
        m = rng.uniform(-0.3, 0.3) if measure is Measure.RISK_DIFFERENCE else rng.uniform(0.3, 3.0)
        points = points_on_contour(rng, measure, m, k, y_cap=0.95)
        collapsibility_verdict(points, measure)
        apart = ContourValue(measure, m + 1e-6 if measure is Measure.RISK_DIFFERENCE else m * (1.0 + 1e-6))
        x = points[-1].x
        with pytest.raises(ModificationError):
            collapsibility_verdict(points[:-1] + [RiskPoint(x, contour_y(apart, x))], measure)


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


_ONE_STRATUM = StratifiedTable((Stratum("s0", exposed=CellCounts(1, 2), unexposed=CellCounts(1, 3)),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StandardDistribution(()), "a standard distribution needs at least one weight"),
        (lambda: uniform_distribution(0), "a standard distribution needs at least one weight"),
        (lambda: standardized_hull([]), "need at least one point"),
        (lambda: is_confounded(_ONE_STRATUM), "confounding analysis needs at least two strata"),
        (lambda: extremize_standardized([], Measure.ODDS_RATIO, "min"), "need at least one point"),
        (lambda: grid_extremize([], Measure.ODDS_RATIO, "min"), "need at least one point"),
        (lambda: collapsibility_verdict([], Measure.ODDS_RATIO), "need at least one point"),
    ],
    ids=["empty-distribution", "uniform-0", "hull", "confounding-k1", "extremize", "grid", "verdict"],
)
def test_empty_inputs_are_refused(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


@pytest.mark.parametrize("measure", [Measure.RISK_RATIO, Measure.CUMULATIVE_HAZARD_RATIO])
def test_extremize_a_point_whose_gradient_underflows(measure):
    # the one-point hull is the zero-length edge (0, 0), searched with the
    # measure's gradient, whose d/dx is the -inf limit at so small an x
    point = RiskPoint(1e-170, 0.5)
    for objective in ("min", "max"):
        result = extremize_standardized([point], measure, objective)
        assert result.weights == (1.0,)
        assert result.value == evaluate(measure, point)



def test_extremize_ties_are_relative_to_the_values():
    # the logit fit puts stratum s0's point at an odds ratio of 1.0e-26 and
    # the other two near 5e-14: an absolute tie of 1e-12 made all three
    # equal, and the smallest weight vector, on the last stratum, won
    table = StratifiedTable((
        Stratum("s0", exposed=CellCounts(0, 2), unexposed=CellCounts(154979, 154979)),
        Stratum("s1", exposed=CellCounts(147888, 612321), unexposed=CellCounts(6, 6)),
        Stratum("s2", exposed=CellCounts(1, 3), unexposed=CellCounts(1, 1)),
    ))
    points = list(fit(table, ModelSpec(LinkFunction.LOGIT, interaction=False)).fitted_points)
    values = [evaluate(Measure.ODDS_RATIO, p) for p in points]
    assert values[0] < 1e-20 < min(values[1:])
    lo = extremize_standardized(points, Measure.ODDS_RATIO, "min")
    hi = extremize_standardized(points, Measure.ODDS_RATIO, "max")
    assert lo.value == values[0] and lo.weights == (1.0, 0.0, 0.0)
    assert hi.value >= max(values)
    # the three points lie on different contours, whatever their values'
    # absolute range: the verdict is refused as modification
    with pytest.raises(ModificationError):
        collapsibility_verdict(points, Measure.ODDS_RATIO)


def _table(rows):
    return StratifiedTable(tuple(
        Stratum(label, exposed=CellCounts(a, n1), unexposed=CellCounts(b, n0)) for label, a, n1, b, n0 in rows
    ))


@pytest.mark.parametrize("measure", [Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO])
def test_fitted_points_at_large_ratios_share_one_contour(measure):
    # the logit fit's two odds ratios, 75762566.8534752 and
    # 75762566.85339998, are 9.9e-13 apart relative and 7.5e-8 absolute,
    # so an absolute 1e-9 refused them as modification; the cloglog fit's
    # hazard ratios near 89392.574 likewise
    table = _table([("a", 9999, 10000, 1, 10000), ("b", 19997, 20000, 2, 20000)])
    points = list(fit(table, ModelSpec(link_for_measure(measure), interaction=False)).fitted_points)
    report = collapsibility_verdict(points, measure)
    assert report.verdict is Verdict.ATTENUATED_TOWARD_NULL
    assert report.maximum.value == pytest.approx(report.common_value, rel=1e-9)
    assert report.minimum.value < report.common_value


def test_hazard_ratio_verdict_on_three_fitted_points():
    # cloglog fit of a fit-strata plan table: its three hazard ratios near
    # 101.133 are 1.9e-10 apart relative, and the fit is not on a boundary
    table = _table([("s1", 2961, 21244, 90, 1088), ("s2", 25865, 25865, 1312, 25703), ("s3", 12, 22, 509, 2023)])
    restricted = fit(table, ModelSpec(LinkFunction.CLOGLOG, interaction=False))
    assert not restricted.boundary_warning
    report = collapsibility_verdict(list(restricted.fitted_points), Measure.CUMULATIVE_HAZARD_RATIO)
    assert report.verdict is Verdict.ATTENUATED_TOWARD_NULL
    assert report.common_value == pytest.approx(101.133, abs=5e-4)
    assert report.minimum.value == pytest.approx(9.446, abs=5e-4)
    assert report.minimum.weights == pytest.approx((0.593, 0.0, 0.407), abs=5e-4)
