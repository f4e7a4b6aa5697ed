import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rothman.errors import ContourRangeError, DomainError
from rothman.measures import (
    ContourValue,
    Measure,
    _same_level,
    contour_polyline,
    contour_y,
    evaluate,
    gradient,
    is_straight,
    is_straight_at,
    null_value,
    valid_x_interval,
)
from rothman.tables import RiskPoint, newcastle_fixture, stratum_points

RATIO_MEASURES = (Measure.RISK_RATIO, Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO)


def test_odds_ratio_at_younger_stratum():
    p = stratum_points(newcastle_fixture())[0]
    assert evaluate(Measure.ODDS_RATIO, p) == pytest.approx(1.622, abs=5e-4)


def test_cumulative_hazard_ratio_at_older_stratum():
    p = stratum_points(newcastle_fixture())[1]
    assert evaluate(Measure.CUMULATIVE_HAZARD_RATIO, p) == pytest.approx(1.008, abs=5e-4)


@given(st.floats(1e-6, 1.0 - 1e-6), st.sampled_from(list(Measure)))
def test_null_line_gives_null_value(t, measure):
    assert evaluate(measure, RiskPoint(t, t)) == pytest.approx(null_value(measure), abs=1e-12)


def test_null_values():
    assert null_value(Measure.RISK_DIFFERENCE) == 0.0
    assert null_value(Measure.RISK_RATIO) == 1.0
    assert null_value(Measure.ODDS_RATIO) == 1.0
    assert null_value(Measure.CUMULATIVE_HAZARD_RATIO) == 1.0


@pytest.mark.parametrize(
    "measure,point",
    [
        (Measure.RISK_RATIO, RiskPoint(0.0, 0.5)),
        (Measure.ODDS_RATIO, RiskPoint(0.0, 0.5)),
        (Measure.ODDS_RATIO, RiskPoint(1.0, 0.5)),
        (Measure.ODDS_RATIO, RiskPoint(0.5, 1.0)),
        (Measure.CUMULATIVE_HAZARD_RATIO, RiskPoint(1.0, 0.5)),
        (Measure.CUMULATIVE_HAZARD_RATIO, RiskPoint(0.5, 1.0)),
        (Measure.CUMULATIVE_HAZARD_RATIO, RiskPoint(0.0, 0.5)),
    ],
)
def test_evaluate_domain_errors(measure, point):
    with pytest.raises(DomainError):
        evaluate(measure, point)


def test_risk_difference_is_total():
    assert evaluate(Measure.RISK_DIFFERENCE, RiskPoint(0.0, 1.0)) == 1.0
    assert evaluate(Measure.RISK_DIFFERENCE, RiskPoint(1.0, 0.0)) == -1.0


def test_contour_value_level_ranges():
    with pytest.raises(DomainError):
        ContourValue(Measure.RISK_DIFFERENCE, 1.5)
    with pytest.raises(DomainError):
        ContourValue(Measure.RISK_RATIO, -0.1)
    ContourValue(Measure.RISK_DIFFERENCE, -1.0)
    ContourValue(Measure.ODDS_RATIO, 0.0)


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("measure", list(Measure))
def test_contour_value_rejects_non_finite_levels(measure, m):
    # a NaN level passes a sign test, and contour_y's clamp would turn its
    # NaN ordinates into 0
    with pytest.raises(DomainError, match="finite"):
        ContourValue(measure, m)


def test_odds_ratio_gradient_at_zero_exposed_risk():
    # d OR / dy = ((1 - x) / x) / (1 - y)^2, which the v / y form leaves as 0 / 0
    for x in (0.1, 0.3, 0.9):
        assert gradient(Measure.ODDS_RATIO, RiskPoint(x, 0.0)) == (-0.0, (1.0 - x) / x)
        h = 1e-7
        slope = evaluate(Measure.ODDS_RATIO, RiskPoint(x, h)) / h
        assert gradient(Measure.ODDS_RATIO, RiskPoint(x, 0.0))[1] == pytest.approx(slope, rel=1e-6)


@pytest.mark.parametrize("measure", [Measure.RISK_RATIO, Measure.CUMULATIVE_HAZARD_RATIO])
def test_ratio_gradient_where_the_square_of_x_underflows(measure):
    # below x ~ 1.6e-162, x * x (RR) and log(1 - x)^2 (CHR) are 0: d/dx takes
    # its limit, -inf for y > 0 and 0 at y = 0, and d/dy stays finite
    for y, limit in ((0.5, -math.inf), (0.0, 0.0)):
        dx, dy = gradient(measure, RiskPoint(1e-170, y))
        assert dx == limit and math.isfinite(dy) and dy > 0.0
    # just above the underflow the quotient itself is returned
    dx, _ = gradient(measure, RiskPoint(1e-150, 0.5))
    assert dx == pytest.approx(-0.5e300 if measure is Measure.RISK_RATIO else math.log(0.5) * 1e300, rel=1e-12)


def test_contour_y_closed_forms():
    assert contour_y(ContourValue(Measure.RISK_DIFFERENCE, 0.2), 0.3) == pytest.approx(0.5, abs=1e-15)
    assert contour_y(ContourValue(Measure.ODDS_RATIO, 1.0), 0.37) == pytest.approx(0.37, abs=1e-15)
    assert contour_y(ContourValue(Measure.CUMULATIVE_HAZARD_RATIO, 2.0), 0.19) == pytest.approx(
        1 - 0.81**2, abs=1e-12
    )


def test_contour_y_range_error():
    with pytest.raises(ContourRangeError):
        contour_y(ContourValue(Measure.RISK_DIFFERENCE, 0.5), 0.8)
    with pytest.raises(ContourRangeError):
        contour_y(ContourValue(Measure.RISK_RATIO, 3.0), 0.5)


def test_contour_y_chr_continuous_extension_at_zero():
    assert contour_y(ContourValue(Measure.CUMULATIVE_HAZARD_RATIO, 2.5), 0.0) == 0.0


def test_polyline_degenerate_extreme_risk_difference():
    pts = contour_polyline(ContourValue(Measure.RISK_DIFFERENCE, 1.0), 2)
    assert pts == [RiskPoint(0.0, 1.0)]


def test_polyline_risk_ratio_clipped_at_top():
    pts = contour_polyline(ContourValue(Measure.RISK_RATIO, 2.0), 3)
    assert [(p.x, p.y) for p in pts] == [(0.0, 0.0), (0.25, 0.5), (0.5, 1.0)]


def test_polyline_self_check_odds_ratio():
    c = ContourValue(Measure.ODDS_RATIO, 1.537)
    pts = contour_polyline(c, 101)
    assert len(pts) == 101
    for p in pts:
        if 0.0 < p.x < 1.0 and p.y < 1.0:
            assert evaluate(Measure.ODDS_RATIO, p) == pytest.approx(1.537, abs=1e-12)


def test_polyline_needs_two_samples():
    with pytest.raises(DomainError):
        contour_polyline(ContourValue(Measure.RISK_RATIO, 2.0), 1)


SAMPLER_LEVELS = [
    # interior levels and the null level
    (Measure.RISK_DIFFERENCE, 0.1),
    (Measure.RISK_DIFFERENCE, 0.0),
    (Measure.RISK_RATIO, 1.5),
    (Measure.RISK_RATIO, 1.0),
    (Measure.ODDS_RATIO, 1.537),
    (Measure.ODDS_RATIO, 1.0),
    (Measure.CUMULATIVE_HAZARD_RATIO, 1.316),
    (Measure.CUMULATIVE_HAZARD_RATIO, 1.0),
    # contours that meet the frame
    (Measure.RISK_DIFFERENCE, 0.25),
    (Measure.RISK_DIFFERENCE, -0.25),
    (Measure.RISK_RATIO, 4.0),
    (Measure.RISK_RATIO, 0.5),
    # single-point intervals
    (Measure.RISK_DIFFERENCE, 1.0),
    (Measure.RISK_DIFFERENCE, -1.0),
    # tops inside the renderer's TOP_EDGE_INSET of y = 1, and the zero level
    (Measure.ODDS_RATIO, 4.0),
    (Measure.ODDS_RATIO, 50.0),
    (Measure.ODDS_RATIO, 0.0),
    (Measure.CUMULATIVE_HAZARD_RATIO, 4.0),
    (Measure.CUMULATIVE_HAZARD_RATIO, 0.25),
    (Measure.CUMULATIVE_HAZARD_RATIO, 0.0),
]


@pytest.mark.parametrize("measure, m", SAMPLER_LEVELS)
def test_polyline_vertices_are_contour_y_exactly(measure, m):
    c = ContourValue(measure, m)
    lo, hi = valid_x_interval(c)
    step = (hi - lo) / 200
    xs = [lo] if lo == hi else [lo + i * step for i in range(200)] + [hi]
    pts = contour_polyline(c, 201)
    assert [(p.x, p.y) for p in pts] == [(x, contour_y(c, x)) for x in xs]


def test_valid_x_interval():
    assert valid_x_interval(ContourValue(Measure.RISK_DIFFERENCE, 0.25)) == (0.0, 0.75)
    assert valid_x_interval(ContourValue(Measure.RISK_DIFFERENCE, -0.25)) == (0.25, 1.0)
    assert valid_x_interval(ContourValue(Measure.RISK_RATIO, 4.0)) == (0.0, 0.25)
    assert valid_x_interval(ContourValue(Measure.ODDS_RATIO, 4.0)) == (0.0, 1.0)
    assert valid_x_interval(ContourValue(Measure.CUMULATIVE_HAZARD_RATIO, 0.5)) == (0.0, 1.0)


def test_straightness_classification():
    assert is_straight(Measure.RISK_DIFFERENCE)
    assert is_straight(Measure.RISK_RATIO)
    assert not is_straight(Measure.ODDS_RATIO)
    assert not is_straight(Measure.CUMULATIVE_HAZARD_RATIO)
    assert not is_straight_at(ContourValue(Measure.ODDS_RATIO, 2.0))
    assert is_straight_at(ContourValue(Measure.CUMULATIVE_HAZARD_RATIO, 1.0))
    assert is_straight_at(ContourValue(Measure.RISK_DIFFERENCE, 0.73))


# --- properties --------------------------------------------------------------


def _level_strategy(measure):
    if measure is Measure.RISK_DIFFERENCE:
        return st.floats(-0.98, 0.98)
    return st.floats(0.05, 20.0)


@given(st.sampled_from(list(Measure)), st.data())
def test_round_trip_evaluate_of_contour_y(measure, data):
    m = data.draw(_level_strategy(measure))
    x = data.draw(st.floats(0.01, 0.9))
    c = ContourValue(measure, m)
    try:
        y = contour_y(c, x)
    except ContourRangeError:
        assume(False)
    p = RiskPoint(x, y)
    assume(0.0 < y < 0.99)
    assert evaluate(measure, p) == pytest.approx(m, abs=1e-10)


@st.composite
def _two_levels_at_one_x(draw):
    measure = draw(st.sampled_from(list(Measure)))
    return measure, draw(_level_strategy(measure)), draw(_level_strategy(measure)), draw(st.floats(0.01, 0.99))


@given(_two_levels_at_one_x())
@example((Measure.CUMULATIVE_HAZARD_RATIO, 8.0, 7.9375, 0.9899999999999999))
def test_contours_never_intersect(case):
    measure, m1, m2, x = case
    assume(abs(m1 - m2) > 1e-6)
    try:
        y1 = contour_y(ContourValue(measure, m1), x)
        y2 = contour_y(ContourValue(measure, m2), x)
    except ContourRangeError:
        assume(False)
    # clipping at the top edge may merge them, and so may rounding next to
    # it: there the two levels' gap in y shrinks with 1 - y, to 1e-8 (1 - y)
    # for levels 1e-6 apart and at most 20 at x >= 0.01, under the spacing
    # of floats below 1 once 1 - y is below about 1e-8 (CHR 8 and 7.9375 at
    # x = 0.99 both give the largest float below 1)
    assume(y1 < 1.0 - 1e-6 and y2 < 1.0 - 1e-6)
    assert y1 != y2


@given(st.sampled_from(RATIO_MEASURES), st.data())
def test_contour_y_strictly_increasing(measure, data):
    m = data.draw(st.floats(1e-3, 20.0))
    c = ContourValue(measure, m)
    lo, hi = valid_x_interval(c)
    x1 = data.draw(st.floats(lo, hi))
    x2 = data.draw(st.floats(lo, hi))
    assume(abs(x2 - x1) > 1e-6)
    x1, x2 = min(x1, x2), max(x1, x2)
    y1, y2 = contour_y(c, x1), contour_y(c, x2)
    assert y1 <= y2
    if measure is Measure.CUMULATIVE_HAZARD_RATIO:
        # the curve is numerically flat where (1-x)^m underflows next to 1
        analytic_gap = (1.0 - x1) ** m - (1.0 - x2) ** m
        if analytic_gap > 1e-12:
            assert y1 < y2
    else:
        assert y1 < y2


@given(st.sampled_from([Measure.RISK_DIFFERENCE, Measure.RISK_RATIO]), st.data())
def test_midpoint_stays_on_straight_contours(measure, data):
    m = data.draw(_level_strategy(measure))
    c = ContourValue(measure, m)
    lo, hi = valid_x_interval(c)
    x1 = data.draw(st.floats(lo, hi))
    x2 = data.draw(st.floats(lo, hi))
    if measure is Measure.RISK_RATIO:
        assume(min(x1, x2) > 1e-3)
    mid = RiskPoint(0.5 * (x1 + x2), 0.5 * (contour_y(c, x1) + contour_y(c, x2)))
    assert evaluate(measure, mid) == pytest.approx(m, abs=1e-10)


@given(
    st.sampled_from([Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO]),
    st.floats(1.05, 10.0),
    st.data(),
)
def test_midpoint_attenuates_on_curved_contours(measure, m, data):
    c = ContourValue(measure, m)
    x1 = data.draw(st.floats(0.02, 0.95))
    x2 = data.draw(st.floats(0.02, 0.95))
    assume(abs(x2 - x1) > 1e-3)
    y1, y2 = contour_y(c, x1), contour_y(c, x2)
    assume(max(y1, y2) < 1.0 - 1e-9)
    mid = RiskPoint(0.5 * (x1 + x2), 0.5 * (y1 + y2))
    value = evaluate(measure, mid)
    assert 1.0 < value < m


@pytest.mark.parametrize("measure, u, v, same", [
    (Measure.RISK_DIFFERENCE, 0.5, 0.5 + 9e-10, True),
    (Measure.RISK_DIFFERENCE, 0.5, 0.5 + 1.1e-9, False),
    (Measure.ODDS_RATIO, 75762566.8534752, 75762566.85339998, True),
    (Measure.ODDS_RATIO, 1.0e-26, 5.0e-14, False),
    (Measure.RISK_RATIO, 2.0, 2.0 * (1.0 + 2e-9), False),
    (Measure.CUMULATIVE_HAZARD_RATIO, 0.0, 0.0, True),
    (Measure.CUMULATIVE_HAZARD_RATIO, 0.0, 1e-300, False),
])
def test_one_contour_level_is_decided_on_the_link_scale(measure, u, v, same):
    assert _same_level(measure, u, v) is same
    assert _same_level(measure, v, u) is same


@pytest.mark.parametrize("x", [-0.5, 1.5, math.nan])
def test_contour_y_refuses_an_x_off_the_unit_interval(x):
    with pytest.raises(DomainError) as info:
        contour_y(ContourValue(Measure.RISK_RATIO, 2.0), x)
    assert type(info.value) is DomainError and str(info.value) == f"x must be in [0, 1], got {x}"
