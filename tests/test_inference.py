import itertools
import math
import random
import types
import warnings

import numpy as np
import pytest

from rothman import inference, render
from rothman.errors import ConvergenceError, DomainError
from rothman.inference import (
    LinkFunction,
    ModelSpec,
    chi2_quantile,
    chi2_sf,
    common_measure,
    design_matrix,
    fit,
    link_for_measure,
    loglik,
    loglik_at,
    lr_test_interaction,
    measure_for_link,
    profile_ci,
    profile_loglik,
    profile_loglik_slope,
    score,
)
from rothman.measures import Measure, evaluate, null_value
from rothman.tables import (
    CellCounts,
    RiskPoint,
    StratifiedTable,
    Stratum,
    newcastle_fixture,
    parse_table,
    stratum_points,
)

from conftest import random_table, synthetic_four_strata

ALL_LINKS = list(LinkFunction)

# reference estimates for the Newcastle table (3-decimal rounding)
STRATUM_TARGETS = {
    LinkFunction.IDENTITY: (0.061, 0.002),
    LinkFunction.LOGIT: (1.622, 1.018),
    LinkFunction.LOG: (1.509, 1.003),
    LinkFunction.CLOGLOG: (1.563, 1.008),
}
COMMON_TARGETS = {
    LinkFunction.IDENTITY: 0.052,
    LinkFunction.LOGIT: 1.537,
    LinkFunction.LOG: 1.062,
    LinkFunction.CLOGLOG: 1.316,
}
P_TARGETS = {
    LinkFunction.IDENTITY: 0.300,
    LinkFunction.LOGIT: 0.353,
    LinkFunction.LOG: 0.010,
    LinkFunction.CLOGLOG: 0.085,
}
CSV_HEADER = "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n"
# interior, totals up to 16,158: |loglik| is about 2.6e4, where one ulp of
# the log-likelihood exceeds an absolute 1e-12 stall tolerance
LARGE_K10_CSV = CSV_HEADER + (
    "s1,195,2543,309,1647\ns2,1,35,126,3582\ns3,1314,4541,5851,10325\n"
    "s4,503,16158,3,37\ns5,1695,10986,1018,2654\ns6,512,4778,4,42\n"
    "s7,32,1786,1,65\ns8,4,20,76,187\ns9,24,121,31,172\ns10,74,490,877,6751\n"
)

# both cells of s1 full: under cloglog s1 carries no information on b1
FULL_STRATUM_CSV = CSV_HEADER + "s1,30,30,50,50\ns2,40,200,20,200\n"
# a full unexposed cell beside an exposed cell with one case
FULL_UNEXPOSED_K2_CSV = CSV_HEADER + "s1,1,34,35726,35726\ns2,1,129,62,1197\n"
# K = 10 with a full cell, from a benchmark plan
FULL_CELL_K10_CSV = CSV_HEADER + (
    "s1,503,5249,10359,10359\ns2,3,116,172,8620\ns3,2869,4439,23,44\n"
    "s4,170,7797,7,543\ns5,6559,10401,13,25\ns6,61,141,8062,20129\n"
    "s7,3,419,111,5965\ns8,11200,47506,25,103\ns9,83,2151,1,27\n"
    "s10,770,5550,21,219\n"
)
# under cloglog the 0.9999 upper endpoint lies near 29426, far past the estimate
ONE_CASE_K1_CSV = CSV_HEADER + "s1,1,23,1,86\n"
# from benchmark plans, restricted MLEs with a cell at p = 0 or 1: s3's
# exposed p is 0 under identity, and s2's unexposed p is 1 under log; the
# K = 4 table has a full unexposed cell beside three interior strata
ZERO_EXPOSED_K3_CSV = CSV_HEADER + "s1,4980,79356,7008,25122\ns2,1,23,5689,62751\ns3,0,946,230,1964\n"
FULL_UNEXPOSED_LOG_K2_CSV = CSV_HEADER + "s1,541,2338,4,22\ns2,2,32,13128,13128\n"
FULL_UNEXPOSED_K4_CSV = CSV_HEADER + "s1,11,79,5315,23553\ns2,3259,5326,143,276\ns3,21,583,7529,7529\ns4,2,44,164,8207\n"
# identity MLEs with s2's exposed p at 0, where the Newton ascent ends
# 1.0e-3 and 1.3e-2 below the maximum with no feasible ascent step left
ZERO_EXPOSED_K2_CSV = CSV_HEADER + "s1,22,93,1390,6241\ns2,0,6315,18,138\n"
ZERO_EXPOSED_LARGE_K2_CSV = CSV_HEADER + "s1,35483,45397,48,82\ns2,0,13684,139,684\n"

CI_TARGETS = {
    LinkFunction.IDENTITY: (0.013, 0.091),
    LinkFunction.LOGIT: (1.119, 2.125),
    LinkFunction.LOG: (0.952, 1.166),
    LinkFunction.CLOGLOG: (1.034, 1.676),
}


def test_link_measure_pairing():
    assert measure_for_link(LinkFunction.IDENTITY) is Measure.RISK_DIFFERENCE
    assert measure_for_link(LinkFunction.LOG) is Measure.RISK_RATIO
    assert measure_for_link(LinkFunction.LOGIT) is Measure.ODDS_RATIO
    assert measure_for_link(LinkFunction.CLOGLOG) is Measure.CUMULATIVE_HAZARD_RATIO
    for link in ALL_LINKS:
        assert link_for_measure(measure_for_link(link)) is link


def test_loglik_single_cell_value():
    # the (0, 1) unexposed cell at probability 1e-12 contributes ~0, leaving
    # the documented 10*ln(0.5) for the (5, 10) cell
    table = StratifiedTable((Stratum("a", CellCounts(5, 10), CellCounts(0, 1)),))
    assert loglik(table, (0.5, 1e-12)) == pytest.approx(10 * math.log(0.5), abs=1e-9)
    assert 10 * math.log(0.5) == pytest.approx(-6.9315, abs=1e-4)


def test_loglik_maximized_at_empirical_risks(newcastle):
    empirical = []
    for s in newcastle.strata:
        empirical += [s.exposed.cases / s.exposed.total, s.unexposed.cases / s.unexposed.total]
    best = loglik(newcastle, empirical)
    rng = random.Random(1)
    for _ in range(50):
        i = rng.randrange(4)
        bump = rng.choice([-0.01, 0.01])
        perturbed = list(empirical)
        perturbed[i] += bump
        assert loglik(newcastle, perturbed) < best


def test_loglik_rejects_boundary_probabilities(newcastle):
    with pytest.raises(DomainError):
        loglik(newcastle, (0.5, 0.5, 0.5, 1.0))
    with pytest.raises(DomainError):
        loglik(newcastle, (0.0, 0.5, 0.5, 0.5))
    with pytest.raises(DomainError):
        loglik(newcastle, (0.5, 0.5, 0.5))


@pytest.mark.parametrize("link", ALL_LINKS)
def test_saturated_fit_reproduces_empirical_points(newcastle, link):
    result = fit(newcastle, ModelSpec(link, interaction=True))
    for fitted, observed in zip(result.fitted_points, stratum_points(newcastle)):
        assert fitted.x == pytest.approx(observed.x, abs=1e-8)
        assert fitted.y == pytest.approx(observed.y, abs=1e-8)


def _saturated_loglik(table) -> float:
    """sum of y log(y/n) + (n - y) log(1 - y/n) over cells, 0 log 0 = 0"""
    terms = []
    for s in table.strata:
        for c in (s.exposed, s.unexposed):
            if c.cases:
                terms.append(c.cases * math.log(c.cases / c.total))
            if c.cases < c.total:
                terms.append((c.total - c.cases) * math.log1p(-c.cases / c.total))
    return math.fsum(terms)


@pytest.mark.parametrize("k", ["newcastle", "four-strata", *range(2, 11)])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_saturated_fit_is_closed_form(link, k):
    table = _table(k)
    result = fit(table, ModelSpec(link, interaction=True))
    expected = _saturated_loglik(table)
    assert abs(result.loglik - expected) <= 8 * math.ulp(expected)
    assert result.iterations == 0 and result.gradient_norm == 0.0


@pytest.mark.parametrize("link", ALL_LINKS)
def test_saturated_fit_flags_empty_cells_under_every_link(link):
    table = parse_table(CSV_HEADER + "s1,0,10,0,10\ns2,3,10,5,10\n")
    result = fit(table, ModelSpec(link, interaction=True))
    assert result.boundary_warning
    # the fitted points are the clipped empirical risks themselves, not
    # probabilities recomputed from coefficients relative to s1's eta near -30
    assert result.fitted_points == (RiskPoint(1e-13, 1e-13), RiskPoint(0.5, 0.3))
    assert result.loglik == _saturated_loglik(table)


@pytest.mark.parametrize("link", ALL_LINKS)
def test_stratum_estimates_match_reference(newcastle, link):
    measure = measure_for_link(link)
    result = fit(newcastle, ModelSpec(link, interaction=True))
    values = [evaluate(measure, p) for p in result.fitted_points]
    assert round(values[0], 3) == STRATUM_TARGETS[link][0]
    assert round(values[1], 3) == STRATUM_TARGETS[link][1]


@pytest.mark.parametrize("link", ALL_LINKS)
def test_common_estimates_match_reference(newcastle, link):
    result = fit(newcastle, ModelSpec(link, interaction=False))
    assert round(common_measure(result), 3) == COMMON_TARGETS[link]


def test_common_measure_requires_restricted_fit(newcastle):
    saturated = fit(newcastle, ModelSpec(LinkFunction.LOGIT, interaction=True))
    with pytest.raises(ValueError):
        common_measure(saturated)


def test_common_measure_null_data():
    table = StratifiedTable(
        (
            Stratum("a", exposed=CellCounts(3, 10), unexposed=CellCounts(3, 10)),
            Stratum("b", exposed=CellCounts(5, 12), unexposed=CellCounts(5, 12)),
        )
    )
    for link in ALL_LINKS:
        result = fit(table, ModelSpec(link, interaction=False))
        assert common_measure(result) == pytest.approx(
            null_value(measure_for_link(link)), abs=1e-6
        )


@pytest.mark.parametrize("link", ALL_LINKS)
def test_interaction_p_values_match_reference(newcastle, link):
    test = lr_test_interaction(newcastle, link)
    assert test.df == 1
    assert test.p_value == pytest.approx(P_TARGETS[link], abs=1e-3)


def test_lr_test_identical_strata_is_null():
    table = StratifiedTable(
        (
            Stratum("a", exposed=CellCounts(9, 40), unexposed=CellCounts(4, 50)),
            Stratum("b", exposed=CellCounts(9, 40), unexposed=CellCounts(4, 50)),
        )
    )
    test = lr_test_interaction(table, LinkFunction.LOGIT)
    assert test.statistic == pytest.approx(0.0, abs=1e-9)
    assert test.p_value == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_ci_matches_reference(newcastle, link):
    ci = profile_ci(newcastle, link)
    lo, hi = CI_TARGETS[link]
    assert ci.lower == pytest.approx(lo, abs=1e-3)
    assert ci.upper == pytest.approx(hi, abs=1e-3)
    assert not ci.lower_truncated and not ci.upper_truncated


@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_ci_brackets_mle_and_hits_quantile(newcastle, link):
    result = fit(newcastle, ModelSpec(link, interaction=False))
    ci = profile_ci(newcastle, link)
    point = common_measure(result)
    assert ci.lower < point < ci.upper
    q = chi2_quantile(0.95, 1)
    for endpoint in (ci.lower, ci.upper):
        b1 = endpoint if link is LinkFunction.IDENTITY else math.log(endpoint)
        lr = 2.0 * (result.loglik - profile_loglik(newcastle, link, b1))
        assert lr == pytest.approx(q, abs=1e-6)


def _interior_table(k: int) -> StratifiedTable:
    return random_table(random.Random(600 + k), k=k, interior=True)


NAMED_TABLES = {
    "large-10": LARGE_K10_CSV,
    "full-stratum": FULL_STRATUM_CSV,
    "full-unexposed-2": FULL_UNEXPOSED_K2_CSV,
    "full-cell-10": FULL_CELL_K10_CSV,
    "one-case-1": ONE_CASE_K1_CSV,
    "zero-exposed-3": ZERO_EXPOSED_K3_CSV,
    "full-unexposed-log-2": FULL_UNEXPOSED_LOG_K2_CSV,
    "full-unexposed-4": FULL_UNEXPOSED_K4_CSV,
}


# K = 1 with an empty or full cell
BOUNDARY_CELL_CSVS = [
    "s1,334,334,60,2873", "s1,9527,9527,7,21", "s1,60,2873,334,334",
    "s1,0,892,7131,32662", "s1,0,16484,24,685",
]


def _table(k) -> StratifiedTable:
    """An interior table with K = k strata, a named one or a boundary-cell one."""
    if k == "newcastle":
        return newcastle_fixture()
    if k == "four-strata":
        return synthetic_four_strata()
    if k in BOUNDARY_CELL_CSVS:
        return parse_table(CSV_HEADER + k + "\n")
    return parse_table(NAMED_TABLES[k]) if isinstance(k, str) else _interior_table(k)


# --- per-stratum profile oracle: scipy's bounded scalar minimizer on each
# stratum's log-likelihood, written from p in 40-digit mpmath

_ORACLE_SPAN = 60.0  # stands in for the infinite maximizer of a zero or full cell


def _oracle_cell(link, cases, noncases, eta):
    import mpmath

    eta = mpmath.mpf(eta)
    if link is LinkFunction.IDENTITY:
        p, q = eta, 1 - eta
    elif link is LinkFunction.LOG:
        p, q = mpmath.exp(eta), -mpmath.expm1(eta)
    elif link is LinkFunction.LOGIT:
        p, q = 1 / (1 + mpmath.exp(-eta)), 1 / (1 + mpmath.exp(eta))
    else:
        p, q = -mpmath.expm1(-mpmath.exp(eta)), mpmath.exp(-mpmath.exp(eta))
    total = mpmath.mpf(0)
    for count, prob in ((cases, p), (noncases, q)):
        if count:
            total += count * (mpmath.log(prob) if prob > 0 else -mpmath.inf)
    return total


def _oracle_target(link, cell) -> float:
    """The cell's own maximizing eta."""
    if cell.cases in (0, cell.total):
        return math.copysign(_ORACLE_SPAN, cell.cases - 0.5)
    p = cell.cases / cell.total
    if link is LinkFunction.IDENTITY:
        return p
    if link is LinkFunction.LOG:
        return math.log(p)
    if link is LinkFunction.LOGIT:
        return math.log(p / (1.0 - p))
    return math.log(-math.log1p(-p))


def _oracle_profile_loglik(table, link, b1, polish=False) -> float:
    """Each stratum's maximum lies between its two cells' own maximizers,
    clipped into the feasible range of its unexposed eta.

    The bounded search's step tolerance grows as sqrt(eps) |a|, and it
    cannot resolve a maximum next to a pole of l'. With polish, Newton steps
    on the 40-digit log-likelihood (mpmath's numerical derivatives), halved
    back into the range when they would leave it, refine its maximizer, and
    the largest value seen counts."""
    import mpmath
    from scipy.optimize import minimize_scalar

    with mpmath.workdps(40):
        total = []
        for s in table.strata:
            def ll_mp(a, s=s):
                unexposed = _oracle_cell(link, s.unexposed.cases, s.unexposed.total - s.unexposed.cases, a)
                return unexposed + _oracle_cell(link, s.exposed.cases, s.exposed.total - s.exposed.cases, a + b1)

            def ll(a, ll_mp=ll_mp):
                return float(ll_mp(a))

            feasible_lo, feasible_hi = -math.inf, math.inf
            if link is LinkFunction.IDENTITY:
                feasible_lo, feasible_hi = max(0.0, -b1), min(1.0, 1.0 - b1)
            elif link is LinkFunction.LOG:
                feasible_hi = min(0.0, -b1)
            targets = sorted((_oracle_target(link, s.unexposed), _oracle_target(link, s.exposed) - b1))
            lo, hi = (min(max(t, feasible_lo), feasible_hi) for t in targets)
            best = max(ll(lo), ll(hi))
            if lo < hi:
                res = minimize_scalar(lambda a: -ll(a), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
                best = max(best, -res.fun)
                a = mpmath.mpf(res.x)
                for _ in range(8 if polish else 0):
                    _, slope, curvature = mpmath.diffs(ll_mp, a, 2)
                    if not curvature < 0:
                        break
                    step = a - slope / curvature
                    a, last = (step if lo < step < hi else (a + (lo if step <= lo else hi)) / 2), a
                    best = max(best, ll(a))
                    if abs(a - last) <= 1e-25 * max(1, abs(a)):
                        break
            total.append(best)
    return math.fsum(total)


def _assert_endpoints_hit_quantile(table, link, level):
    from scipy.stats import chi2

    result = fit(table, ModelSpec(link, interaction=False))
    ci = profile_ci(table, link, level)
    assert ci.lower <= common_measure(result) <= ci.upper
    q = chi2.ppf(level, 1)
    for endpoint, truncated in ((ci.lower, ci.lower_truncated), (ci.upper, ci.upper_truncated)):
        if truncated:
            continue
        b1 = endpoint if link is LinkFunction.IDENTITY else math.log(endpoint)
        for profile in (profile_loglik, _oracle_profile_loglik):
            lr = 2.0 * (result.loglik - profile(table, link, b1))
            assert lr == pytest.approx(q, abs=1e-8)


@pytest.mark.parametrize("k", [
    *range(1, 7), "large-10", "full-stratum", "full-unexposed-2",
    "zero-exposed-3", "full-unexposed-log-2", "full-unexposed-4",
])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_ci_endpoints_hit_quantile_across_k(link, k):
    _assert_endpoints_hit_quantile(_table(k), link, 0.95)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.99, 0.9999])
@pytest.mark.parametrize("k", ["newcastle", 4, "one-case-1"])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_ci_endpoints_hit_quantile_at_other_levels(link, k, level):
    # the endpoint search's path depends on the quantile, not only its result
    _assert_endpoints_hit_quantile(_table(k), link, level)


@pytest.mark.parametrize("k", ["newcastle", *range(1, 7)])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_ci_solves_per_interval(link, k, profile_loglik_calls):
    # one solve at the estimate, then Halley's method on the signed root from
    # each Wald point needs at most 3 per endpoint here; Newton's method
    # needed up to 9 per interval, Brent's method after a geometric expansion
    # about 12, and bisection to a width of 1e-12 about 75
    profile_ci(_table(k), link)
    assert 0 < len(profile_loglik_calls) <= 7


@pytest.mark.parametrize("k", ["newcastle", 3, "full-unexposed-2", "zero-exposed-3"])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_ci_solves_only_through_profile_loglik_slope(link, k, monkeypatch):
    # bench/spans.py counts the spans of inference.profile_loglik_slope under
    # each CI as its profile solves: every stratum solve profile_ci makes,
    # once its fit is made, runs inside a call of that module attribute
    table = _table(k)
    fit(table, ModelSpec(link, interaction=False))
    inside, outside, depth = [0], [0], [0]
    original_slope, original_max = inference.profile_loglik_slope, inference._stratum_max

    def traced(*args):
        depth[0] += 1
        try:
            return original_slope(*args)
        finally:
            depth[0] -= 1

    def counted(*args):
        (inside if depth[0] else outside)[0] += 1
        return original_max(*args)

    monkeypatch.setattr(inference, "profile_loglik_slope", traced)
    monkeypatch.setattr(inference, "_stratum_max", counted)
    profile_ci(table, link)
    assert inside[0] > 0
    assert outside[0] == 0


def _b1_inside_and_outside(table, link, restricted):
    """The estimate, the 0.95 profile-CI endpoints and b1 between and beyond
    them, on the link scale; under the identity link only feasible ones."""
    ci = profile_ci(table, link)
    to_b1 = (lambda v: v) if link is LinkFunction.IDENTITY else math.log
    lo, hi, b1hat = to_b1(ci.lower), to_b1(ci.upper), restricted.coefficients[1]
    b1s = [b1hat, lo, hi, 0.5 * (lo + b1hat), lo - (hi - lo), hi + (hi - lo)]
    return [b1 for b1 in b1s if link is not LinkFunction.IDENTITY or abs(b1) < 1.0]


ORACLE_TABLES = ["newcastle", "four-strata", *range(1, 9), "full-cell-10"]


@pytest.mark.parametrize("k", ORACLE_TABLES)
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_loglik_matches_stratum_oracle(link, k):
    table = _table(k)
    b1s = _b1_inside_and_outside(table, link, fit(table, ModelSpec(link, interaction=False)))
    if k == "full-cell-10":
        # where a whole-model Newton ascent ran out of iterations
        b1s += {LinkFunction.LOG: [-0.70609805], LinkFunction.CLOGLOG: [-2.53356689]}.get(link, [])
    for b1 in b1s:
        expected = _oracle_profile_loglik(table, link, b1)
        assert profile_loglik(table, link, b1) == pytest.approx(expected, rel=1e-10)
    if link is LinkFunction.IDENTITY:
        with pytest.raises(DomainError):
            profile_loglik(table, link, 1.0)


@pytest.mark.parametrize(
    "k", ORACLE_TABLES + ["large-10", "full-stratum", "full-unexposed-2", "zero-exposed-3", *BOUNDARY_CELL_CSVS]
)
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_loglik_slope_is_the_derivative(link, k):
    # lp' and lp'' from each stratum's solve against central differences of
    # lp and lp', at the estimate, the CI endpoints and b1 between and beyond them
    table = _table(k)
    b1s = _b1_inside_and_outside(table, link, fit(table, ModelSpec(link, interaction=False)))
    if k == "s1,9527,9527,7,21" and link is LinkFunction.CLOGLOG:
        # eta1 - eta0 of the clipped risks: the exposed cell's p rounds next
        # to 1, where log p taken from p kept only its last bits
        b1s.append(4.3017)
    for b1 in b1s:
        h = 1e-6 * max(1.0, abs(b1))
        if link is LinkFunction.IDENTITY and not abs(b1) + h < 1.0:
            continue
        if link in (LinkFunction.IDENTITY, LinkFunction.LOG) and abs(b1) < h:
            # at b1 = 0 a bracket end of a switches between fixed and moving,
            # so a stratum at that end gives lp a kink (full-stratum's log
            # estimate sits on it)
            continue
        ll, slope, curvature = profile_loglik_slope(table, link, b1)
        assert ll == profile_loglik(table, link, b1)
        up, down = profile_loglik_slope(table, link, b1 + h), profile_loglik_slope(table, link, b1 - h)
        # each difference carries rounding of about ulp(lp) / h or ulp(lp') / h
        difference = (up[0] - down[0]) / (2.0 * h)
        assert slope == pytest.approx(difference, rel=1e-6, abs=64.0 * math.ulp(ll) / h)
        difference = (up[1] - down[1]) / (2.0 * h)
        assert curvature == pytest.approx(difference, rel=1e-6, abs=64.0 * math.ulp(max(abs(up[1]), 1.0)) / h)


def test_cloglog_log_p_keeps_its_digits_near_p_1():
    # log p = log(1 - e^-t), t = e^eta, against 60-digit mpmath at the same
    # t; taken from p rounded next to 1 it was 2.8e-8 off at eta = 3 and 0 at
    # eta = 4, where it is -1.9e-24
    import mpmath

    with mpmath.workdps(60):
        for i in range(-300, 66):
            eta = i / 10.0
            exact = mpmath.log1p(-mpmath.exp(-mpmath.mpf(math.exp(eta))))
            assert inference._cloglog_cell(1, 0, eta)[0] == pytest.approx(float(exact), rel=1e-15, abs=0.0)
    # loglik_at takes log p the same way, up to where p rounds to 1
    table = parse_table(CSV_HEADER + "s1,7,9,5,8\n")
    spec = ModelSpec(LinkFunction.CLOGLOG, interaction=False)
    for a, b1 in [(-3.0, 0.5), (0.0, 1.5), (1.0, 2.5), (-20.0, 23.5)]:
        cells = [inference._cloglog_cell(7, 2, a + b1), inference._cloglog_cell(5, 3, a)]
        assert loglik_at(table, spec, [a, b1]) == pytest.approx(cells[0][0] + cells[1][0], rel=1e-15)


@pytest.mark.parametrize("k", ORACLE_TABLES)
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_loglik_is_a_supremum(link, k):
    # no feasible coefficients with exposure coefficient b1 do better
    table = _table(k)
    spec = ModelSpec(link, interaction=False)
    restricted = fit(table, spec)
    rng = random.Random(17)
    checked = 0
    for b1 in _b1_inside_and_outside(table, link, restricted):
        ll = profile_loglik(table, link, b1)
        for i in range(6):
            beta = [b + (rng.gauss(0.0, 0.05) if i else 0.0) for b in restricted.coefficients]
            beta[1] = b1
            try:
                at = loglik_at(table, spec, beta)
            except DomainError:
                continue
            assert ll >= at - 4.0 * math.ulp(at)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("k", ["newcastle", *range(1, 7), *BOUNDARY_CELL_CSVS])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_solve_evaluations_per_stratum(link, k, stratum_evaluations):
    # each stratum's profile solve is a bracketed Newton iteration from the
    # stratum's data; the count includes the identity and log bracket-end checks
    table = _table(k)
    profile_ci(table, link)
    assert max(stratum_evaluations) <= 24
    assert sum(stratum_evaluations) / len(stratum_evaluations) <= 8.0
    # the work of the whole interval: a search that needs fewer solves may
    # make each one longer, which raises the mean above while this falls
    assert sum(stratum_evaluations) <= 80 * table.k


CLOSED_FORM_LINKS = [LinkFunction.IDENTITY, LinkFunction.LOG, LinkFunction.LOGIT]


def _b1_across_the_range(link):
    """b1 from end to end of _profile_max's range |b1| <= e_hi - e_lo, and
    under the log and logit links at its ends and out to the CI search's cap
    of +-500. Under the identity link b1 stays 1e-3 inside the range: as
    |b1| -> 1 the exposed cell's 1 - p is left to the last bits of a + b1."""
    e_lo, e_hi = inference._EDGES[link]
    bound = e_hi - e_lo
    b1s = [s * bound * f for s in (-1.0, 1.0) for f in (1.0 - 1e-3, 0.5, 1e-3)] + [0.0]
    if link is not LinkFunction.IDENTITY:
        b1s += [s * b for s in (-1.0, 1.0) for b in (bound, 500.0)]
    return b1s


@pytest.mark.parametrize(
    "k", [*range(1, 7), "full-stratum", "full-unexposed-2", "zero-exposed-3", *BOUNDARY_CELL_CSVS]
)
@pytest.mark.parametrize("link", CLOSED_FORM_LINKS)
def test_closed_form_solves_match_stratum_oracle(link, k):
    # each stratum solve starts from the closed-form root of l'(a): the
    # profile must match the per-stratum mpmath oracle across the whole range
    # of b1, at zero and full cells as well as interior ones
    table = _table(k)
    for b1 in _b1_across_the_range(link):
        assert profile_loglik(table, link, b1) == pytest.approx(
            _oracle_profile_loglik(table, link, b1, polish=True), rel=1.3e-14, abs=0.0
        )


@pytest.mark.parametrize(
    "k", ["newcastle", *range(1, 7), "full-unexposed-2", "zero-exposed-3", *BOUNDARY_CELL_CSVS]
)
@pytest.mark.parametrize("link", CLOSED_FORM_LINKS)
def test_closed_form_solves_take_one_evaluation(link, k, stratum_evaluations, monkeypatch):
    # a closed-form root inside the data bracket is evaluated first, and
    # where that evaluation passes its stop test the solve returns the root
    # with no bracket-end check: one evaluation. Otherwise the identity
    # link's two end checks and the log link's one come next; the identity
    # cubic's trigonometric form loses digits where two of its roots lie
    # close, and the loop then takes one more evaluation
    roots, etas, at_root = [], [], []
    root_of, cell_of, solve = inference._ROOT[link], inference._CELL[link], inference._stratum_max

    def recorded_root(*args):
        roots.append(root_of(*args))
        return roots[-1]

    def recorded_cell(y, f, eta):
        etas.append(eta)
        return cell_of(y, f, eta)

    def recorded_solve(*args):
        del roots[:], etas[:]
        out = solve(*args)
        # the first evaluation was at the root, and the solve returned it
        at_root.append(bool(roots) and etas[0] == roots[0] == out[1])
        return out

    monkeypatch.setitem(inference._ROOT, link, recorded_root)
    monkeypatch.setitem(inference._CELL, link, recorded_cell)
    monkeypatch.setattr(inference, "_stratum_max", recorded_solve)
    profile_ci(_table(k), link)
    assert len(at_root) == len(stratum_evaluations) > 0
    assert {n for n, hit in zip(stratum_evaluations, at_root) if hit} <= {1.0}
    if k == "newcastle" or isinstance(k, int):
        assert any(at_root)
    if link is LinkFunction.LOGIT:
        assert set(stratum_evaluations) == {1.0}
    elif link is LinkFunction.LOG:
        assert max(stratum_evaluations) <= 1 + 1
    else:
        assert max(stratum_evaluations) <= 1 + 2 + 1


@pytest.mark.parametrize("csv", ["s1,334,334,60,2873", "s1,60,2873,334,334"])
def test_identity_ci_search_stays_inside_the_feasible_range(csv, profile_loglik_calls):
    # the identity link's feasible b1 are |b1| < 1: the endpoint searches are
    # capped there and evaluate no infeasible b1 on the way to a crossing
    # near -1 or 1
    table = _table(csv)
    fit(table, ModelSpec(LinkFunction.IDENTITY, interaction=False))
    profile_loglik_calls.clear()
    profile_ci(table, LinkFunction.IDENTITY)
    assert 0 < len(profile_loglik_calls) <= 10
    assert max(abs(b1) for b1 in profile_loglik_calls) < 1.0


def test_profile_ci_truncation_with_empty_exposed_arm():
    table = StratifiedTable(
        (
            Stratum("a", exposed=CellCounts(0, 30), unexposed=CellCounts(5, 30)),
            Stratum("b", exposed=CellCounts(0, 40), unexposed=CellCounts(10, 40)),
        )
    )
    ci = profile_ci(table, LinkFunction.LOG)
    assert ci.lower_truncated
    assert not ci.upper_truncated
    assert ci.lower < ci.upper


@pytest.mark.parametrize(
    "csv, link, lower",
    [
        ("s1,334,334,60,2873", LinkFunction.CLOGLOG, 228.06),
        ("s1,334,334,60,2873", LinkFunction.LOGIT, 8000.12),
        ("s1,9527,9527,7,21", LinkFunction.CLOGLOG, 13.584),
        ("s1,9527,9527,7,21", LinkFunction.LOGIT, 8259.74),
    ],
)
def test_profile_ci_full_exposed_cell(csv, link, lower):
    # b1 is large here, where a start from the full model's coefficients is
    # infeasible; each stratum's profile solve starts from its own data
    from scipy.stats import chi2

    table = parse_table(CSV_HEADER + csv + "\n")
    result = fit(table, ModelSpec(link, interaction=False))
    ci = profile_ci(table, link)
    assert not ci.lower_truncated
    assert ci.lower == pytest.approx(lower, abs=0.01)
    lr = 2.0 * (result.loglik - profile_loglik(table, link, math.log(ci.lower)))
    assert lr == pytest.approx(chi2.ppf(0.95, 1), abs=1e-8)
    # the exposed risk is 1, so b1's estimate runs off to +inf and the true
    # upper bound is infinite: the upper endpoint stops at the estimate
    assert ci.upper_truncated
    assert ci.upper == common_measure(result)


@pytest.mark.parametrize(
    "csv, link, upper",
    [
        ("s1,0,892,7131,32662", LinkFunction.LOG, 0.009853078546982688),
        ("s1,0,16484,24,685", LinkFunction.LOG, 0.0034575366642906487),
        ("s1,0,16484,24,685", LinkFunction.LOGIT, 0.00334593731270474),
        ("s1,0,4382,9954,17259", LinkFunction.LOG, 0.000759861374037768),
        ("s1,0,4382,9954,17259", LinkFunction.LOGIT, 0.0003218181559121522),
        ("s1,0,4382,9954,17259", LinkFunction.CLOGLOG, 0.0005098632360001575),
    ],
)
def test_profile_ci_zero_exposed_cell_upper_endpoint(csv, link, upper):
    # each profile solve starts from the data, not from the solve at the
    # previous b1, so the profile is a function of b1 alone; on the first
    # three tables a whole-model Newton ascent warm-started from the previous
    # b1 stalled at a lower likelihood and the upper endpoint collapsed to
    # about 1e-13
    table = parse_table(CSV_HEADER + csv + "\n")
    ci = profile_ci(table, link)
    assert ci.lower_truncated and not ci.upper_truncated
    assert ci.upper == pytest.approx(upper, rel=1e-9)
    # the profile rises toward b1 = -inf. Under the log link the lower
    # search runs to the expansion cap without a (false) crossing on the
    # way; under logit and cloglog the counts say the estimate runs off
    # there (y1 = 0), and the lower endpoint stops at the estimate
    if link is LinkFunction.LOG:
        assert ci.lower == math.exp(-500.0)
    else:
        assert ci.lower == common_measure(fit(table, ModelSpec(link, interaction=False)))


def test_profile_ci_at_a_boundary_estimate_crosses_from_the_supremum():
    # the exposed cell is empty, so the boundary rule reports the log fit
    # with that cell at 1e-13, where lp is about n 1e-13 below the fit's
    # supremum; the endpoint is where 2 (supremum - lp) crosses the quantile,
    # here found by bisection on b1 between the estimate and 0
    table = parse_table(CSV_HEADER + "s1,0,16484,24,685\n")
    link = LinkFunction.LOG
    restricted = fit(table, ModelSpec(link, interaction=False))
    q = chi2_quantile(0.95, 1)
    lo, hi = restricted.coefficients[1], 0.0
    assert restricted.loglik > profile_loglik(table, link, lo)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if 2.0 * (restricted.loglik - profile_loglik(table, link, mid)) < q:
            lo = mid
        else:
            hi = mid
    assert math.exp(lo) == pytest.approx(0.0034575366642185, rel=1e-12)
    assert profile_ci(table, link).upper == pytest.approx(math.exp(lo), rel=1e-12)


def test_profile_ci_full_unexposed_cell_logit():
    # the mirror image: the lower bound is zero, the upper one finite
    table = parse_table(CSV_HEADER + "s1,60,2873,334,334\n")
    result = fit(table, ModelSpec(LinkFunction.LOGIT, interaction=False))
    ci = profile_ci(table, LinkFunction.LOGIT)
    assert ci.lower_truncated and ci.lower == common_measure(result)
    assert not ci.upper_truncated
    assert ci.upper == pytest.approx(1.0 / 8000.12, rel=1e-5)


def test_profile_ci_full_stratum_keeps_a_finite_interval():
    # both cells of one stratum full: its own coefficient runs off, b1 does not
    table = parse_table(FULL_STRATUM_CSV)
    s2_alone = parse_table(CSV_HEADER + "s2,40,200,20,200\n")
    for link in (LinkFunction.LOGIT, LinkFunction.CLOGLOG):
        ci = profile_ci(table, link)
        assert not ci.lower_truncated and not ci.upper_truncated
        assert ci.lower < common_measure(fit(table, ModelSpec(link, False))) < ci.upper
        # s1 fits its full cells at every b1, so the interval is that of s2
        # alone: the LR statistic is taken from lp at the estimate, where
        # s1 is at its supremum
        alone = profile_ci(s2_alone, link)
        assert ci.lower == pytest.approx(alone.lower, rel=1e-10)
        assert ci.upper == pytest.approx(alone.upper, rel=1e-10)


@pytest.mark.parametrize(
    "csv, link, b1, ll",
    [
        (ZERO_EXPOSED_K3_CSV, LinkFunction.IDENTITY, -0.1141840, -54148.39433),
        (FULL_UNEXPOSED_LOG_K2_CSV, LinkFunction.LOG, -0.9022103, -1299.357561),
        (ZERO_EXPOSED_K2_CSV, LinkFunction.IDENTITY, -0.0865334, -3418.872008),
        (ZERO_EXPOSED_LARGE_K2_CSV, LinkFunction.IDENTITY, -0.1388718, -24272.56813),
    ],
)
def test_restricted_fit_with_a_cell_at_its_bound_is_the_profile_maximum(csv, link, b1, ll):
    # the maximum puts one cell on its bound: p = 0 (identity) or p = 1
    # (log); the Newton ascent raises ConvergenceError on the first two
    # tables and ends short of the maximum on the last two
    from scipy.optimize import minimize_scalar

    table = parse_table(csv)
    result = fit(table, ModelSpec(link, interaction=False))
    oracle = minimize_scalar(
        lambda b: -profile_loglik(table, link, b), bounds=(-0.999, 0.999) if link is LinkFunction.IDENTITY
        else (-10.0, 10.0), method="bounded", options={"xatol": 1e-12},
    )
    assert oracle.x == pytest.approx(b1, abs=1e-7) and -oracle.fun == pytest.approx(ll, abs=1e-5)
    assert result.coefficients[1] == pytest.approx(oracle.x, abs=1e-6)
    assert result.loglik == pytest.approx(-oracle.fun, rel=1e-10)
    # the cell at its bound is reported 1e-13 inside it
    assert result.boundary_warning
    p = [v for point in result.fitted_points for v in (point.x, point.y)]
    assert min(min(p), 1.0 - max(p)) == pytest.approx(1e-13, rel=1e-3)


@pytest.mark.parametrize(
    "csv, link",
    [
        ("s0,1,1000000000,9,10\ns1,7,10,999999999,1000000000", LinkFunction.IDENTITY),
        ("a,2,100,46823601,46823602", LinkFunction.LOGIT),
        ("a,906039261,906039263,70,100", LinkFunction.IDENTITY),
    ],
)
def test_restricted_fit_at_large_totals_is_the_profile_maximum(csv, link):
    # cells within about 1e-7 of 0 or 1 at totals of 1e8-1e9: a slope of lp
    # taken from the cell whose 1 - p is resolved to one ulp was quantized,
    # and the profile maximum stopped short of the maximum or crawled on the
    # noise (the estimates are near -0.6, -21.554 and 0.3)
    table = parse_table(CSV_HEADER + csv + "\n")
    result = fit(table, ModelSpec(link, interaction=False))
    half = 999 if link is LinkFunction.IDENTITY else 30000
    grid = max(profile_loglik(table, link, 0.001 * i) for i in range(-half, half + 1))
    assert result.loglik >= grid - 1e-9 * abs(grid)


@pytest.mark.parametrize(
    "csv, link",
    [
        ("s1,30,30,5,50\ns2,12,40,0,60", LinkFunction.CLOGLOG),
        ("s1,0,30,5,50\ns2,12,40,60,60", LinkFunction.CLOGLOG),
        ("s1,38112,38112,18525,33010", LinkFunction.CLOGLOG),
        ("s1,534627371,534627372,293059,293059\ns2,33,140,210549238,210549238\ns3,399814164,552569048,3,3",
         LinkFunction.CLOGLOG),
        ("s1,534627371,534627372,293059,293059\ns2,33,140,210549238,210549238\ns3,399814164,552569048,3,3",
         LinkFunction.LOGIT),
        ("s1,30,30,50,50\ns2,0,1,1,2", LinkFunction.LOGIT),
        ("s0,2,3,0,3", LinkFunction.LOGIT),
        ("s0,2,3,0,3", LinkFunction.CLOGLOG),
        ("s0,0,5,0,6\ns1,2,2,0,5\ns2,0,4,0,1", LinkFunction.LOGIT),
        ("s0,0,5,0,6\ns1,2,2,0,5\ns2,0,4,0,1", LinkFunction.CLOGLOG),
    ],
)
def test_profile_maximum_of_a_run_off_is_the_end_of_its_range(csv, link):
    # every stratum has f1 = 0 or y0 = 0 (the first, third and last four
    # tables), or y1 = 0 or f0 = 0 (the others): lp rises to its
    # supremum, the saturated loglik, as b1 runs off, and the fit is the
    # closed form at the end of b1's range, with no Newton steps; each cell
    # is fitted at its observed risk, one that runs off at 1e-13 or
    # 1 - 1e-13 (the boundary rule), so the LR statistic is exactly 0
    table = parse_table(CSV_HEADER + csv + "\n")
    result = fit(table, ModelSpec(link, interaction=False))
    e_lo, e_hi = inference._EDGES[link]
    assert result.coefficients[1] == inference._run_off(table, link) * (e_hi - e_lo) != 0.0
    assert result.iterations == 0
    assert result.loglik == _saturated_loglik(table)
    for s, point in zip(table.strata, result.fitted_points):
        for cell, p in ((s.unexposed, point.x), (s.exposed, point.y)):
            assert p == min(max(cell.cases / cell.total, 1e-13), 1.0 - 1e-13)
    if table.k >= 2:
        assert lr_test_interaction(table, link).statistic == 0.0


_K1_CSVS = ["s1,5,50,5,60", "s0,2,3,0,3", "s0,30,30,50,50"]


@pytest.mark.parametrize("csv", _K1_CSVS)
@pytest.mark.parametrize("link", ALL_LINKS)
def test_one_stratum_restricted_fit_is_the_saturated_closed_form(link, csv):
    # with one stratum the no-interaction model is saturated: the fit is the
    # empirical risks, clipped into [1e-13, 1 - 1e-13], its loglik the
    # closed-form supremum and b1 = eta1 - eta0 of those risks; where the
    # estimate runs off (s0,2,3,0,3 under logit and cloglog) b1 is the end
    # of its range instead
    table = parse_table(CSV_HEADER + csv + "\n")
    result = fit(table, ModelSpec(link, interaction=False))
    (s,) = table.strata
    x, y = (min(max(c.cases / c.total, 1e-13), 1.0 - 1e-13) for c in (s.unexposed, s.exposed))
    assert result.fitted_points == (RiskPoint(x, y),)
    assert result.loglik == _saturated_loglik(table)
    assert result.iterations == 0 and result.gradient_norm == 0.0
    to_eta = inference._LINK_SCALAR[link]
    e_lo, e_hi = inference._EDGES[link]
    direction = inference._run_off(table, link)
    if direction:
        # the unexposed cell runs off, and a keeps the exposed one at its risk
        b1 = direction * (e_hi - e_lo)
        assert result.coefficients == (to_eta(y) - b1, b1)
    else:
        assert result.coefficients == (to_eta(x), to_eta(y) - to_eta(x))


@pytest.mark.parametrize(
    "csv", [ZERO_EXPOSED_K2_CSV, ZERO_EXPOSED_LARGE_K2_CSV, ZERO_EXPOSED_K3_CSV, FULL_UNEXPOSED_LOG_K2_CSV],
    ids=["zero-exposed-2", "zero-exposed-large-2", "zero-exposed-3", "full-unexposed-log-2"],
)
@pytest.mark.parametrize("link", ALL_LINKS)
def test_lr_statistic_is_the_difference_of_suprema(link, csv):
    # each table has an empty or full cell: the saturated fit's loglik is the
    # closed-form supremum, not the loglik with that cell reported 1e-13
    # inside its bound (n 1e-13 lower), and a restricted fit with a cell at
    # a bound has lp at its estimate as its loglik
    from scipy.optimize import minimize_scalar

    table = parse_table(csv)
    oracle = minimize_scalar(
        lambda b: -profile_loglik(table, link, b), bounds=(-0.999, 0.999) if link is LinkFunction.IDENTITY
        else (-10.0, 10.0), method="bounded", options={"xatol": 1e-12},
    )
    saturated = _saturated_loglik(table)
    expected = 2.0 * (saturated + oracle.fun)
    assert lr_test_interaction(table, link).statistic == pytest.approx(expected, rel=0.0, abs=1e-14 * abs(saturated))


def test_profile_ci_level_validation(newcastle):
    with pytest.raises(DomainError):
        profile_ci(newcastle, LinkFunction.LOGIT, level=1.0)


def _fits_fail(monkeypatch):
    # a one-iteration ascent and no profile maximum: fit raises the
    # ascent's ConvergenceError (_MAX_ITER stays: the profile solves read it)
    newton = inference._newton
    monkeypatch.setattr(inference, "_newton", lambda *args: newton(*args, max_iter=1))
    monkeypatch.setattr(inference, "_profile_max", lambda *args: None)


def test_fit_convergence_error_carries_last_iterate(newcastle, computed_fits, monkeypatch):
    _fits_fail(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        fit(newcastle, ModelSpec(LinkFunction.LOGIT, interaction=False))
    err = exc.value
    assert err.iterations == 1
    assert err.coefficients is not None
    assert math.isfinite(err.loglik)


def _fit_link_all(table):
    # the library path of `rothman fit --link all`, without passing fits along
    for link in ALL_LINKS:
        if table.k >= 2:
            inference.fit(table, ModelSpec(link, interaction=True))
        inference.fit(table, ModelSpec(link, interaction=False))
        if table.k >= 2:
            lr_test_interaction(table, link)
        profile_ci(table, link)


@pytest.mark.parametrize("k, solves", [("newcastle", 8), ("four-strata", 8), (1, 4)])
def test_fit_link_all_library_path_solves_each_fit_once(k, solves, computed_fits, fit_calls):
    _fit_link_all(_table(k))
    assert computed_fits() == len(set(fit_calls)) == solves


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_lr_test_and_ci_take_their_fits_from_the_memo(link, k, computed_fits):
    table = random_table(random.Random(700 + k), k=k, interior=True)
    # cold: the CI computes the no-interaction fit, the LR test the saturated one
    cold_ci = profile_ci(table, link, 0.9)
    cold_test = lr_test_interaction(table, link) if k >= 2 else None
    solves = 2 if k >= 2 else 1
    assert computed_fits() == solves
    # warm: the same results from the fits fit returns, and no new solve
    restricted = fit(table, ModelSpec(link, interaction=False))
    ci = profile_ci(table, link, 0.9)
    assert ci == cold_ci
    assert ci.lower <= common_measure(restricted) <= ci.upper
    if k >= 2:
        saturated = fit(table, ModelSpec(link, interaction=True))
        test = lr_test_interaction(table, link)
        assert test == cold_test
        assert test.statistic == max(0.0, 2.0 * (saturated.loglik - restricted.loglik))
    assert computed_fits() == solves


def test_restricted_fits_and_figures_solve_each_fit_once(computed_fits):
    table = newcastle_fixture()
    for link in ALL_LINKS:
        fit(table, ModelSpec(link, interaction=False))
    for name, figure in render.FIGURES.items():
        render.render_svg(figure(table))
    assert computed_fits() == 4


def test_equal_tables_share_one_fit(computed_fits):
    csv = CSV_HEADER + "a,10,100,20,100\nb,30,100,10,100\n"
    first, second = parse_table(csv), parse_table(csv)
    assert first is not second
    assert hash(first) == hash(second)
    spec = ModelSpec(LinkFunction.LOGIT, interaction=False)
    assert fit(first, spec) is fit(second, spec)
    assert computed_fits() == 1


def test_failed_fit_is_not_kept(newcastle, computed_fits, monkeypatch):
    spec = ModelSpec(LinkFunction.LOGIT, interaction=False)
    with monkeypatch.context() as patched:
        _fits_fail(patched)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                fit(newcastle, spec)
    assert computed_fits() == 2
    assert fit(newcastle, spec).gradient_norm < 1e-10
    assert computed_fits() == 3


@pytest.mark.parametrize("link", ALL_LINKS)
def test_restricted_fit_runs_the_traced_solver_once(newcastle, link, monkeypatch):
    # bench/spans.py wraps inference._newton, which fit looks up at call
    # time, and adds up result[3] as the solver's iterations
    results = []
    original = inference._newton

    def traced(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(inference, "_newton", traced)
    inference._fit.cache_clear()
    restricted = fit(newcastle, ModelSpec(link, interaction=False))
    assert len(results) == 1
    assert results[0][3] == restricted.iterations >= 1
    # the saturated fit is closed form
    fit(newcastle, ModelSpec(link, interaction=True))
    assert len(results) == 1


def test_fit_is_a_plain_function():
    # bench/spans.py traces only plain functions: a decorated fit would drop
    # out of the benchmark's fit counts and timings
    assert isinstance(inference.fit, types.FunctionType)


def _feasible_reference(p):
    return bool(np.all(np.isfinite(p)) and np.all(p > inference._P_FLOOR) and np.all(p < 1.0))


FEASIBLE_PROBES = [math.nan, math.inf, -math.inf, 0.0, 1e-300, 5e-324, 1.0 - 2.0**-53, 1.0, 0.5]


@pytest.mark.parametrize("v", FEASIBLE_PROBES)
def test_feasible_matches_three_way_check(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cells in [(v,), *itertools.product(FEASIBLE_PROBES, [v])]:
            p = np.array(cells)
            assert inference._feasible(p) is _feasible_reference(p), cells


@pytest.mark.parametrize("csv", ["newcastle", *BOUNDARY_CELL_CSVS, "s1,0,10,0,10\ns2,3,10,5,10"])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_newton_raises_no_runtime_warning(link, csv):
    table = newcastle_fixture() if csv == "newcastle" else parse_table(CSV_HEADER + csv + "\n")
    inference._fit.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for interaction in (False, True)[: table.k]:
            try:
                fit(table, ModelSpec(link, interaction))
            except ConvergenceError:
                pass


def test_boundary_warning_on_zero_cell():
    table = StratifiedTable(
        (
            Stratum("a", exposed=CellCounts(0, 500), unexposed=CellCounts(50, 500)),
            Stratum("b", exposed=CellCounts(40, 400), unexposed=CellCounts(60, 400)),
        )
    )
    result = fit(table, ModelSpec(LinkFunction.LOGIT, interaction=True))
    assert result.boundary_warning
    for p in result.fitted_points:
        assert 0.0 < p.x < 1.0 and 0.0 < p.y < 1.0


def test_interaction_needs_two_strata():
    table = StratifiedTable((Stratum("a", CellCounts(3, 10), CellCounts(2, 10)),))
    with pytest.raises(DomainError):
        fit(table, ModelSpec(LinkFunction.LOGIT, interaction=True))


def test_nesting_and_nonnegative_lr_statistic():
    rng = random.Random(8)
    for _ in range(40):
        table = random_table(rng, k=rng.randint(2, 3), interior=True)
        for link in ALL_LINKS:
            restricted = fit(table, ModelSpec(link, interaction=False))
            saturated = fit(table, ModelSpec(link, interaction=True))
            assert saturated.loglik >= restricted.loglik - 1e-9
            assert lr_test_interaction(table, link).statistic >= 0.0


def _finite_difference_score(table, spec, beta, h=1e-6):
    beta = np.asarray(beta, dtype=float)
    out = np.empty_like(beta)
    for i in range(len(beta)):
        up, dn = beta.copy(), beta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (loglik_at(table, spec, up) - loglik_at(table, spec, dn)) / (2 * h)
    return out


@pytest.mark.parametrize("link", ALL_LINKS)
def test_score_matches_finite_differences(link):
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        table = random_table(rng, k=2, interior=True)
        spec = ModelSpec(link, interaction=bool(rng.getrandbits(1)))
        base = fit(table, spec).coefficients
        beta = [b + rng.uniform(-0.05, 0.05) for b in base]
        try:
            analytic = score(table, spec, beta)
        except DomainError:
            continue
        numeric = _finite_difference_score(table, spec, beta)
        assert np.max(np.abs(analytic - numeric)) < 1e-4
        checked += 1


@pytest.mark.parametrize("link", ALL_LINKS)
def test_score_vanishes_at_mle(newcastle, link):
    for interaction in (False, True):
        result = fit(newcastle, ModelSpec(link, interaction))
        u = score(newcastle, ModelSpec(link, interaction), result.coefficients)
        assert np.max(np.abs(u)) < 1e-8


def test_common_measure_between_stratum_values():
    """Regression guard: the common estimate stays inside the interval
    spanned by the stratum-specific values, expanded by 1e-6."""
    rng = random.Random(19)
    for _ in range(30):
        table = random_table(rng, k=2, interior=True)
        for link in ALL_LINKS:
            measure = measure_for_link(link)
            saturated = fit(table, ModelSpec(link, interaction=True))
            values = sorted(evaluate(measure, p) for p in saturated.fitted_points)
            common = common_measure(fit(table, ModelSpec(link, interaction=False)))
            assert values[0] - 1e-6 <= common <= values[1] + 1e-6


def test_design_matrix_shape(newcastle):
    assert design_matrix(newcastle, ModelSpec(LinkFunction.LOGIT, False)).shape == (4, 3)
    assert design_matrix(newcastle, ModelSpec(LinkFunction.LOGIT, True)).shape == (4, 4)


# --- chi-square tail ---------------------------------------------------------


def test_chi2_sf_examples():
    assert chi2_sf(0.0, 1) == 1.0
    assert chi2_sf(3.8415, 1) == pytest.approx(0.0500, abs=1e-4)
    assert chi2_sf(6.6349, 1) == pytest.approx(0.0100, abs=1e-4)


def test_chi2_sf_matches_erfc_closed_form():
    for i in range(0, 2001):
        x = i * 0.025
        assert abs(chi2_sf(x, 1) - math.erfc(math.sqrt(x / 2.0))) < 1e-10


def test_chi2_sf_even_df_closed_form():
    # sf(x, 2k) = exp(-x/2) * sum_{j<k} (x/2)^j / j!
    for df in (2, 4, 6, 10, 20):
        k = df // 2
        for x in (0.01, 0.5, 1.0, 3.7, 9.2, 25.0, 60.0, 100.0):
            z = x / 2.0
            expected = math.exp(-z) * sum(z**j / math.factorial(j) for j in range(k))
            assert abs(chi2_sf(x, df) - expected) < 1e-10


def test_chi2_sf_recursion_over_df():
    # sf(x, df + 2) = sf(x, df) + (x/2)^(df/2) exp(-x/2) / Gamma(df/2 + 1)
    for x in (0.3, 2.0, 7.7, 31.0, 88.0):
        for df in range(1, 19):
            z = x / 2.0
            bump = math.exp((df / 2.0) * math.log(z) - z - math.lgamma(df / 2.0 + 1.0))
            assert abs(chi2_sf(x, df + 2) - (chi2_sf(x, df) + bump)) < 1e-10


def test_chi2_sf_validation():
    for x in (-0.1, -math.inf, math.nan):
        with pytest.raises(DomainError):
            chi2_sf(x, 1)
    with pytest.raises(DomainError):
        chi2_sf(1.0, 0)


@pytest.mark.parametrize("df", range(1, 7))
def test_chi2_sf_at_infinity_matches_scipy(df):
    from scipy.stats import chi2

    assert chi2_sf(math.inf, df) == chi2.sf(math.inf, df) == 0.0


@pytest.mark.parametrize("df", range(1, 201))
def test_chi2_sf_matches_scipy(df):
    from scipy.stats import chi2

    for x in np.logspace(-5.0, math.log10(5e3), 60):
        expected = chi2.sf(x, df)
        if expected > 1e-300:
            assert chi2_sf(float(x), df) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("level", [1e-6, 0.5, 0.95, 0.9999, 1 - 1e-9])
def test_chi2_quantile_df1_matches_scipy(level):
    from scipy.stats import chi2

    assert chi2_quantile(level, 1) == pytest.approx(chi2.ppf(level, 1), rel=1e-9, abs=0.0)


def test_chi2_quantile_df1():
    assert chi2_quantile(0.95, 1) == pytest.approx(3.841458820694124, abs=1e-8)
    assert chi2_sf(chi2_quantile(0.9, 3), 3) == pytest.approx(0.1, abs=1e-10)
