import math
import random

import numpy as np
import pytest

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
    score,
)
from rothman.measures import Measure, evaluate, null_value
from rothman.tables import (
    CellCounts,
    StratifiedTable,
    Stratum,
    newcastle_fixture,
    parse_table,
    stratum_points,
)

from conftest import random_table

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
    assert result.converged
    for fitted, observed in zip(result.fitted_points, stratum_points(newcastle)):
        assert fitted.x == pytest.approx(observed.x, abs=1e-8)
        assert fitted.y == pytest.approx(observed.y, abs=1e-8)


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


def test_common_measure_requires_restricted_converged_fit(newcastle):
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


@pytest.mark.parametrize("k", [*range(1, 7), "large-10"])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_profile_ci_endpoints_hit_quantile_across_k(link, k):
    from scipy.stats import chi2

    if k == "large-10":
        table = parse_table(LARGE_K10_CSV)
    else:
        table = random_table(random.Random(600 + k), k=k, interior=True)
    result = fit(table, ModelSpec(link, interaction=False))
    ci = profile_ci(table, link, 0.95)
    assert ci.lower <= common_measure(result) <= ci.upper
    q = chi2.ppf(0.95, 1)
    for endpoint, truncated in ((ci.lower, ci.lower_truncated), (ci.upper, ci.upper_truncated)):
        if truncated:
            continue
        b1 = endpoint if link is LinkFunction.IDENTITY else math.log(endpoint)
        lr = 2.0 * (result.loglik - profile_loglik(table, link, b1))
        assert lr == pytest.approx(q, abs=1e-8)


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
    # b1 is large here, so a profile start must centre the offset's range,
    # not the intercept alone, on probability 0.5 to be feasible
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
    table = parse_table(CSV_HEADER + "s1,30,30,50,50\ns2,40,200,20,200\n")
    for link in (LinkFunction.LOGIT, LinkFunction.CLOGLOG):
        ci = profile_ci(table, link)
        assert not ci.lower_truncated and not ci.upper_truncated
        assert ci.lower < common_measure(fit(table, ModelSpec(link, False))) < ci.upper


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("link", ALL_LINKS)
def test_passed_fits_give_the_same_results(link, k):
    table = random_table(random.Random(700 + k), k=k, interior=True)
    restricted = fit(table, ModelSpec(link, interaction=False))
    assert profile_ci(table, link, 0.9, restricted=restricted) == profile_ci(table, link, 0.9)
    if k >= 2:
        saturated = fit(table, ModelSpec(link, interaction=True))
        passed = lr_test_interaction(table, link, restricted=restricted, saturated=saturated)
        assert passed == lr_test_interaction(table, link)
        assert lr_test_interaction(table, link, saturated=saturated) == passed


def test_passed_fit_of_another_model_is_rejected(newcastle):
    logit = LinkFunction.LOGIT
    restricted = fit(newcastle, ModelSpec(logit, interaction=False))
    saturated = fit(newcastle, ModelSpec(logit, interaction=True))
    other_link = fit(newcastle, ModelSpec(LinkFunction.LOG, interaction=False))
    for passed in (saturated, other_link):
        with pytest.raises(DomainError):
            profile_ci(newcastle, logit, restricted=passed)
        with pytest.raises(DomainError):
            lr_test_interaction(newcastle, logit, restricted=passed, saturated=saturated)
    with pytest.raises(DomainError):
        lr_test_interaction(newcastle, logit, restricted=restricted, saturated=restricted)
    # a fit of the same model of another table, with the same K and with another K
    for csv in ("a,10,100,20,100\nb,30,100,10,100\n", "a,10,100,20,100\n"):
        other = parse_table(CSV_HEADER + csv)
        other_table = fit(other, ModelSpec(logit, interaction=False))
        with pytest.raises(DomainError):
            profile_ci(newcastle, logit, restricted=other_table)
        with pytest.raises(DomainError):
            lr_test_interaction(newcastle, logit, restricted=other_table)


def test_profile_ci_level_validation(newcastle):
    with pytest.raises(DomainError):
        profile_ci(newcastle, LinkFunction.LOGIT, level=1.0)


def test_fit_convergence_error_carries_last_iterate(newcastle):
    with pytest.raises(ConvergenceError) as exc:
        fit(newcastle, ModelSpec(LinkFunction.LOGIT, interaction=False), max_iter=1)
    err = exc.value
    assert err.iterations == 1
    assert err.coefficients is not None
    assert math.isfinite(err.loglik)


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
    with pytest.raises(DomainError):
        chi2_sf(-0.1, 1)
    with pytest.raises(DomainError):
        chi2_sf(1.0, 0)


def test_chi2_quantile_df1():
    assert chi2_quantile(0.95, 1) == pytest.approx(3.841458820694124, abs=1e-8)
    assert chi2_sf(chi2_quantile(0.9, 3), 3) == pytest.approx(0.1, abs=1e-10)
