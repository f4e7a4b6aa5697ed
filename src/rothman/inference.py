"""Grouped-binomial GLM inference for the 2x2xK design.

One model family, four link functions (identity, log, logit,
complementary log-log), each paired with the association measure its
exposure coefficient estimates. Fitting is Newton ascent on the grouped
binomial log-likelihood (observed-Hessian direction with a Fisher-scoring
fallback) under step-halving that keeps every cell probability strictly
inside (0, 1). Interval estimation is by profile likelihood only.

Cell order convention: for each stratum in table order, the exposed cell
then the unexposed cell (matching the CSV column order). The design is
reference-cell coded with the first stratum as reference, so the exposure
coefficient b1 is the common measure on the link scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError
from .measures import Measure
from .tables import RiskPoint, StratifiedTable

_GRAD_TOL = 1e-10
_LL_TOL = 1e-12
_BOUNDARY_TOL = 1e-12
_MAX_ITER = 200


class LinkFunction(Enum):
    IDENTITY = "identity"
    LOG = "log"
    LOGIT = "logit"
    CLOGLOG = "cloglog"


_MEASURE_FOR_LINK = {
    LinkFunction.IDENTITY: Measure.RISK_DIFFERENCE,
    LinkFunction.LOG: Measure.RISK_RATIO,
    LinkFunction.LOGIT: Measure.ODDS_RATIO,
    LinkFunction.CLOGLOG: Measure.CUMULATIVE_HAZARD_RATIO,
}
_LINK_FOR_MEASURE = {m: l for l, m in _MEASURE_FOR_LINK.items()}


def measure_for_link(link: LinkFunction) -> Measure:
    return _MEASURE_FOR_LINK[link]


def link_for_measure(measure: Measure) -> LinkFunction:
    return _LINK_FOR_MEASURE[measure]


def _inverse(link: LinkFunction, eta: np.ndarray) -> np.ndarray:
    if link is LinkFunction.IDENTITY:
        return np.asarray(eta, dtype=float).copy()
    with np.errstate(over="ignore", under="ignore"):
        if link is LinkFunction.LOG:
            return np.exp(eta)
        if link is LinkFunction.LOGIT:
            out = np.empty_like(eta, dtype=float)
            pos = eta >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
            ex = np.exp(eta[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out
        return -np.expm1(-np.exp(eta))


def _dinverse(link: LinkFunction, eta: np.ndarray, p: np.ndarray) -> np.ndarray:
    if link is LinkFunction.IDENTITY:
        return np.ones_like(eta)
    if link is LinkFunction.LOG:
        return p.copy()
    if link is LinkFunction.LOGIT:
        return p * (1.0 - p)
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(eta - np.exp(eta))


def _d2inverse(link: LinkFunction, eta: np.ndarray, p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    if link is LinkFunction.IDENTITY:
        return np.zeros_like(eta)
    if link is LinkFunction.LOG:
        return p.copy()
    if link is LinkFunction.LOGIT:
        return dp * (1.0 - 2.0 * p)
    with np.errstate(over="ignore", under="ignore"):
        return dp * (1.0 - np.exp(eta))


def _link_of(link: LinkFunction, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if link is LinkFunction.IDENTITY:
        return p.copy()
    if link is LinkFunction.LOG:
        return np.log(p)
    if link is LinkFunction.LOGIT:
        return np.log(p / (1.0 - p))
    return np.log(-np.log1p(-p))


@dataclass(frozen=True)
class ModelSpec:
    """Which link to fit, and whether exposure-by-stratum interaction terms
    are included (with them the model is saturated)."""

    link: LinkFunction
    interaction: bool


@dataclass(frozen=True)
class FitResult:
    spec: ModelSpec
    coefficients: tuple[float, ...]
    loglik: float
    fitted_points: tuple[RiskPoint, ...]
    converged: bool
    iterations: int
    boundary_warning: bool
    gradient_norm: float


def cell_counts(table: StratifiedTable) -> tuple[np.ndarray, np.ndarray]:
    """(cases, totals) arrays in cell order: exposed then unexposed per stratum."""
    cases, totals = [], []
    for s in table.strata:
        cases.extend([s.exposed.cases, s.unexposed.cases])
        totals.extend([s.exposed.total, s.unexposed.total])
    return np.array(cases, dtype=float), np.array(totals, dtype=float)


def design_matrix(table: StratifiedTable, spec: ModelSpec) -> np.ndarray:
    """Reference-cell design: intercept, exposure, K-1 stratum indicators,
    and K-1 exposure-by-stratum columns when interaction is requested."""
    k = table.k
    rows = []
    for j in range(k):
        for x in (1.0, 0.0):
            row = [1.0, x]
            row += [1.0 if j == i else 0.0 for i in range(1, k)]
            if spec.interaction:
                row += [x if j == i else 0.0 for i in range(1, k)]
            rows.append(row)
    return np.array(rows, dtype=float)


@functools.lru_cache(maxsize=32)
def _problem(table: StratifiedTable, spec: ModelSpec):
    """(X, cases, totals), built once per table and spec; the arrays are
    shared between calls and so are read-only."""
    arrays = (design_matrix(table, spec), *cell_counts(table))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def loglik(table: StratifiedTable, probs) -> float:
    """Grouped binomial log-likelihood at per-cell probabilities (binomial
    coefficients omitted). Cell order: exposed then unexposed per stratum."""
    cases, totals = cell_counts(table)
    p = np.asarray(probs, dtype=float)
    if p.shape != cases.shape:
        raise DomainError(f"expected {cases.size} cell probabilities, got {p.size}")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("cell probabilities must lie strictly inside (0, 1)")
    return _ll(cases, totals, p)


def _ll(cases: np.ndarray, totals: np.ndarray, p: np.ndarray) -> float:
    return float(cases @ np.log(p) + (totals - cases) @ np.log1p(-p))


_P_FLOOR = 1e-300  # subnormal probabilities break Fisher scoring arithmetic


def _feasible(p: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(p)) and np.all(p > _P_FLOOR) and np.all(p < 1.0))


def _score_info(link, X, cases, totals, eta, p):
    """Score, Fisher information, and the cell terms v, dp/deta and residual."""
    v = p * (1.0 - p)
    dp = _dinverse(link, eta, p)
    resid = cases - totals * p
    u = X.T @ (resid / v * dp)
    info = X.T @ ((totals * dp * dp / v)[:, None] * X)
    return u, info, v, dp, resid


def score(table: StratifiedTable, spec: ModelSpec, beta) -> np.ndarray:
    """Analytic score (gradient of the log-likelihood) at feasible coefficients."""
    X, cases, totals = _problem(table, spec)
    eta = X @ np.asarray(beta, dtype=float)
    p = _inverse(spec.link, eta)
    if not _feasible(p):
        raise DomainError("coefficients give cell probabilities outside (0, 1)")
    return _score_info(spec.link, X, cases, totals, eta, p)[0]


def loglik_at(table: StratifiedTable, spec: ModelSpec, beta) -> float:
    """Log-likelihood at a coefficient vector; DomainError when infeasible."""
    X, cases, totals = _problem(table, spec)
    p = _inverse(spec.link, X @ np.asarray(beta, dtype=float))
    if not _feasible(p):
        raise DomainError("coefficients give cell probabilities outside (0, 1)")
    return _ll(cases, totals, p)


def _solve_direction(matrix, u):
    try:
        delta = np.linalg.solve(matrix, u)
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(matrix, u, rcond=None)[0]
    if not np.all(np.isfinite(delta)):
        delta = np.linalg.lstsq(matrix, u, rcond=None)[0]
    return delta


def _newton(link, X, cases, totals, beta0, offset=None, max_iter=_MAX_ITER):
    """Newton ascent on the grouped-binomial log-likelihood with step-halving;
    the iterate always keeps every cell probability strictly inside (0, 1).

    Each iteration tries the observed-Hessian Newton direction first
    (quadratic near the optimum, and free of the slow two-cycles Fisher
    scoring shows for non-canonical links) and falls back to the Fisher
    scoring direction, which is always an ascent direction.

    Returns (beta, loglik, converged, iterations, gradient_norm, p)."""
    off = np.zeros(len(cases)) if offset is None else offset
    beta = np.asarray(beta0, dtype=float).copy()
    eta = off + X @ beta
    p = _inverse(link, eta)
    if not _feasible(p):
        raise DomainError("infeasible starting coefficients")
    ll = _ll(cases, totals, p)
    gnorm = math.inf
    iterations = 0
    converged = False
    stalled = 0
    for _ in range(max_iter):
        u, info, v, dp, resid = _score_info(link, X, cases, totals, eta, p)
        gnorm = float(np.max(np.abs(u)))
        if gnorm < _GRAD_TOL:
            converged = True
            break
        directions = []
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            neg_curv = dp * dp * (totals / v + resid * (1.0 - 2.0 * p) / (v * v)) - (
                resid * _d2inverse(link, eta, p, dp) / v
            )
        if np.all(np.isfinite(neg_curv)):
            newton_delta = _solve_direction(X.T @ (neg_curv[:, None] * X), u)
            if np.all(np.isfinite(newton_delta)) and float(u @ newton_delta) > 0.0:
                directions.append(newton_delta)
        directions.append(_solve_direction(info, u))
        slack = 32.0 * np.finfo(float).eps * (1.0 + abs(ll))
        best = None
        for delta in directions:
            step = 1.0
            while step >= 2.0**-60:
                cand = beta + step * delta
                eta_c = off + X @ cand
                p_c = _inverse(link, eta_c)
                if _feasible(p_c):
                    ll_c = _ll(cases, totals, p_c)
                    if ll_c >= ll - slack:
                        if best is None or ll_c > best[3]:
                            best = (cand, eta_c, p_c, ll_c)
                        break
                step *= 0.5
        if best is None:
            # no feasible ascent step left: log-likelihood change is zero
            converged = True
            break
        iterations += 1
        dll = best[3] - ll
        beta, eta, p, ll = best
        # a change of a few ulps is rounding; at |ll| >~ 1e4 one ulp exceeds _LL_TOL
        if dll < max(_LL_TOL, 8.0 * math.ulp(ll)):
            # one more Newton pass after the first stall lets quadratic
            # convergence finish the gradient criterion when the MLE is
            # interior; a second stall means we are as far as we can get
            stalled += 1
            if stalled >= 2:
                converged = True
                u = _score_info(link, X, cases, totals, eta, p)[0]
                gnorm = float(np.max(np.abs(u)))
                break
        else:
            stalled = 0
    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations (gradient max-norm {gnorm:.3e})",
            coefficients=tuple(beta),
            loglik=ll,
            iterations=iterations,
        )
    return beta, ll, converged, iterations, gnorm, p


def _adjusted_cell_probs(cases: np.ndarray, totals: np.ndarray) -> np.ndarray:
    p = cases / totals
    delta = 0.5 / (totals + 1.0)
    return np.clip(p, delta, 1.0 - delta)


def _null_init(table: StratifiedTable, link: LinkFunction, n_params: int) -> np.ndarray:
    """Closed-form fit of the exposure-free model (one pooled probability per
    stratum), used as the starting point for restricted fits."""
    pooled = []
    for s in table.strata:
        tot = s.exposed.total + s.unexposed.total
        p = (s.exposed.cases + s.unexposed.cases) / tot
        delta = 0.5 / (tot + 1.0)
        pooled.append(min(1.0 - delta, max(delta, p)))
    etas = _link_of(link, np.array(pooled))
    beta = np.zeros(n_params)
    beta[0] = etas[0]
    beta[2 : 2 + table.k - 1] = etas[1:] - etas[0]
    return beta


def fit(table: StratifiedTable, spec: ModelSpec, max_iter: int = _MAX_ITER) -> FitResult:
    """Maximum-likelihood fit of the binomial GLM.

    Saturated fits (interaction) start from the closed form, the link applied
    to empirical risks, and get a Newton polish; restricted fits start from
    the closed-form null fit. Raises ConvergenceError when neither the
    gradient criterion (max-norm < 1e-10) nor the log-likelihood criterion
    (change < 1e-12) is met within max_iter iterations.
    """
    if spec.interaction and table.k < 2:
        raise DomainError("an interaction model needs at least two strata")
    X, cases, totals = _problem(table, spec)
    if spec.interaction:
        raw = cases / totals
        if np.all(raw > 0.0) and np.all(raw < 1.0):
            beta0 = np.linalg.solve(X, _link_of(spec.link, raw))
        else:
            beta0 = np.linalg.solve(X, _link_of(spec.link, _adjusted_cell_probs(cases, totals)))
    else:
        beta0 = _null_init(table, spec.link, X.shape[1])
    beta, ll, converged, iterations, gnorm, p = _newton(
        spec.link, X, cases, totals, beta0, max_iter=max_iter
    )
    boundary = bool(np.any(p < _BOUNDARY_TOL) or np.any(p > 1.0 - _BOUNDARY_TOL))
    points = tuple(RiskPoint(float(p[2 * j + 1]), float(p[2 * j])) for j in range(table.k))
    return FitResult(
        spec=spec,
        coefficients=tuple(float(b) for b in beta),
        loglik=ll,
        fitted_points=points,
        converged=converged,
        iterations=iterations,
        boundary_warning=boundary,
        gradient_norm=gnorm,
    )


def common_measure(result: FitResult) -> float:
    """The common association measure implied by a converged no-interaction
    fit: b1 for the identity link, exp(b1) otherwise."""
    if result.spec.interaction:
        raise ValueError("common_measure requires a no-interaction fit")
    if not result.converged:
        raise ValueError("common_measure requires a converged fit")
    b1 = result.coefficients[1]
    return b1 if result.spec.link is LinkFunction.IDENTITY else math.exp(b1)


@dataclass(frozen=True)
class LRTest:
    statistic: float
    df: int
    p_value: float


def _fit_of(table: StratifiedTable, spec: ModelSpec, given: FitResult | None) -> FitResult:
    """``given`` when the caller already holds this fit of the table, else a new fit."""
    if given is None:
        return fit(table, spec)
    if given.spec != spec:
        raise DomainError(f"expected a fit of {spec}, got a fit of {given.spec}")
    # fit() takes its loglik from its coefficients: for this table they agree bit for bit
    wrong_table = len(given.fitted_points) != table.k
    if wrong_table or given.loglik != loglik_at(table, spec, given.coefficients):
        raise DomainError("the fit passed is not a fit of this table")
    return given


def lr_test_interaction(
    table: StratifiedTable, link: LinkFunction, *,
    restricted: FitResult | None = None, saturated: FitResult | None = None,
) -> LRTest:
    """Likelihood-ratio test of the K-1 exposure-by-stratum interaction terms.

    Fits of this table that the caller already holds may be passed as
    ``restricted`` and ``saturated``; the missing ones are fitted here."""
    if table.k < 2:
        raise DomainError("interaction test needs at least two strata")
    restricted = _fit_of(table, ModelSpec(link, interaction=False), restricted)
    saturated = _fit_of(table, ModelSpec(link, interaction=True), saturated)
    stat = max(0.0, 2.0 * (saturated.loglik - restricted.loglik))
    df = table.k - 1
    return LRTest(stat, df, chi2_sf(stat, df))


class _ProfileInfeasible(Exception):
    pass


def _profile_feasible_init(table, link, Xr, off):
    # null fit of the full model, with the exposure coefficient (held fixed
    # through the offset) dropped to match the reduced design Xr
    base = np.delete(_null_init(table, link, Xr.shape[1] + 1), 1)
    centered = np.zeros(Xr.shape[1])
    if link is LinkFunction.IDENTITY:
        lo, hi = -float(np.min(off)), 1.0 - float(np.max(off))
        if not lo < hi:
            raise _ProfileInfeasible
        centered[0] = 0.5 * (lo + hi)
    elif link is LinkFunction.LOG:
        centered[0] = -float(np.max(off)) - 1.0
    else:
        # centre the offset's range on probability 0.5
        centered[0] = _link_of(link, np.array([0.5]))[0] - 0.5 * float(np.min(off) + np.max(off))
    for t in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.0):
        cand = t * base + (1.0 - t) * centered
        if _feasible(_inverse(link, off + Xr @ cand)):
            return cand
    raise _ProfileInfeasible


def _runs_off(table: StratifiedTable, restricted: FitResult) -> set[int]:
    """Directions (+1, -1) in which the logit or cloglog estimate of b1 runs
    off to infinity: a stratum whose exposed (+1) or unexposed (-1) cell is
    full and fitted within _BOUNDARY_TOL of 1 while the other cell is not full.
    p rounds to 1.0 from eta ~ 37 (logit) or ~ 3.6 (cloglog); past that the
    profile falls for rounding alone and crosses the quantile at a false b1."""
    if restricted.spec.link not in (LinkFunction.LOGIT, LinkFunction.CLOGLOG):
        return set()
    out = set()
    for s, point in zip(table.strata, restricted.fitted_points):
        full_exposed = s.exposed.cases == s.exposed.total
        full_unexposed = s.unexposed.cases == s.unexposed.total
        if full_exposed and not full_unexposed and point.y > 1.0 - _BOUNDARY_TOL:
            out.add(1)
        if full_unexposed and not full_exposed and point.x > 1.0 - _BOUNDARY_TOL:
            out.add(-1)
    return out


def profile_loglik(table: StratifiedTable, link: LinkFunction, b1: float) -> float:
    """Log-likelihood of the no-interaction model maximized over all
    coefficients except the exposure coefficient, held at b1.

    Raises DomainError when no coefficients are feasible at this b1."""
    X, cases, totals = _problem(table, ModelSpec(link, interaction=False))
    Xr = np.delete(X, 1, axis=1)
    off = b1 * X[:, 1]
    try:
        beta0 = _profile_feasible_init(table, link, Xr, off)
    except _ProfileInfeasible:
        raise DomainError(f"no feasible model with exposure coefficient {b1}") from None
    _, ll, *_ = _newton(link, Xr, cases, totals, beta0, offset=off)
    return ll


@dataclass(frozen=True)
class ProfileCI:
    """Profile-likelihood confidence interval on the measure scale."""

    lower: float
    upper: float
    level: float
    lower_truncated: bool = False
    upper_truncated: bool = False


_MAX_DOUBLINGS = 60
# expansion cap on the link scale: a crossing beyond exp(+-500) on a ratio
# scale is indistinguishable from an unbounded interval, and staying inside
# the cap keeps cell probabilities in the normal floating-point range
_B1_SPAN = 500.0


def profile_ci(
    table: StratifiedTable, link: LinkFunction, level: float = 0.95, *,
    restricted: FitResult | None = None,
) -> ProfileCI:
    """Endpoints where the profile LR statistic for the exposure coefficient
    crosses the chi-square(1) quantile, found by geometric bracket expansion
    followed by bisection on b1, then mapped to the measure scale.

    An endpoint that runs out of feasible b1 (or fails to cross within the
    expansion budget) is truncated at the last reachable value and flagged.
    Under the logit and cloglog links an endpoint toward which b1's estimate
    runs off to infinity (see _runs_off) is truncated at the estimate.
    A no-interaction fit of this table that the caller already holds may be
    passed as ``restricted``; otherwise it is fitted here.
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    spec = ModelSpec(link, interaction=False)
    restricted = _fit_of(table, spec, restricted)
    llmax = restricted.loglik
    b1hat = restricted.coefficients[1]
    q = chi2_quantile(level, 1)

    X, cases, totals = _problem(table, spec)
    eta = X @ np.array(restricted.coefficients)
    p = _inverse(link, eta)
    info = _score_info(link, X, cases, totals, eta, p)[1]
    try:
        se = float(math.sqrt(np.linalg.inv(info)[1, 1]))
    except (np.linalg.LinAlgError, ValueError):
        se = 0.1
    h0 = max(se, 1e-4)

    unbounded = _runs_off(table, restricted)

    def side(b1: float) -> int:
        """-1 inside the interval, +1 past the crossing, 0 where no model is feasible."""
        try:
            excess = 2.0 * (llmax - profile_loglik(table, link, b1)) - q
        except DomainError:
            return 0
        return 1 if excess >= 0.0 else -1

    cap_lo = min(-_B1_SPAN, b1hat - 1.0)
    cap_hi = max(_B1_SPAN, b1hat + 1.0)

    def endpoint(direction: int) -> tuple[float, bool]:
        # an infeasible b1 counts as lying beyond the crossing; the endpoint
        # is truncated at the last feasible b1 when no crossing is seen
        if direction in unbounded:
            return b1hat, True
        inner, h = b1hat, h0
        for _ in range(_MAX_DOUBLINGS):
            trial = min(cap_hi, max(cap_lo, b1hat + direction * h))
            if trial == inner:
                return inner, True
            s = side(trial)
            if s >= 0:
                outer, crossed = trial, s > 0
                break
            inner = trial
            h *= 2.0
        else:
            return inner, True
        for _ in range(100):
            if abs(outer - inner) <= 1e-12:
                break
            mid = 0.5 * (inner + outer)
            s = side(mid)
            if s >= 0:
                outer, crossed = mid, s > 0
            else:
                inner = mid
        return (0.5 * (inner + outer), False) if crossed else (inner, True)

    lo_b1, lo_trunc = endpoint(-1)
    hi_b1, hi_trunc = endpoint(+1)
    transform = (lambda b: b) if link is LinkFunction.IDENTITY else math.exp
    return ProfileCI(
        lower=transform(lo_b1),
        upper=transform(hi_b1),
        level=level,
        lower_truncated=lo_trunc,
        upper_truncated=hi_trunc,
    )


# ---------------------------------------------------------------------------
# chi-square upper tail via the regularized incomplete gamma function
# ---------------------------------------------------------------------------

_GAMMA_EPS = 1e-16
_GAMMA_MAX_ITER = 500


def _gamma_p_series(a: float, x: float) -> float:
    # lower regularized gamma by power series, for x < a + 1
    term = 1.0 / a
    total = term
    n = 0
    while n < _GAMMA_MAX_ITER:
        n += 1
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # upper regularized gamma by Lentz continued fraction, for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if x < 0.0:
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise DomainError(f"df must be a positive integer, got {df!r}")
    if x == 0.0:
        return 1.0
    a = 0.5 * df
    z = 0.5 * x
    if z < a + 1.0:
        return 1.0 - _gamma_p_series(a, z)
    return _gamma_q_contfrac(a, z)


def chi2_quantile(level: float, df: int) -> float:
    """The x with chi2_sf(x, df) = 1 - level, by bisection on the tail."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    target = 1.0 - level
    hi = 1.0
    while chi2_sf(hi, df) > target:
        hi *= 2.0
        if hi > 1e8:
            break
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_sf(mid, df) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
