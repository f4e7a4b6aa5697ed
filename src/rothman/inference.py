"""Grouped-binomial GLM inference for the 2x2xK design.

One model family, four link functions (identity, log, logit,
complementary log-log), each paired with the association measure its
exposure coefficient estimates. Fitting is Newton ascent on the grouped
binomial log-likelihood (observed-Hessian direction with a Fisher-scoring
fallback) under step-halving that keeps every cell probability strictly
inside (0, 1); the last eight fits are memoized, so the LR test, the
profile CI and the figures reuse a table's fits instead of refitting it.
Interval estimation is by profile likelihood only. With the exposure
coefficient held fixed each stratum keeps one free coefficient, so the
profile log-likelihood is a sum of one-dimensional concave maximizations,
solved stratum by stratum in scalar floats with each cell's log-likelihood
computed from its linear predictor.

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
from statistics import NormalDist

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
    # NaN fails both comparisons and +-inf one of them
    return bool(p.min() > _P_FLOOR and p.max() < 1.0)


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


def _newton(link, X, cases, totals, beta0, max_iter=_MAX_ITER):
    """Newton ascent on the grouped-binomial log-likelihood with step-halving;
    the iterate always keeps every cell probability strictly inside (0, 1).

    Each iteration tries the observed-Hessian Newton direction first
    (quadratic near the optimum, and free of the slow two-cycles Fisher
    scoring shows for non-canonical links) and falls back to the Fisher
    scoring direction, which is always an ascent direction.

    Returns (beta, loglik, converged, iterations, gradient_norm, p)."""
    beta = np.asarray(beta0, dtype=float).copy()
    eta = X @ beta
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
                eta_c = X @ cand
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
    the closed-form null fit. Newton stops when the gradient max-norm falls
    below 1e-10, when no feasible ascent step is left, or after two
    successive log-likelihood changes below max(1e-12, 8 ulp(loglik));
    raises ConvergenceError when none of these happens within max_iter
    iterations.

    Fits are memoized: equal tables, specs and max_iter return the same
    FitResult object, and the last 8 fits (one table's four links times
    two models) are kept. A fit that raises is not kept.
    """
    # a plain function over the memo, not a decorated one: bench/spans.py
    # traces only plain functions, and its fit counters read calls of fit
    return _fit(table, spec, max_iter)


@functools.lru_cache(maxsize=8)
def _fit(table: StratifiedTable, spec: ModelSpec, max_iter: int) -> FitResult:
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


# ---------------------------------------------------------------------------
# profile likelihood, one stratum at a time
# ---------------------------------------------------------------------------
#
# With b1 held fixed, stratum j keeps one free coordinate: the linear
# predictor a of its unexposed cell, whose exposed cell then has a + b1.
# Each cell's log-likelihood is concave in its eta, so each stratum's is
# concave in a and the profile is a sum of K one-dimensional maximizations.
# A cell function returns the log-likelihood of y cases and f non-cases and
# its first two derivatives in eta, computed from eta rather than from a
# rounded p; a term whose count is zero is left out (0 log 0 = 0).


def _identity_cell(y, f, eta):
    l = d = h = 0.0
    if y:
        if eta <= 0.0:
            return -math.inf, math.inf, -math.inf
        l, d, h = y * math.log(eta), y / eta, -y / (eta * eta)
    if f:
        if eta >= 1.0:
            return -math.inf, -math.inf, -math.inf
        r = 1.0 - eta
        l += f * math.log1p(-eta)
        d -= f / r
        h -= f / (r * r)
    return l, d, h


def _log_cell(y, f, eta):
    # log p = eta, log(1 - p) = log(-expm1(eta))
    l, d, h = y * eta, float(y), 0.0
    if f:
        if eta >= 0.0:
            return -math.inf, -math.inf, -math.inf
        p, q = math.exp(eta), -math.expm1(eta)
        l += f * math.log(q)
        d -= f * p / q
        h -= f * p / (q * q)
    return l, d, h


def _logit_cell(y, f, eta):
    # log p = -softplus(-eta), log(1 - p) = -softplus(eta)
    z = math.exp(-abs(eta))
    s = math.log1p(z)
    p, q = 1.0 / (1.0 + z), z / (1.0 + z)
    if eta < 0.0:
        p, q = q, p
    l = -(y * (max(-eta, 0.0) + s) + f * (max(eta, 0.0) + s))
    return l, y * q - f * p, -(y + f) * p * q


def _cloglog_cell(y, f, eta):
    # with t = e^eta: log(1 - p) = -t and log p = log(-expm1(-t))
    t = math.exp(min(eta, 709.0))  # e^709 is near the largest float
    l = d = h = -f * t
    if y:
        if t < 1e-150:  # p = t (1 - t/2 + ...), so log p = eta to within t/2
            l += y * eta
            d += y
        else:
            p = -math.expm1(-t)
            g = t * math.exp(-t) / p  # d log p / d eta = t / expm1(t)
            # p - t, by its series where the subtraction would cancel
            pt = p - t if t > 1e-4 else -t * t * (0.5 - t * (1.0 / 6.0 - t / 24.0))
            l += y * math.log(p)
            d += y * g
            h += y * g * pt / p
    return l, d, h


_CELL = {
    LinkFunction.IDENTITY: _identity_cell,
    LinkFunction.LOG: _log_cell,
    LinkFunction.LOGIT: _logit_cell,
    LinkFunction.CLOGLOG: _cloglog_cell,
}
_LINK_SCALAR = {
    LinkFunction.IDENTITY: lambda p: p,
    LinkFunction.LOG: math.log,
    LinkFunction.LOGIT: lambda p: math.log(p) - math.log1p(-p),
    LinkFunction.CLOGLOG: lambda p: math.log(-math.log1p(-p)),
}
_A_TOL = 2e-15  # relative step on a at which a stratum's solve stops


@functools.lru_cache(maxsize=32)
def _profile_strata(table: StratifiedTable, link: LinkFunction):
    """Per stratum, (y0, f0, e0, y1, f1, e1, w): cases, non-cases and the
    link of the adjusted empirical risk of its unexposed (0) and exposed (1)
    cells, and the exposed cell's share w of the stratum total."""
    to_eta = _LINK_SCALAR[link]
    out = []
    for s in table.strata:
        stratum = []
        for c in (s.unexposed, s.exposed):
            delta = 0.5 / (c.total + 1.0)
            p = min(1.0 - delta, max(delta, c.cases / c.total))
            stratum += [c.cases, c.total - c.cases, to_eta(p)]
        out.append((*stratum, s.exposed.total / (s.exposed.total + s.unexposed.total)))
    return tuple(out)


def _stratum_max(cell, stratum, b1, lo, hi):
    """Supremum over a in (lo, hi) of the concave stratum log-likelihood
    l(a) = cell(y0, f0, a) + cell(y1, f1, a + b1).

    When l' does not point into the bracket at an end (or its limit at an
    infinite end), that end's limit is returned. Otherwise the root of l'
    lies between the two cells' own maximizers, e0 and e1 - b1 (-inf for a
    zero cell, +inf for a full one), and Newton's method on l' runs inside
    that bracket, narrowed by every evaluation. It starts from the mean of
    the targets e0 and e1 - b1, each clipped into the bracket, weighted by
    the cell totals. The first step is at most 1 and each later one at most
    twice the last; a Newton step over 3/4 of the one before, in the same
    direction, is raised to that limit. A step bisects the bracket when it
    would leave it, or when the last step crossed the root and less than
    halved |l'|. Stops when a step is below _A_TOL * max(1, |a|)."""
    y0, f0, e0, y1, f1, e1, w = stratum
    for end, inward in ((lo, 1.0), (hi, -1.0)):
        if math.isinf(end):
            # a -> -inf sends every p to 0 and a -> +inf every p to 1
            if not (y0 + y1 if end < 0.0 else f0 + f1):
                return 0.0
        else:
            # end + b1 is exact at the end where the exposed p is 0 or 1
            l0, d0, _ = cell(y0, f0, end)
            l1, d1, _ = cell(y1, f1, end + b1)
            if inward * (d0 + d1) <= 0.0:
                return l0 + l1
    e1 -= b1
    t0 = e0 if y0 and f0 else math.copysign(math.inf, y0 - 0.5)
    t1 = e1 if y1 and f1 else math.copysign(math.inf, y1 - 0.5)
    lo, hi = max(lo, min(t0, t1)), min(hi, max(t0, t1))
    a = (1.0 - w) * min(max(e0, lo), hi) + w * min(max(e1, lo), hi)
    move = newton_old = d_old = math.inf
    for _ in range(_MAX_ITER):
        l0, d0, h0 = cell(y0, f0, a)
        l1, d1, h1 = cell(y1, f1, a + b1)
        d, h = d0 + d1, h0 + h1
        if d > 0.0:
            lo = a
        elif d < 0.0:
            hi = a
        else:
            return l0 + l1
        newton = step = -d / h if h < 0.0 else math.copysign(math.inf, d)
        tol = _A_TOL * max(1.0, abs(a))
        if abs(newton) <= tol:
            return l0 + l1
        limit = 1.0 if math.isinf(move) else 2.0 * abs(move)
        if not abs(step) <= limit or (newton * newton_old > 0.0 and abs(newton) > 0.75 * abs(newton_old)):
            step = math.copysign(limit, d)
        if not lo < a + step < hi or (d * d_old < 0.0 and abs(d) > 0.5 * abs(d_old)):
            step = 0.5 * (lo + hi) - a
            if abs(step) <= tol:
                return l0 + l1
        move, newton_old, d_old = step, newton, d
        a += step
    raise ConvergenceError(f"profile solve of a stratum did not converge at exposure coefficient {b1}")


def profile_loglik(table: StratifiedTable, link: LinkFunction, b1: float) -> float:
    """Log-likelihood of the no-interaction model maximized over all
    coefficients except the exposure coefficient, held at b1.

    The maximum is the sum over strata of one concave maximization each in
    the stratum's unexposed linear predictor a, over its exact feasible
    bracket: (max(0, -b1), min(1, 1 - b1)) under the identity link,
    (-inf, min(0, -b1)) under the log link, and all of R otherwise. Each
    starts from the stratum's data, not from a solve at another b1, so the
    profile is a function of b1 alone (see _stratum_max).

    Raises DomainError when no coefficients are feasible at this b1."""
    lo, hi = -math.inf, math.inf
    if link is LinkFunction.IDENTITY:
        lo, hi = max(0.0, -b1), min(1.0, 1.0 - b1)
        if not lo < hi:
            raise DomainError(f"no feasible model with exposure coefficient {b1}")
    elif link is LinkFunction.LOG:
        hi = min(0.0, -b1)
    cell = _CELL[link]
    total = 0.0
    for stratum in _profile_strata(table, link):
        total += _stratum_max(cell, stratum, b1, lo, hi)
    return total


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
_B1_TOL = 1e-12  # absolute width on b1 at which an endpoint search stops


def _zeroin(f, a: float, fa: float, b: float, fb: float) -> tuple[float, float]:
    """Brent's method (zeroin) for a root of f bracketed by a and b, where
    fa < 0 <= fb; an infinite f counts as positive and rules out
    interpolation, so the step after one is a bisection. Stops when the
    bracket is narrower than _B1_TOL and returns its end with the smaller
    |f| and the f at its other end."""
    # b is the best point so far, c brackets the root with it, a is the previous b
    c, fc = a, fa
    step = prev_step = b - a
    for _ in range(100):
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 0.5 * _B1_TOL + 2.0 * math.ulp(b)  # a step of tol always moves b
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) <= tol:
            break
        bisect = True
        if abs(prev_step) > tol and abs(fb) < abs(fa) and math.isfinite(fa + fc):
            if a == c:  # secant
                trial_step = -fb * (b - a) / (fb - fa)
            else:  # inverse quadratic interpolation
                da, dc = (fa - fb) / (a - b), (fc - fb) / (c - b)
                trial_step = -fb * (fc * dc - fa * da) / (da * dc * (fc - fa))
            if 2.0 * abs(trial_step) < min(abs(prev_step), 3.0 * abs(half) - tol):
                prev_step, step, bisect = step, trial_step, False
        if bisect:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            step = prev_step = b - a
    return b, fc


def profile_ci(
    table: StratifiedTable, link: LinkFunction, level: float = 0.95, *,
    restricted: FitResult | None = None,
) -> ProfileCI:
    """Endpoints where the profile LR statistic for the exposure coefficient
    crosses the chi-square(1) quantile q, mapped to the measure scale.

    Each endpoint is bracketed by geometric expansion from the estimate, then
    found by Brent's method (zeroin) on the signed root
    sqrt(2 (l_max - l_p(b1))) - sqrt(q), which is close to linear in b1, to
    an absolute width of 1e-12 on b1. An infeasible b1 counts as lying
    beyond the crossing and gets a bisection step.

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
    root_q = math.sqrt(chi2_quantile(level, 1))

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

    def root(b1: float) -> float:
        """Signed root less sqrt(q): < 0 inside the interval, >= 0 past the
        crossing, +inf where no model is feasible. Profile solves start
        from the data, not from the previous b1's solution, so the root is
        a function of b1 alone and does not depend on the order in which
        the search visits b1."""
        try:
            ll = profile_loglik(table, link, b1)
        except DomainError:
            return math.inf
        return math.sqrt(max(0.0, 2.0 * (llmax - ll))) - root_q

    cap_lo = min(-_B1_SPAN, b1hat - 1.0)
    cap_hi = max(_B1_SPAN, b1hat + 1.0)

    def endpoint(direction: int) -> tuple[float, bool]:
        # the endpoint is truncated at the last feasible b1 when no crossing is seen
        if direction in unbounded:
            return b1hat, True
        inner, f_inner, h = b1hat, -root_q, h0
        for _ in range(_MAX_DOUBLINGS):
            trial = min(cap_hi, max(cap_lo, b1hat + direction * h))
            if trial == inner:
                return inner, True
            f_trial = root(trial)
            if f_trial >= 0.0:
                break
            inner, f_inner = trial, f_trial
            h *= 2.0
        else:
            return inner, True
        b1, f_other = _zeroin(root, inner, f_inner, trial, f_trial)
        return b1, math.isinf(f_other)

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


def _check_df(df) -> None:
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise DomainError(f"df must be a positive integer, got {df!r}")


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if x < 0.0:
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    _check_df(df)
    if x == 0.0:
        return 1.0
    a = 0.5 * df
    z = 0.5 * x
    if z < a + 1.0:
        return 1.0 - _gamma_p_series(a, z)
    return _gamma_q_contfrac(a, z)


def chi2_quantile(level: float, df: int) -> float:
    """The x with chi2_sf(x, df) = 1 - level. For df = 1 this is the square
    of the standard normal quantile at (1 - level) / 2, taken in the lower
    tail, which (1 + level) / 2 would round near level 1; other df bisect
    on the tail."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    _check_df(df)
    if df == 1:
        return NormalDist().inv_cdf(0.5 * (1.0 - level)) ** 2
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
