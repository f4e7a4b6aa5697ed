"""Grouped-binomial GLM inference for the 2x2xK design.

One model family, four link functions (identity, log, logit,
complementary log-log), each paired with the association measure its
exposure coefficient estimates. The saturated (interaction) fit is the
empirical risks, and its log-likelihood their closed-form supremum. So is
the restricted (no-interaction) fit wherever that model reaches the
empirical risks: with one stratum, and where under the logit or cloglog
link the exposure coefficient runs off to infinity. Run-offs are decided
once, from the counts (_run_off), for the fit and the profile CI alike.
Any other restricted fit is Newton ascent on the grouped binomial
log-likelihood (observed-Hessian direction with a Fisher-scoring
fallback) under step-halving that keeps every cell probability strictly
inside (0, 1); where that ascent ends short of its gradient test, the
maximum of the profile log-likelihood of the exposure coefficient
replaces it. The last eight fits are memoized, so the LR test, the
profile CI and the figures reuse a table's fits instead of refitting it.
With the exposure coefficient b1 held fixed each stratum keeps one free
coefficient and its log-likelihood is concave in it, so the profile
log-likelihood lp(b1) is a sum of one-dimensional concave maximizations,
solved stratum by stratum in scalar floats with each cell's
log-likelihood computed from its linear predictor, and lp is concave in
b1. Under the identity, log and logit links a stratum's maximizer is a
root in closed form: the restricted maximum-likelihood risks under a
common risk difference (a cubic) and a common risk ratio (a quadratic)
of Miettinen & Nurminen 1985 (Stat Med 4:213-226), and the fitted count
under a common odds ratio (a quadratic; Breslow & Day 1980, IARC Sci Publ
32). A safeguarded Newton iteration starts from that root and as a rule
stops at its first evaluation, which by concavity also rules out a
maximum at an end of the stratum's feasible range, so no end is
evaluated; under cloglog it starts from the stratum's data.
Each solve also gives its maximum's first two derivatives in b1, the
first from the cell whose curvature is the smaller. One function,
profile_loglik_slope, returns lp, lp' and lp''; the fit's profile maximum
and the profile CI, whose endpoints are found by Halley's method from
those derivatives, both work through it. Interval estimation is by
profile likelihood only.

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
# a closed-form or profile-maximum fit whose maximum sends a cell's
# probability to 0 or 1 reports that cell at _EPS or 1 - _EPS: inside
# (0, 1), where measures are defined, and within _BOUNDARY_TOL of the
# bound, so boundary_warning flags it
_EPS = 1e-13
_MAX_ITER = 200
_LN2 = math.log(2.0)  # where the cloglog log p changes formula


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
    # callers that can overflow np.exp set np.errstate (the ascent once for
    # all its iterations), as for _dinverse and _d2inverse
    if link is LinkFunction.IDENTITY:
        return np.asarray(eta, dtype=float).copy()
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
    return np.exp(eta - np.exp(eta))


def _d2inverse(link: LinkFunction, eta: np.ndarray, p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    if link is LinkFunction.IDENTITY:
        return np.zeros_like(eta)
    if link is LinkFunction.LOG:
        return p.copy()
    if link is LinkFunction.LOGIT:
        return dp * (1.0 - 2.0 * p)
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
    """A maximum-likelihood fit (see fit). ``loglik`` is the log-likelihood
    the fit reaches: the supremum over the model for a closed-form fit (the
    saturated one, and a restricted one with one stratum or whose exposure
    coefficient runs off) and for a restricted fit taken from the profile
    maximum, and the log-likelihood at ``coefficients`` for one taken from
    the Newton ascent. ``fitted_points`` are the cell probabilities, as
    (unexposed, exposed) risk points per stratum, with the boundary rule of
    fit."""

    spec: ModelSpec
    coefficients: tuple[float, ...]
    loglik: float
    fitted_points: tuple[RiskPoint, ...]
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
    return _ll(cases, totals - cases, p)


def _ll(cases: np.ndarray, failures: np.ndarray, p: np.ndarray) -> float:
    # from p, for loglik and the Newton ascent, whose iterates depend on these bits
    return float(cases @ np.log(p) + failures @ np.log1p(-p))


_P_FLOOR = 1e-300  # subnormal probabilities break Fisher scoring arithmetic
_DBL_EPS = float(np.finfo(float).eps)


def _feasible(p: np.ndarray) -> bool:
    # NaN fails both comparisons and +-inf one of them
    return bool(p.min() > _P_FLOOR and p.max() < 1.0)


def _score_info(link, X, Xt, cases, totals, eta, p):
    """Score, Fisher information, and the cell terms v, dp/deta and residual
    (Xt is X.T)."""
    v = p * (1.0 - p)
    dp = _dinverse(link, eta, p)
    resid = cases - totals * p
    u = Xt @ (resid / v * dp)
    info = Xt @ ((totals * dp * dp / v)[:, None] * X)
    return u, info, v, dp, resid


def score(table: StratifiedTable, spec: ModelSpec, beta) -> np.ndarray:
    """Analytic score (gradient of the log-likelihood) at feasible coefficients."""
    X, cases, totals = _problem(table, spec)
    eta = X @ np.asarray(beta, dtype=float)
    with np.errstate(over="ignore"):
        p = _inverse(spec.link, eta)
    if not _feasible(p):
        raise DomainError("coefficients give cell probabilities outside (0, 1)")
    return _score_info(spec.link, X, X.T, cases, totals, eta, p)[0]


def loglik_at(table: StratifiedTable, spec: ModelSpec, beta) -> float:
    """Log-likelihood at a coefficient vector, with log p and log(1 - p)
    computed from eta as the profile's cell functions compute them (log p
    of a p rounded near 1 would lose digits); DomainError when infeasible."""
    X, cases, totals = _problem(table, spec)
    eta = X @ np.asarray(beta, dtype=float)
    with np.errstate(over="ignore"):
        p = _inverse(spec.link, eta)
    if not _feasible(p):
        raise DomainError("coefficients give cell probabilities outside (0, 1)")
    link = spec.link
    if link is LinkFunction.IDENTITY:
        log_p, log_q = np.log(eta), np.log1p(-eta)
    elif link is LinkFunction.LOG:
        log_p, log_q = eta, np.log(-np.expm1(eta))
    elif link is LinkFunction.LOGIT:
        log_p, log_q = -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)
    else:
        # log p as _cloglog_cell takes it
        t = np.exp(eta)
        log_p, log_q, big = np.log(-np.expm1(-t)), -t, t > _LN2
        log_p[big] = np.log1p(-np.exp(-t[big]))
    return float(cases @ log_p + (totals - cases) @ log_q)


def _solve_direction(matrix, u):
    try:
        delta = np.linalg.solve(matrix, u)
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(matrix, u, rcond=None)[0]
    if not np.isfinite(delta).all():
        delta = np.linalg.lstsq(matrix, u, rcond=None)[0]
    return delta


def _newton(link, X, cases, totals, beta0, max_iter=_MAX_ITER):
    """Newton ascent on the grouped-binomial log-likelihood with step-halving;
    the iterate always keeps every cell probability strictly inside (0, 1).

    Each iteration tries the observed-Hessian Newton direction first
    (quadratic near the optimum, and free of the slow two-cycles Fisher
    scoring shows for non-canonical links) and falls back to the Fisher
    scoring direction, which is always an ascent direction. The whole
    ascent runs under one np.errstate that silences floating-point
    warnings: an overflowing candidate fails the feasibility test and a
    non-finite direction is discarded by value.

    Returns (beta, loglik, converged, iterations, gradient_norm, p)."""
    Xt, failures = X.T, totals - cases
    with np.errstate(all="ignore"):
        beta = np.asarray(beta0, dtype=float).copy()
        eta = X @ beta
        p = _inverse(link, eta)
        if not _feasible(p):
            raise DomainError("infeasible starting coefficients")
        ll = _ll(cases, failures, p)
        gnorm = math.inf
        iterations = 0
        converged = False
        stalled = 0
        for _ in range(max_iter):
            u, info, v, dp, resid = _score_info(link, X, Xt, cases, totals, eta, p)
            gnorm = float(np.abs(u).max())
            if gnorm < _GRAD_TOL:
                converged = True
                break
            directions = []
            neg_curv = dp * dp * (totals / v + resid * (1.0 - 2.0 * p) / (v * v)) - (
                resid * _d2inverse(link, eta, p, dp) / v
            )
            if np.isfinite(neg_curv).all():
                newton_delta = _solve_direction(Xt @ (neg_curv[:, None] * X), u)
                if np.isfinite(newton_delta).all() and float(u @ newton_delta) > 0.0:
                    directions.append(newton_delta)
            directions.append(_solve_direction(info, u))
            slack = 32.0 * _DBL_EPS * (1.0 + abs(ll))
            best = None
            for delta in directions:
                step = 1.0
                while step >= 2.0**-60:
                    cand = beta + step * delta
                    eta_c = X @ cand
                    p_c = _inverse(link, eta_c)
                    if _feasible(p_c):
                        ll_c = _ll(cases, failures, p_c)
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
                    u = _score_info(link, X, Xt, cases, totals, eta, p)[0]
                    gnorm = float(np.abs(u).max())
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


def fit(table: StratifiedTable, spec: ModelSpec) -> FitResult:
    """Maximum-likelihood fit of the binomial GLM.

    The saturated fit (interaction) is the empirical risks, in closed form
    (``iterations`` and ``gradient_norm`` 0), and its ``loglik`` is
    sum y log(y/n) + (n - y) log(1 - y/n) over the cells, with 0 log 0 = 0.
    The restricted fit is that same closed form, with the same fitted
    points, ``loglik``, ``iterations`` and ``gradient_norm``, wherever the
    model reaches the empirical risks:
    - where under the logit or cloglog link b1 runs off to +inf or -inf,
      decided from the counts (see _run_off): b1 is the end of its range
      in that direction, +-(e_hi - e_lo) with e_lo and e_hi the etas of
      1e-13 and 1 - 1e-13, and each stratum's unexposed eta keeps the
      cell that does not run off at its observed risk;
    - otherwise with one stratum, where the model is saturated:
      b1 = eta1 - eta0.
    Any other restricted fit is Newton ascent (see _newton) from the
    closed-form null fit; it stops when the gradient max-norm falls below
    1e-10, when no feasible ascent step is left, or after two successive
    log-likelihood changes below max(1e-12, 8 ulp(loglik)), and its
    ``loglik`` is the log-likelihood at its coefficients. When it ends
    other than by the gradient test (short of a maximum on the identity or
    log link's constraint p >= 0 or p <= 1, toward which step-halving
    creeps, or out of iterations), the maximum of the profile
    log-likelihood lp(b1) is sought from its b1 (see _profile_max) and,
    when found within 200 steps, taken: ``loglik`` is then lp at the
    estimate, ``iterations`` counts the steps on b1 and ``gradient_norm``
    is |lp'| at the estimate. ConvergenceError, carrying the Newton
    ascent's last iterate, is raised only when neither converges within
    200 iterations.

    Boundary rule for the closed forms and the profile maximum: a maximum at
    a cell probability of 0 or 1 (a zero or full cell, or a bound of the
    link) is reported with the cell at 1e-13 or 1 - 1e-13, and
    ``boundary_warning`` flags any fitted probability within 1e-12 of 0 or
    1. The rule applies to the reported coefficients and fitted points
    only; ``loglik`` stays the supremum.

    Fits are memoized: equal tables and specs return the same FitResult
    object, and the last 8 fits (one table's four links times two models)
    are kept. A fit that raises is not kept. The memo is the only way fits
    are shared: the LR test, the profile CI and the figures each call fit.
    """
    # a plain function over the memo, not a decorated one: bench/spans.py
    # traces only plain functions, and its fit counters read calls of fit
    return _fit(table, spec)


def _reference_coded(a, b) -> np.ndarray:
    """Coefficients from each stratum's unexposed eta a_j and exposure
    effect b_j (one b for the no-interaction model)."""
    return np.array([a[0], b[0], *(aj - a[0] for aj in a[1:]), *(bj - b[0] for bj in b[1:])])


def _result(spec: ModelSpec, beta, loglik: float, p, iterations: int, gnorm: float) -> FitResult:
    """The FitResult of coefficients beta with cell probabilities p (cell order)."""
    return FitResult(
        spec=spec,
        coefficients=tuple(float(b) for b in beta),
        loglik=loglik,
        fitted_points=tuple(RiskPoint(float(p[j + 1]), float(p[j])) for j in range(0, len(p), 2)),
        iterations=iterations,
        boundary_warning=bool(min(p) < _BOUNDARY_TOL or max(p) > 1.0 - _BOUNDARY_TOL),
        gradient_norm=gnorm,
    )


@functools.lru_cache(maxsize=8)
def _fit(table: StratifiedTable, spec: ModelSpec) -> FitResult:
    link = spec.link
    if spec.interaction and table.k < 2:
        raise DomainError("an interaction model needs at least two strata")
    direction = 0 if spec.interaction else _run_off(table, link)
    if spec.interaction or table.k == 1 or direction:
        # the model reaches the empirical risks: the closed form
        p, terms = [], []
        for s in table.strata:
            for c in (s.exposed, s.unexposed):
                risk = c.cases / c.total
                if c.cases:
                    terms.append(c.cases * math.log(risk))
                if c.cases < c.total:
                    terms.append((c.total - c.cases) * math.log1p(-risk))
                p.append(min(1.0 - _EPS, max(_EPS, risk)))
        eta = [_LINK_SCALAR[link](v) for v in p]
        a, b = eta[1::2], [e1 - e0 for e1, e0 in zip(eta[::2], eta[1::2])]
        if direction:
            # each stratum's a keeps the cell that does not run off at its data
            e_lo, e_hi = _EDGES[link]
            b1 = direction * (e_hi - e_lo)
            exposed_off = [s.exposed.cases == (s.exposed.total if direction > 0 else 0) for s in table.strata]
            a = [e0 if off else e1 - b1 for off, e1, e0 in zip(exposed_off, eta[::2], eta[1::2])]
            b = [b1]
        return _result(spec, _reference_coded(a, b), math.fsum(terms), p, 0, 0.0)
    X, cases, totals = _problem(table, spec)
    failed = None
    try:
        beta, _, _, iterations, gnorm, _ = _newton(link, X, cases, totals, _null_init(table, link, X.shape[1]))
    except ConvergenceError as err:
        failed, beta, gnorm = err, np.array(err.coefficients), math.inf
    if gnorm >= _GRAD_TOL:
        # the ascent ended short of its gradient test, as it does against
        # a constraint it creeps toward: the profile maximum from its b1
        found = _profile_max(table, link, float(beta[1]))
        if found is not None:
            b1, ll, a, gnorm, iterations = found
            beta = _reference_coded(a, [b1])
            p = np.clip(_inverse(link, X @ beta), _EPS, 1.0 - _EPS)
            return _result(spec, beta, ll, p, iterations, gnorm)
        if failed is not None:
            raise failed
    return _result(spec, beta, loglik_at(table, spec, beta), _inverse(link, X @ beta), iterations, gnorm)


def common_measure(result: FitResult) -> float:
    """The common association measure implied by a no-interaction fit: b1
    for the identity link, exp(b1) otherwise."""
    if result.spec.interaction:
        raise ValueError("common_measure requires a no-interaction fit")
    b1 = result.coefficients[1]
    return b1 if result.spec.link is LinkFunction.IDENTITY else math.exp(b1)


@dataclass(frozen=True)
class LRTest:
    statistic: float
    df: int
    p_value: float


def lr_test_interaction(table: StratifiedTable, link: LinkFunction) -> LRTest:
    """Likelihood-ratio test of the K-1 exposure-by-stratum interaction
    terms, from the table's two fits (see fit, whose memo shares them)."""
    if table.k < 2:
        raise DomainError("interaction test needs at least two strata")
    restricted = fit(table, ModelSpec(link, interaction=False))
    saturated = fit(table, ModelSpec(link, interaction=True))
    stat = max(0.0, 2.0 * (saturated.loglik - restricted.loglik))
    df = table.k - 1
    return LRTest(stat, df, chi2_sf(stat, df))


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
    # with t = e^eta: log(1 - p) = -t, and log p = log(1 - e^-t) taken as
    # log1p(-e^-t) above t = ln 2 and log(-expm1(-t)) below, each where it
    # keeps its digits (Maechler 2012, "Accurately computing log(1 - exp(-|a|))");
    # log p of a p rounded next to 1 would keep only its last bits
    t = math.exp(min(eta, 709.0))  # e^709 is near the largest float
    l = d = h = -f * t
    if y:
        if t < 1e-150:  # p = t (1 - t/2 + ...), so log p = eta to within t/2
            l += y * eta
            d += y
        else:
            p, e = -math.expm1(-t), math.exp(-t)
            g = t * e / p  # d log p / d eta = t / expm1(t)
            # p - t, by its series where the subtraction would cancel
            pt = p - t if t > 1e-4 else -t * t * (0.5 - t * (1.0 / 6.0 - t / 24.0))
            l += y * (math.log1p(-e) if t > _LN2 else math.log(p))
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
_A_TOL = 2e-15  # relative step at which a one-dimensional solve stops
# per link, the eta at which p is _EPS and 1 - _EPS
_EDGES = {link: (f(_EPS), f(1.0 - _EPS)) for link, f in _LINK_SCALAR.items()}


# Closed-form roots of a stratum's l'(a), the restricted maximum-likelihood
# risks under a common risk difference and risk ratio (Miettinen & Nurminen
# 1985, Stat Med 4:213-226) and the fitted count under a common odds ratio
# (Breslow & Day 1980, IARC Sci Publ 32). Each takes the stratum's counts
# and b1 and returns a (nan where the form has no usable root), which
# _stratum_max starts from only inside its bracket. The quadratics are
# solved for u = e^eta of the cell whose eta is the larger, so
# c = e^-|b1| <= 1 cannot overflow.


def _identity_root(y0, f0, y1, f1, b1):
    # a (1 - a)(a + b1)(1 - a - b1) l'(a) is the cubic
    # n (a^3 + 3 b a^2 + 3 c a) + y0 b1 (1 - b1), whose middle root is the
    # feasible one, here in Miettinen & Nurminen's trigonometric form; where
    # two roots lie close (a zero count's root on a bracket end, rare events
    # at small |b1|) it loses digits, and _stratum_max takes one more step
    n0, s = y0 + f0, y0 + y1
    n = n0 + y1 + f1
    b = (b1 * (n0 + n) - n - s) / (3.0 * n)
    c = (b1 * (b1 * n0 - n - 2.0 * y0) + s) / (3.0 * n)
    v = b * b * b - 1.5 * b * c + y0 * b1 * (1.0 - b1) / (2.0 * n)
    u = math.copysign(math.sqrt(max(b * b - c, 0.0)), v)
    cube = u * u * u
    w = (math.pi + math.acos(max(-1.0, min(1.0, v / cube)) if cube else 0.0)) / 3.0
    return 2.0 * u * math.cos(w) - b


def _log_root(y0, f0, y1, f1, b1):
    # the smaller root of c n u^2 - (p + c q) u + s = 0, with the
    # discriminant (p + c q)^2 - 4 c n s written as (p - c q)^2 + 4 c f0 f1
    if b1 > 0.0:
        y0, f0, y1, f1 = y1, f1, y0, f0
    s, c = y0 + y1, math.exp(-abs(b1))
    p, q = s + f0, s + f1
    u = 2.0 * s / (p + c * q + math.sqrt((p - c * q) ** 2 + 4.0 * c * f0 * f1))
    return _log_unexposed(u, c, b1)


def _logit_root(y0, f0, y1, f1, b1):
    # the positive root of c f u^2 + b u - s = 0, from the formula whose
    # terms do not cancel for the sign of b
    if b1 > 0.0:
        y0, f0, y1, f1 = y1, f1, y0, f0
    s, f, c = y0 + y1, f0 + f1, math.exp(-abs(b1))
    if not c:
        return math.nan
    b = (f0 - y1) + c * (f1 - y0)
    r = math.sqrt(b * b + 4.0 * c * f * s)
    return _log_unexposed(2.0 * s / (b + r) if b >= 0.0 else (r - b) / (2.0 * c * f), c, b1)


def _log_unexposed(u, c, b1):
    # a = log(c u) when u is the exposed cell's e^eta: log(u) - b1 would lose
    # the digits of b1 that a does not carry
    u = c * u if b1 > 0.0 else u
    return math.log(u) if 0.0 < u < math.inf else math.nan


# keyed by link: the cell functions in _CELL may be wrapped (tests count their calls)
_ROOT = {
    LinkFunction.IDENTITY: _identity_root,
    LinkFunction.LOG: _log_root,
    LinkFunction.LOGIT: _logit_root,
}


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


def _end_max(cell, y0, f0, y1, f1, b1, lo, hi):
    """The supremum at an end of (lo, hi) where l' does not point into the
    bracket (or its limit at an infinite end), as _stratum_max returns it;
    None when l' points inward at both ends."""
    for end, inward in ((lo, 1.0), (hi, -1.0)):
        if math.isinf(end):
            # a -> -inf sends every p to 0 and a -> +inf every p to 1
            if not (y0 + y1 if end < 0.0 else f0 + f1):
                return 0.0, end, 0.0, 0.0
        else:
            # end + b1 is exact at the end where the exposed p is 0 or 1
            l0, d0, h0 = cell(y0, f0, end)
            l1, d1, h1 = cell(y1, f1, end + b1)
            if inward * (d0 + d1) <= 0.0:
                return (l0 + l1, end, -d0, h0) if end + b1 in (0.0, 1.0) else (l0 + l1, end, d1, h1)
    return None


def _stratum_max(cell, root, stratum, b1, lo, hi):
    """Supremum over a in (lo, hi) of the concave stratum log-likelihood
    l(a) = cell(y0, f0, a) + cell(y1, f1, a + b1), the a where it is
    reached, and the supremum's first two derivatives in b1:
    (l, a, dl/db1, d2l/db1^2).

    By the envelope theorem the first is the exposed cell's dl/deta at a
    fixed end, minus the unexposed cell's at an end that moves with b1
    (a = -b1 or 1 - b1, the exposed p at 0 or 1), 0 at an infinite end. At
    an interior maximum the two are equal, d1 = -d0, and it is taken from
    the cell whose h, its d2l/deta2, is the smaller in magnitude: an error
    in a moves that cell's derivative least (at a p rounded next to 0 or 1
    the other cell's can be all rounding). The second is h0 h1 / (h0 + h1)
    at an interior maximum (a moves with b1 at the rate -h1 / (h0 + h1)),
    the h of the cell whose eta moves with b1 at a constraint end, and 0 at
    an infinite end.
    An interior root of l' lies between the two cells' own maximizers, e0
    and e1 - b1 (-inf for a zero cell, +inf for a full one), and Newton's
    method on l' runs inside that data bracket, narrowed by every
    evaluation. It starts from the root(y0, f0, y1, f1, b1) in closed form
    (see _ROOT) when that lies inside the data bracket, and its first
    evaluation there meets the stop test as a rule: by concavity the
    maximum is then that root, and no end of (lo, hi) is evaluated. When
    l' does not point into (lo, hi) at an end (or its limit at an infinite
    end), that end and its limit are returned (see _end_max); the ends are
    checked only before a loop that starts elsewhere, or once the root has
    missed the stop test, and the loop then goes on from that evaluation.
    Where root is None (cloglog) or its value is not inside the data
    bracket, the loop starts from the mean of the targets e0 and e1 - b1,
    each clipped into the bracket, weighted by the cell totals. The first
    step is at most 1 and each later one at most twice the last; a Newton
    step over 3/4 of the one before, in the same direction, is raised to
    that limit. A step bisects the bracket when it would leave it, or when
    the last step crossed the root and less than halved |l'|. Stops when a
    step is below _A_TOL * max(1, |a|)."""
    y0, f0, e0, y1, f1, e1, w = stratum
    e1 -= b1
    t0 = e0 if y0 and f0 else math.copysign(math.inf, y0 - 0.5)
    t1 = e1 if y1 and f1 else math.copysign(math.inf, y1 - 0.5)
    ends = lo, hi
    lo, hi = max(lo, min(t0, t1)), min(hi, max(t0, t1))
    # no root to look for where every cell is empty (lo = hi = -inf) or full
    a = root(y0, f0, y1, f1, b1) if root and lo < hi else math.nan
    if not lo < a < hi:
        found = _end_max(cell, y0, f0, y1, f1, b1, *ends)
        if found is not None:
            return found
        ends = None
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
            break
        newton = step = -d / h if h < 0.0 else math.copysign(math.inf, d)
        tol = _A_TOL * max(1.0, abs(a))
        if abs(newton) <= tol:
            break
        if ends is not None:
            # the closed-form root missed the stop test: an end may yet be the maximum
            found = _end_max(cell, y0, f0, y1, f1, b1, *ends)
            if found is not None:
                return found
            ends = None
        limit = 1.0 if math.isinf(move) else 2.0 * abs(move)
        if not abs(step) <= limit or (newton * newton_old > 0.0 and abs(newton) > 0.75 * abs(newton_old)):
            step = math.copysign(limit, d)
        if not lo < a + step < hi or (d * d_old < 0.0 and abs(d) > 0.5 * abs(d_old)):
            step = 0.5 * (lo + hi) - a
            if abs(step) <= tol:
                break
        move, newton_old, d_old = step, newton, d
        a += step
    else:
        raise ConvergenceError(f"profile solve of a stratum did not converge at exposure coefficient {b1}")
    return l0 + l1, a, (d1 if h1 >= h0 else -d0), (h0 * h1 / h if h < 0.0 else 0.0)


def _bracket(link: LinkFunction, b1: float) -> tuple[float, float]:
    """The feasible range of the unexposed eta a at this b1: (max(0, -b1),
    min(1, 1 - b1)) under the identity link, (-inf, min(0, -b1)) under the
    log link, and all of R otherwise; DomainError when it is empty."""
    if link is LinkFunction.IDENTITY:
        lo, hi = max(0.0, -b1), min(1.0, 1.0 - b1)
        if not lo < hi:
            raise DomainError(f"no feasible model with exposure coefficient {b1}")
        return lo, hi
    return -math.inf, (min(0.0, -b1) if link is LinkFunction.LOG else math.inf)


def profile_loglik_slope(table: StratifiedTable, link: LinkFunction, b1: float) -> tuple[float, float, float]:
    """(lp(b1), lp'(b1), lp''(b1)): the profile log-likelihood (see
    profile_loglik) and the sums of the first and second derivatives in b1
    of the strata's maxima (see _stratum_max). The fit's profile maximum,
    the profile CI and profile_loglik all evaluate lp through this function.
    Raises DomainError when no coefficients are feasible at this b1."""
    lo, hi = _bracket(link, b1)
    cell, root = _CELL[link], _ROOT.get(link)
    total = slope = curvature = 0.0
    for stratum in _profile_strata(table, link):
        l, _, d, h = _stratum_max(cell, root, stratum, b1, lo, hi)
        total += l
        slope += d
        curvature += h
    return total, slope, curvature


def profile_loglik(table: StratifiedTable, link: LinkFunction, b1: float) -> float:
    """Log-likelihood of the no-interaction model maximized over all
    coefficients except the exposure coefficient, held at b1.

    The maximum is the sum over strata of one concave maximization each in
    the stratum's unexposed linear predictor a, over its exact feasible
    bracket (see _bracket). Each starts from the stratum's data, not from a
    solve at another b1, so the profile is a function of b1 alone (see
    _stratum_max).

    Raises DomainError when no coefficients are feasible at this b1."""
    return profile_loglik_slope(table, link, b1)[0]


def _newton_root(func, x: float, lo: float, hi: float, tol, capped: bool = False):
    """A root of func, increasing on the bracket (lo, hi), by Newton's
    method from x in it. func(x) returns (v, v', extra).

    Each evaluation narrows the bracket by the sign of v. A step that would
    leave the bracket bisects it, as does one after a step that crossed the
    root and less than halved |v|. When capped, hi is a cap, not a point
    known to lie above the root: until one is seen, such a step doubles x's
    distance from the first lo instead, up to the cap. Stops when v is 0 or
    a step is at most tol(x).

    Returns (root, extra, steps, stop), extra from the last x evaluated.
    stop is "root" (root is that x plus its step), "edge" (v has one sign
    up to an end of the bracket, and root is that end) or "limit" (_MAX_ITER
    steps taken; root is the last x)."""
    origin = lo
    v_old = 0.0
    for steps in range(1, _MAX_ITER + 1):
        v, dv, extra = func(x)
        if v < 0.0:
            lo = x
        elif v > 0.0:
            hi, capped = x, False
        else:
            return x, extra, steps, "root"
        step = -v / dv if dv > 0.0 else math.copysign(math.inf, -v)
        bad = not lo < x + step < hi or (v * v_old < 0.0 and abs(v) > 0.5 * abs(v_old))
        if bad and abs(step) > tol(x):
            step = (min(2.0 * x - origin, hi) if capped else 0.5 * (lo + hi)) - x
        if abs(step) <= tol(x):
            return (x, extra, steps, "edge") if lo == hi else (x + step, extra, steps, "root")
        x += step
        v_old = v
    return x, extra, _MAX_ITER, "limit"


def _run_off(table: StratifiedTable, link: LinkFunction) -> int:
    """+1 or -1 when, under the logit or cloglog link, lp rises to its
    supremum as b1 goes to that infinity and not the other: every stratum
    has f1 = 0 or y0 = 0 (+1), or y1 = 0 or f0 = 0 (-1), the quasi-complete
    separation of Albert & Anderson 1984 (Biometrika 71:1-10); else 0."""
    if link not in (LinkFunction.LOGIT, LinkFunction.CLOGLOG):
        return 0
    up = all(s.exposed.cases == s.exposed.total or not s.unexposed.cases for s in table.strata)
    down = all(not s.exposed.cases or s.unexposed.cases == s.unexposed.total for s in table.strata)
    return up - down


def _profile_max(table: StratifiedTable, link: LinkFunction, b1: float):
    """The maximum of the concave lp over |b1| <= e_hi - e_lo, the b1 at
    which a stratum's two cells can keep p in [_EPS, 1 - _EPS]: the root of
    -lp' by _newton_root from b1, to a step of 2e-15 max(1, |b1|). fit asks
    for it only where the maximum is finite (a run-off, decided from the
    counts, is taken in closed form); a maximum at an end of the range is
    reached within that step of it.

    Returns (b1, lp(b1), a, |lp'(b1)|, steps) at the last b1 evaluated, or
    None when _MAX_ITER steps end short. a holds each stratum's maximizer
    clipped into the range that keeps both its cells' p in [_EPS, 1 - _EPS]
    (the boundary rule, see fit)."""
    e_lo, e_hi = _EDGES[link]
    bound = e_hi - e_lo

    def slope(b1: float):
        ll, d, h = profile_loglik_slope(table, link, b1)
        return -d, -h, (b1, ll, abs(d))

    _, (b1, ll, gnorm), steps, stop = _newton_root(
        slope, min(max(b1, -bound), bound), -bound, bound, lambda b: _A_TOL * max(1.0, abs(b))
    )
    if stop == "limit":
        return None
    a_lo, a_hi = e_lo - min(0.0, b1), e_hi - max(0.0, b1)
    lo, hi = _bracket(link, b1)
    cell, root = _CELL[link], _ROOT.get(link)
    a = [min(max(_stratum_max(cell, root, s, b1, lo, hi)[1], a_lo), a_hi) for s in _profile_strata(table, link)]
    return b1, ll, a, gnorm, steps


@dataclass(frozen=True)
class ProfileCI:
    """Profile-likelihood confidence interval on the measure scale."""

    lower: float
    upper: float
    level: float
    lower_truncated: bool = False
    upper_truncated: bool = False


# cap on b1's distance from 0: a crossing beyond exp(+-500) on a ratio
# scale is indistinguishable from an unbounded interval, and staying inside
# the cap keeps cell probabilities in the normal floating-point range
_B1_SPAN = 500.0
_B1_TOL = 1e-12  # an endpoint search stops at a step of _B1_TOL / 2 + 2 ulp(b1)


def profile_ci(table: StratifiedTable, link: LinkFunction, level: float = 0.95) -> ProfileCI:
    """Endpoints where the profile LR statistic for the exposure coefficient
    crosses the chi-square(1) quantile q, mapped to the measure scale.

    One profile solve at the estimate b1hat gives lp(b1hat) and
    lp''(b1hat), and both endpoint searches share it. l_max is the larger
    of lp(b1hat) and the fit's loglik: where the boundary rule reports a
    cell at 1e-13 from its bound, lp(b1hat) falls about n 1e-13 short of
    the closed-form supremum that loglik holds. Each endpoint is the root
    of the signed root f(b1) = r - sqrt(q), with
    r = sqrt(2 (l_max - lp(b1))), close to linear in b1, by Halley's
    method inside the safeguards of _newton_root: with f' = -lp'(b1) / r
    and f'' = (-lp''(b1) - f'^2) / r, all from one profile solve
    (profile_loglik_slope), the slope passed on is f' - f f'' / (2 f'),
    or f' itself where that would be at most f' / 2 or f' <= 0. The
    search starts at the Wald point b1hat +- sqrt(q / -lp''(b1hat)), but
    no farther from b1hat than the bound on |b1| of _profile_max's range.
    Until it has seen a b1 past the crossing, a step that would leave the
    range between the estimate and the cap doubles the distance from the
    estimate. The cap is that same bound under the identity link, whose
    feasible b1 are |b1| < 1, and +-500 (or the estimate +-1) under the
    others. It stops when a step is at most 5e-13 plus 2 ulp of b1 and
    returns b1 plus that step.

    An endpoint that does not cross before the cap is truncated at the cap
    and flagged. Under the logit and cloglog links the endpoint toward
    which b1's estimate runs off to infinity, decided from the counts as
    for the fit (see _run_off), is truncated at the estimate and flagged.
    The estimate comes from the no-interaction fit (see fit, whose memo
    shares it).
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    restricted = fit(table, ModelSpec(link, interaction=False))
    b1hat, root_q = restricted.coefficients[1], math.sqrt(chi2_quantile(level, 1))
    ll, _, curvature = profile_loglik_slope(table, link, b1hat)
    # the boundary rule leaves lp(b1hat) short of a closed-form supremum
    l_max = max(ll, restricted.loglik)
    e_lo, e_hi = _EDGES[link]
    bound = e_hi - e_lo
    wald = min(root_q / math.sqrt(-curvature), bound) if 0.0 < -curvature < math.inf else 0.1
    unbounded = _run_off(table, link)

    def endpoint(direction: int) -> tuple[float, bool]:
        if direction == unbounded:
            return b1hat, True

        def root(x: float):
            # f in x = direction * b1, and the slope of Halley's step where
            # it is at least half of f' (else Newton's); profile solves
            # start from the data, so f depends on b1 alone
            ll, slope, curvature = profile_loglik_slope(table, link, direction * x)
            r = math.sqrt(max(0.0, 2.0 * (l_max - ll)))
            if not r:
                return -root_q, math.nan, None
            v, dv = r - root_q, -direction * slope / r
            if dv > 0.0:
                halley = dv - v * ((-curvature - dv * dv) / r) / (2.0 * dv)
                if 0.5 * dv < halley < math.inf:
                    dv = halley
            return v, dv, None

        x = direction * b1hat
        cap = max(bound, x) if link is LinkFunction.IDENTITY else max(_B1_SPAN, x + 1.0)
        x, _, _, stop = _newton_root(
            root, min(x + max(wald, _B1_TOL), cap), x, cap,
            lambda x: 0.5 * _B1_TOL + 2.0 * math.ulp(x), capped=True,
        )
        return direction * x, stop == "edge"

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
# chi-square upper tail in closed form for integer df
# ---------------------------------------------------------------------------


def _check_df(df) -> None:
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise DomainError(f"df must be a positive integer, got {df!r}")


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    With z = x / 2 the tail is Q(df / 2, z), and Q(a + 1, z) = Q(a, z) +
    z^a e^-z / Gamma(a + 1) (Abramowitz & Stegun 26.4.4-26.4.5): for even df
    the sum of those terms from a = 0, for odd df erfc(sqrt(z)) plus the sum
    from a = 1/2. Each term is exp of its logarithm, so the tail stays
    exact where e^-z alone would underflow. The tail is 0 at x = inf."""
    if not x >= 0.0:  # NaN fails it too
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    _check_df(df)
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    z = 0.5 * x
    log_z, odd = math.log(z), df % 2
    terms = [math.erfc(math.sqrt(z))] if odd else []
    for i in range(df // 2):
        a = i + 0.5 * odd
        terms.append(math.exp(a * log_z - z - math.lgamma(a + 1.0)))
    return math.fsum(terms)


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
