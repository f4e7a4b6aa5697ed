"""Grouped-binomial GLM inference for the 2x2xK design.

One model family, four link functions (identity, log, logit,
complementary log-log), each paired with the association measure its
exposure coefficient estimates. The saturated (interaction) fit is the
empirical risks, and its log-likelihood their closed-form supremum. So is
the restricted (no-interaction) fit wherever that model reaches the
empirical risks: with one stratum, and where the exposure coefficient
runs off to an end of its range. Run-offs are decided once, from the
counts (_run_off), for the fit and the profile CI alike.
Any other restricted fit is first Newton ascent on the grouped binomial
log-likelihood in full steps (observed-Hessian or Fisher-scoring) that
keep every cell probability strictly inside (0, 1). It runs in scalar
floats on the profile's cell functions below and in the profile's
coordinates: b1, and each stratum's unexposed linear predictor, which
couples only to b1. So each step solves an arrowhead system in O(K), with
no dense linear algebra. Where that ascent ends short of its gradient
test, the fit is the maximum of the profile log-likelihood of the
exposure coefficient, found from the data, and either way the fit's
log-likelihood is that profile at its estimate. The last eight fits are
memoized, so the LR test, the profile CI and the figures reuse a table's
fits instead of refitting it.
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
32). That root is evaluated first and as a rule passes the stop test,
which by concavity also rules out a maximum at an end of the stratum's
feasible range, so no end is evaluated. Otherwise, and under cloglog from
the stratum's data, the solve goes on by _newton_root, the module's one
safeguarded Newton iteration, which also finds the profile maximum, the
CI endpoints and the chi-square quantile, and alone decides where a root
is found. Each solve also gives its maximum's first two derivatives in b1,
the first from the cell whose curvature is the smaller. profile_loglik_slope
returns lp, lp' and lp''; the fit's profile maximum and the profile CI,
the only interval estimate, found by Halley's method, work through it.

Cell order convention: for each stratum in table order, the exposed cell
then the unexposed cell (matching the CSV column order). The design is
reference-cell coded with the first stratum as reference, so the exposure
coefficient b1 is the common measure on the link scale.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

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
_LN2 = math.log(2.0)  # where the log link's log(1 - p) and cloglog's log p change formula


class LinkFunction(Enum):
    IDENTITY = "identity"
    LOG = "log"
    LOGIT = "logit"
    CLOGLOG = "cloglog"


@dataclass(frozen=True)
class _Link:
    """A link, defined once (see _LINKS): its measure, cell function, inverse
    and link in scalar floats, the closed form's eta of a cell of y cases
    and f > 0 non-cases from the counts (see fit), closed-form stratum
    root (or None), the (lo, hi) of the etas whose p is in [0, 1], the
    run-off rule of a stratum (see _run_off) and the map from b1 to the
    measure. The bracket of a, the constraint ends, lp's kink at b1 = 0 and
    the CI cap are derived from that eta range."""

    measure: Measure
    cell: Callable
    inverse: Callable
    to_eta: Callable
    near_one_eta: Callable[[int, int], float]
    root: Callable | None
    eta_range: tuple[float, float]
    run_off: Callable[[bool, bool], bool]
    to_measure: Callable

    @property
    def edges(self) -> tuple[float, float]:
        """The etas at which p is _EPS and 1 - _EPS."""
        return self.to_eta(_EPS), self.to_eta(1.0 - _EPS)

    @property
    def ends(self) -> tuple[float, ...]:
        """The finite ends of eta_range, where a cell's p is 0 or 1."""
        return tuple(e for e in self.eta_range if math.isfinite(e))


def measure_for_link(link: LinkFunction) -> Measure:
    return _LINKS[link].measure


def link_for_measure(measure: Measure) -> LinkFunction:
    return _LINK_FOR_MEASURE[measure]


@dataclass(frozen=True)
class ModelSpec:
    """Which link to fit, and whether exposure-by-stratum interaction terms
    are included (with them the model is saturated)."""

    link: LinkFunction
    interaction: bool


@dataclass(frozen=True)
class FitResult:
    """A maximum-likelihood fit (see fit). ``loglik`` is the supremum over
    the model for a closed-form fit (the saturated one, and a restricted one
    with one stratum or whose exposure coefficient runs off), and for any
    other restricted fit the profile log-likelihood lp at its exposure
    coefficient. ``fitted_points`` are the cell probabilities, as
    (unexposed, exposed) risk points per stratum, with the boundary rule of
    fit."""

    spec: ModelSpec
    coefficients: tuple[float, ...]
    loglik: float
    fitted_points: tuple[RiskPoint, ...]
    iterations: int
    boundary_warning: bool
    gradient_norm: float


def cell_counts(table: StratifiedTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(cases, totals) in cell order: exposed then unexposed per stratum."""
    cases, totals = [], []
    for s in table.strata:
        cases.extend([s.exposed.cases, s.unexposed.cases])
        totals.extend([s.exposed.total, s.unexposed.total])
    return tuple(cases), tuple(totals)


def design_matrix(table: StratifiedTable, spec: ModelSpec) -> tuple[tuple[float, ...], ...]:
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
            rows.append(tuple(row))
    return tuple(rows)


def _binomial_loglik(table: StratifiedTable, logs) -> float:
    """sum y log p + (n - y) log(1 - p) over the cells, from each cell's
    (log p, log(1 - p)) in cell order, by math.fsum."""
    cases, totals = cell_counts(table)
    return math.fsum(t for y, n, (log_p, log_q) in zip(cases, totals, logs) for t in (y * log_p, (n - y) * log_q))


def loglik(table: StratifiedTable, probs) -> float:
    """Grouped binomial log-likelihood at per-cell probabilities (binomial
    coefficients omitted). Cell order: exposed then unexposed per stratum."""
    p = [float(v) for v in probs]
    if len(p) != 2 * table.k:
        raise DomainError(f"expected {2 * table.k} cell probabilities, got {len(p)}")
    # NaN fails both comparisons
    if not all(0.0 < v < 1.0 for v in p):
        raise DomainError("cell probabilities must lie strictly inside (0, 1)")
    return _binomial_loglik(table, ((math.log(v), math.log1p(-v)) for v in p))


_P_FLOOR = 1e-300  # subnormal probabilities break Fisher scoring arithmetic
_DBL_EPS = math.ulp(1.0)


def _feasible(p) -> bool:
    # NaN fails both comparisons and +-inf one of them
    return all(_P_FLOOR < v < 1.0 for v in p)


def _inverse_at(table: StratifiedTable, spec: ModelSpec, beta):
    """The design matrix, eta, and each cell's p and dp/deta by the link's
    inverse at coefficients beta, as tuples in cell order; DomainError when
    beta has the wrong length or is infeasible."""
    X = design_matrix(table, spec)
    beta = [float(b) for b in beta]
    if len(beta) != len(X[0]):
        raise DomainError(f"expected {len(X[0])} coefficients, got {len(beta)}")
    # a plain sum, not math.fsum: a non-finite or overflowing beta then gives
    # a NaN or infinite eta, whose p _feasible refuses, rather than raising
    eta = tuple(sum(x * b for x, b in zip(row, beta)) for row in X)
    p, dp = zip(*map(_LINKS[spec.link].inverse, eta))
    if not _feasible(p):
        raise DomainError("coefficients give cell probabilities outside (0, 1)")
    return X, eta, p, dp


def score(table: StratifiedTable, spec: ModelSpec, beta) -> tuple[float, ...]:
    """Analytic score (gradient of the log-likelihood) at feasible
    coefficients, the binomial score sum_i x_i (y_i - n_i p_i) dp_i /
    (p_i (1 - p_i)), from p rather than from the cell functions below."""
    X, _, p, dp = _inverse_at(table, spec, beta)
    cases, totals = cell_counts(table)
    u = [(y - n * pi) / (pi * (1.0 - pi)) * d for y, n, pi, d in zip(cases, totals, p, dp)]
    return tuple(math.fsum(x * ui for x, ui in zip(column, u)) for column in zip(*X))


def loglik_at(table: StratifiedTable, spec: ModelSpec, beta) -> float:
    """Log-likelihood at a coefficient vector, with log p and log(1 - p)
    computed from eta as the profile's cell functions compute them (log p
    of a p rounded near 1 would lose digits); DomainError when infeasible."""
    _, eta, _, _ = _inverse_at(table, spec, beta)
    link, logs = spec.link, []
    for e in eta:
        if link is LinkFunction.IDENTITY:
            logs.append((math.log(e), math.log1p(-e)))
        elif link is LinkFunction.LOG:
            # log(1 - p) as _log_cell takes it
            logs.append((e, math.log1p(-math.exp(e)) if e < -_LN2 else math.log(-math.expm1(e))))
        elif link is LinkFunction.LOGIT:
            # log p = -softplus(-eta), log(1 - p) = -softplus(eta)
            s = math.log1p(math.exp(-abs(e)))
            logs.append((-max(-e, 0.0) - s, -max(e, 0.0) - s))
        else:
            # log p as _cloglog_cell takes it
            t = math.exp(e)
            logs.append((math.log1p(-math.exp(-t)) if t > _LN2 else math.log(-math.expm1(-t)), -t))
    return _binomial_loglik(table, logs)


def _arrowhead(w0, w1, g):
    """The step [da_1, ..., da_K, db] of the no-interaction model's Newton
    or Fisher system in each stratum's unexposed eta a_j and b1, whose
    cells weigh w0_j (unexposed) and w1_j (exposed): row j is
    (w0_j + w1_j) da_j + w1_j db = g_j, the last row
    sum_j w1_j (da_j + db) = g_K. Each a_j couples only to b1, so the
    matrix is an arrowhead, solved in O(K) by the Schur complement on db,
    whose pivot sum_j w0_j w1_j / (w0_j + w1_j) is the profile curvature.
    None where some w0_j + w1_j or the pivot is 0."""
    pivot, rhs = 0.0, g[-1]
    for u, v, gj in zip(w0, w1, g):
        s = u + v
        if not s:
            return None
        pivot += u * v / s
        rhs -= v * gj / s
    if not pivot:
        return None
    db = rhs / pivot
    return [(gj - v * db) / (u + v) for u, v, gj in zip(w0, w1, g)] + [db]


def _newton(table: StratifiedTable, link: LinkFunction):
    """Newton ascent on the no-interaction model's grouped-binomial
    log-likelihood in full steps, in scalar floats; the iterate always
    keeps every cell probability strictly inside (0, 1).

    Its coordinates are the profile's, each stratum's unexposed eta a_j
    and b1, and each cell's log-likelihood and its derivatives come from
    the link's cell function, its p and dp/deta from its inverse. It starts
    from each stratum's pooled risk (see _adjusted_risk) on the link scale
    and b1 = 0. Each iteration tries the full observed-Hessian Newton step
    (quadratic near the optimum, and free of the slow two-cycles Fisher
    scoring shows for non-canonical links) and the full Fisher scoring
    step; both systems are arrowheads (see _arrowhead). A step is accepted
    where its log-likelihood is at least the current one less a slack of
    32 eps (1 + |loglik|), and the Fisher step replaces the Newton step only
    where it is higher by more than that slack. The gradient test is on the
    max-norm of the reference-coded score; see fit for the other stops.

    Returns (a, b1, loglik, iterations, gradient_norm) at the last
    iterate."""
    rec = _LINKS[link]
    cell, inverse = rec.cell, rec.inverse
    counts = [(y0, f0, y1, f1) for y0, f0, _, y1, f1, _, _ in _profile_strata(table, link)]

    def at(theta):
        # (loglik, cells) at theta = (a, b1), each stratum's cells as
        # (p, dp/deta, n, dl/deta, d2l/deta2), unexposed first; None
        # where a p leaves (_P_FLOOR, 1)
        ll, cells, b1 = 0.0, [], theta[-1]
        for (y0, f0, y1, f1), a in zip(counts, theta):
            stratum = []
            for y, f, eta in ((y0, f0, a), (y1, f1, a + b1)):
                p, dp = inverse(eta)
                if not _P_FLOOR < p < 1.0:
                    return None
                l, d, h = cell(y, f, eta)
                ll += l
                stratum.append((p, dp, y + f, d, h))
            cells.append(stratum)
        return ll, cells

    def gradient(cells):
        # the gradient in theta, and the max-norm of the reference-coded
        # score, whose intercept entry is the sum of the a_j entries
        grad = [c0[3] + c1[3] for c0, c1 in cells]
        grad.append(sum(c1[3] for _, c1 in cells))
        return grad, max(abs(sum(grad[:-1])), *map(abs, grad[1:]))

    theta = [rec.to_eta(_adjusted_risk(y0 + y1, y0 + f0 + y1 + f1)) for y0, f0, y1, f1 in counts]
    theta.append(0.0)
    # never None: each inverse maps _adjusted_risk's [2^-52, 1 - 2^-52] inside (_P_FLOOR, 1)
    ll, cells = at(theta)
    iterations = 0
    for _ in range(_MAX_ITER):
        grad, gnorm = gradient(cells)
        if gnorm < _GRAD_TOL:
            break
        unexposed, exposed = zip(*cells)
        directions = []
        delta = _arrowhead([-c[4] for c in unexposed], [-c[4] for c in exposed], grad)
        if delta is not None and all(map(math.isfinite, delta)) and sum(g * d for g, d in zip(grad, delta)) > 0.0:
            directions.append(delta)
        fisher = [[n * dp * dp / (p * (1.0 - p)) for p, dp, n, _, _ in side] for side in (unexposed, exposed)]
        delta = _arrowhead(*fisher, grad)
        if delta is not None and all(map(math.isfinite, delta)):
            directions.append(delta)
        slack = 32.0 * _DBL_EPS * (1.0 + abs(ll))
        best = None
        for delta in directions:
            cand = [t + d for t, d in zip(theta, delta)]
            state = at(cand)
            if state is not None and state[0] >= ll - slack and (best is None or state[0] > best[1] + slack):
                best = (cand, *state)
        if best is None:
            break
        iterations += 1
        dll = best[1] - ll
        theta, ll, cells = best
        # a change of a few ulps is rounding; at |ll| >~ 1e4 one ulp exceeds _LL_TOL
        if dll < max(_LL_TOL, 8.0 * math.ulp(ll)):
            gnorm = gradient(cells)[1]
            break
    return theta[:-1], theta[-1], ll, iterations, gnorm


def fit(table: StratifiedTable, spec: ModelSpec) -> FitResult:
    """Maximum-likelihood fit of the binomial GLM.

    The saturated fit (interaction) is the empirical risks, in closed form
    (``iterations`` and ``gradient_norm`` 0), and its ``loglik`` is
    sum y log(y/n) + (n - y) log(1 - y/n) over the cells, with 0 log 0 = 0.
    The restricted fit is that same closed form, with the same fitted
    points, ``loglik``, ``iterations`` and ``gradient_norm``, wherever the
    model reaches the empirical risks:
    - where b1 runs off to an end of its range, decided from the counts
      (see _run_off): b1 is that end, +-(e_hi - e_lo) with e_lo and e_hi
      the etas of 1e-13 and 1 - 1e-13, the end of the range that the
      profile maximum searches, and each stratum's unexposed eta keeps the
      cell that does not run off at its observed risk;
    - otherwise with one stratum, where the model is saturated:
      b1 = eta1 - eta0.
    Any other restricted fit is Newton ascent in full steps (see _newton)
    from the closed-form null fit (each stratum's pooled risk, b1 = 0); it
    stops when the gradient max-norm falls below 1e-10, when no step is
    accepted, at the first log-likelihood change below
    max(1e-12, 8 ulp(loglik)), or after 200 iterations. Unless it ended by
    the gradient test, the fit is the maximum of the profile log-likelihood
    lp(b1) from the data (see _profile_max): ``iterations`` then counts the
    steps on b1 and ``gradient_norm`` is |lp'| at the estimate. Either way
    ``loglik`` is lp at the estimate, so the LR statistic is a difference
    of suprema. Where lp is flat on an interval, b1 is not identified and
    is wherever the search stopped; nothing flags it. The profile maximum
    raises ConvergenceError, carrying the coefficients and lp at the last
    b1, after 200 steps; the ascent raises none.

    Boundary rule, for every fit (see _boundary_rule): a maximum at a cell
    probability of 0 or 1 (a zero or full cell, or a bound of the link) is
    reported with the cell at 1e-13 or 1 - 1e-13, and
    ``boundary_warning`` flags any fitted probability within 1e-12 of 0 or
    1. The rule applies to the reported coefficients and fitted points
    only; ``loglik`` stays the supremum. In closed form only a risk of
    exactly 0 or 1 is on the boundary: a risk of 1 - 1e-14 keeps its own
    eta. A risk that rounds to 1 with non-cases left (a total above 2^53)
    is reported at 1 - 1e-13, with both of its logs from the counts. Under
    logit and cloglog, whose eta has no upper end, every cell with more
    cases than non-cases (0 < f < y) takes its eta from the counts,
    log(y / f) and log(log(n / f)), which keeps the digits that the eta of
    a risk near 1 would lose.

    Fits are memoized: equal tables and specs return the same FitResult
    object, and the last 8 fits (one table's four links times two models)
    are kept. A fit that raises is not kept. The memo is the only way fits
    are shared: the LR test, the profile CI and the figures each call fit.
    """
    # a plain function over the memo, not a decorated one: bench/spans.py
    # traces only plain functions, and its fit counters read calls of fit
    return _fit(table, spec)


def _reference_coded(a, b) -> list[float]:
    """Coefficients from each stratum's unexposed eta a_j and exposure
    effect b_j (one b for the no-interaction model)."""
    return [a[0], b[0], *(aj - a[0] for aj in a[1:]), *(bj - b[0] for bj in b[1:])]


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
    link, rec = spec.link, _LINKS[spec.link]
    if spec.interaction and table.k < 2:
        raise DomainError("an interaction model needs at least two strata")
    direction = 0 if spec.interaction else _run_off(table, link)
    if spec.interaction or table.k == 1 or direction:
        # the model reaches the empirical risks: the closed form
        p, eta, terms = [], [], []
        for s in table.strata:
            for c in (s.exposed, s.unexposed):
                risk, f = c.cases / c.total, c.total - c.cases
                # where the risk rounds to 1, both logs and eta from the counts;
                # eta also where cases outnumber non-cases and eta has no upper end
                near_one = risk == 1.0 and f
                if c.cases:
                    terms.append(c.cases * (math.log1p(-f / c.total) if near_one else math.log(risk)))
                if f:
                    terms.append(f * (math.log(f / c.total) if near_one else math.log1p(-risk)))
                # only a risk of 0 or 1 is on the boundary
                p.append(risk if 0.0 < risk < 1.0 else min(1.0 - _EPS, max(_EPS, risk)))
                from_counts = near_one or (0 < f < c.cases and rec.eta_range[1] == math.inf)
                eta.append(rec.near_one_eta(c.cases, f) if from_counts else rec.to_eta(p[-1]))
        a, b = eta[1::2], [e1 - e0 for e1, e0 in zip(eta[::2], eta[1::2])]
        if direction:
            # b1 is the end of the range _profile_max searches, e_hi - e_lo;
            # each stratum's a keeps the cell that does not run off at its data
            e_lo, e_hi = rec.edges
            b1 = direction * (e_hi - e_lo)
            exposed_off = [s.exposed.cases == (s.exposed.total if direction > 0 else 0) for s in table.strata]
            a = [e0 if off else e1 - b1 for off, e1, e0 in zip(exposed_off, eta[::2], eta[1::2])]
            b = [b1]
        return _result(spec, _reference_coded(a, b), math.fsum(terms), p, 0, 0.0)
    a, b1, _, iterations, gnorm = _newton(table, link)
    if gnorm < _GRAD_TOL:
        ll = _lp_at(table, link, b1)[0]
    else:
        # the ascent ended short of its gradient test: the profile maximum
        b1, ll, a, gnorm, iterations = _profile_max(table, link)
    beta, p = _boundary_rule(table, link, a, b1)
    return _result(spec, beta, ll, p, iterations, gnorm)


def _boundary_rule(table: StratifiedTable, link: LinkFunction, a, b1: float):
    """The boundary rule of a restricted fit that is not in closed form (see
    fit) at each stratum's unexposed eta a and b1: each a clipped into the
    range that keeps both its cells' p in [_EPS, 1 - _EPS], at the low end
    of it for a stratum whose cells are all empty and at the high end for
    one whose cells are all full. Returns the coefficients there and the
    cell probabilities in cell order, each clipped into [_EPS, 1 - _EPS]."""
    rec = _LINKS[link]
    e_lo, e_hi = rec.edges
    a_lo, a_hi = e_lo - min(0.0, b1), e_hi - max(0.0, b1)
    a = [a_lo if not y0 + y1 else a_hi if not f0 + f1 else min(max(aj, a_lo), a_hi)
         for aj, (y0, f0, _, y1, f1, _, _) in zip(a, _profile_strata(table, link))]
    p = [min(max(rec.inverse(eta)[0], _EPS), 1.0 - _EPS) for aj in a for eta in (aj + b1, aj)]
    return _reference_coded(a, [b1]), p


def common_measure(result: FitResult) -> float:
    """The common association measure implied by a no-interaction fit: b1
    for the identity link, exp(b1) otherwise."""
    if result.spec.interaction:
        raise DomainError("common_measure requires a no-interaction fit")
    return _LINKS[result.spec.link].to_measure(result.coefficients[1])


@dataclass(frozen=True)
class LRTest:
    """A likelihood-ratio test of the interaction terms: ``statistic`` is
    2 (saturated loglik - restricted loglik), at least 0; ``df`` its
    degrees of freedom, K - 1; ``p_value`` its chi-square(df) upper tail."""

    statistic: float
    df: int
    p_value: float


def lr_test_interaction(table: StratifiedTable, link: LinkFunction) -> LRTest:
    """Likelihood-ratio test of the K-1 exposure-by-stratum interaction
    terms, from the table's two fits (see fit, whose memo shares them).
    On one stratum the saturated fit raises DomainError."""
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
    # log p = eta, and log(1 - p) taken as log1p(-p) below eta = -ln 2 and
    # log(-expm1(eta)) above, each where it keeps its digits (as in
    # _cloglog_cell); log of a q rounded next to 1 would keep only its last bits
    l, d, h = y * eta, float(y), 0.0
    if f:
        if eta >= 0.0:
            return -math.inf, -math.inf, -math.inf
        p, q = math.exp(eta), -math.expm1(eta)
        l += f * (math.log1p(-p) if eta < -_LN2 else math.log(q))
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


def _logit_inverse(eta):
    z = math.exp(-abs(eta))
    p, q = 1.0 / (1.0 + z), z / (1.0 + z)
    return (p, p * q) if eta >= 0.0 else (q, p * q)


def _cloglog_inverse(eta):
    t = math.exp(min(eta, 709.0))  # e^709 is near the largest float
    return -math.expm1(-t), t * math.exp(-t)


_A_TOL = 2e-15  # relative step at which a one-dimensional solve stops


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


# looked up at each call, so that tests can count a record's cell and root
# calls; an inverse gives some p outside (0, 1) at such an eta, NaN at NaN.
# Identity and log, whose eta range ends at p = 1, give a near-one cell the
# eta of 1 - _EPS, as a full cell has
_LINKS = {
    LinkFunction.IDENTITY: _Link(
        Measure.RISK_DIFFERENCE, _identity_cell, lambda eta: (eta, 1.0), lambda p: p, lambda y, f: 1.0 - _EPS,
        _identity_root, (0.0, 1.0), lambda empty, full: empty and full, lambda b1: b1),
    LinkFunction.LOG: _Link(
        Measure.RISK_RATIO, _log_cell, lambda eta: (math.exp(min(eta, 1.0)),) * 2, math.log,
        lambda y, f: math.log(1.0 - _EPS), _log_root, (-math.inf, 0.0), lambda empty, full: empty, math.exp),
    LinkFunction.LOGIT: _Link(
        Measure.ODDS_RATIO, _logit_cell, _logit_inverse, lambda p: math.log(p) - math.log1p(-p),
        lambda y, f: math.log(y / f), _logit_root, (-math.inf, math.inf),
        lambda empty, full: empty or full, math.exp),
    LinkFunction.CLOGLOG: _Link(
        Measure.CUMULATIVE_HAZARD_RATIO, _cloglog_cell, _cloglog_inverse, lambda p: math.log(-math.log1p(-p)),
        lambda y, f: math.log(math.log((y + f) / f)), None, (-math.inf, math.inf),
        lambda empty, full: empty or full, math.exp),
}
_LINK_FOR_MEASURE = {rec.measure: link for link, rec in _LINKS.items()}


def _adjusted_risk(cases: int, total: int) -> float:
    """cases / total moved delta = 0.5 / (total + 1), at least 2^-52, inside
    (0, 1): the ascent's start and each stratum solve's data. The floor keeps
    1 - delta below 1 through a link and its inverse at totals over 2^51."""
    delta = max(0.5 / (total + 1.0), _DBL_EPS)
    return min(1.0 - delta, max(delta, cases / total))


@functools.lru_cache(maxsize=32)
def _profile_strata(table: StratifiedTable, link: LinkFunction):
    """Per stratum, (y0, f0, e0, y1, f1, e1, w): cases, non-cases and the
    link of the adjusted empirical risk (see _adjusted_risk) of its
    unexposed (0) and exposed (1) cells, and the exposed cell's share w of
    the stratum total."""
    to_eta = _LINKS[link].to_eta
    out = []
    for s in table.strata:
        stratum = []
        for c in (s.unexposed, s.exposed):
            stratum += [c.cases, c.total - c.cases, to_eta(_adjusted_risk(c.cases, c.total))]
        out.append((*stratum, s.exposed.total / (s.exposed.total + s.unexposed.total)))
    return tuple(out)


def _end_max(rec: _Link, y0, f0, y1, f1, b1, lo, hi):
    """The supremum at an end of (lo, hi) where l' does not point into the
    bracket (or its limit at an infinite end), as _stratum_max returns it;
    None when l' points inward at both ends."""
    for end, inward in ((lo, 1.0), (hi, -1.0)):
        if math.isinf(end):
            # a -> -inf sends every p to 0 and a -> +inf every p to 1
            if not (y0 + y1 if end < 0.0 else f0 + f1):
                return 0.0, end, 0.0, 0.0
        else:
            # end + b1 is exact at the end where the exposed p is 0 or 1,
            # a finite end of the link's eta range
            l0, d0, h0 = rec.cell(y0, f0, end)
            l1, d1, h1 = rec.cell(y1, f1, end + b1)
            if inward * (d0 + d1) <= 0.0:
                return (l0 + l1, end, -d0, h0) if end + b1 in rec.ends else (l0 + l1, end, d1, h1)
    return None


def _stratum_slope(cell, y0, f0, y1, f1, b1, a):
    """-l'(a) and -l''(a) of the stratum log-likelihood, increasing in a, and
    the solve's result at a, as _stratum_max returns it."""
    l0, d0, h0 = cell(y0, f0, a)
    l1, d1, h1 = cell(y1, f1, a + b1)
    h = h0 + h1
    return -(d0 + d1), -h, (l0 + l1, a, (d1 if h1 >= h0 else -d0), (h0 * h1 / h if h < 0.0 else 0.0))


def _a_tol(x: float) -> float:
    """The step at which a solve in a or b1 stops."""
    return _A_TOL * max(1.0, abs(x))


def _stratum_max(rec: _Link, stratum, b1, lo, hi):
    """Supremum over a in (lo, hi) of the concave stratum log-likelihood
    l(a) = cell(y0, f0, a) + cell(y1, f1, a + b1) under the link's cell
    function, the a where it is reached, and the supremum's first two
    derivatives in b1: (l, a, dl/db1, d2l/db1^2).

    By the envelope theorem the first is the exposed cell's dl/deta at a
    fixed end, minus the unexposed cell's at an end that moves with b1
    (a + b1 at a finite end of the link's eta range), 0 at an infinite
    end. At an interior maximum the two are equal, d1 = -d0, and it is
    taken from the cell whose h, its d2l/deta2, is the smaller in
    magnitude: an error in a moves that cell's derivative least (at a p
    rounded next to 0 or 1 the other cell's can be all rounding). The
    second is h0 h1 / (h0 + h1) at an interior maximum (a moves with b1 at
    the rate -h1 / (h0 + h1)), the h of the cell whose eta moves with b1 at
    a constraint end, and 0 at an infinite end.
    An interior root of l' lies between the two cells' own maximizers, e0
    and e1 - b1 (-inf for a zero cell, +inf for a full one): the data
    bracket. The link's root(y0, f0, y1, f1, b1) in closed form is
    evaluated first when it lies inside (lo, hi), even outside the data
    bracket (its ends are etas of rounded risks), and returned when that
    evaluation passes _newton_root's stop test: by concavity the maximum is
    then that root, and no end of (lo, hi) is evaluated.
    Otherwise, when l' does not point into (lo, hi) at an end (or its limit
    at an infinite end), that end and its limit are returned (see _end_max).
    Otherwise _newton_root finds the root of -l' inside the data bracket to
    a step of _A_TOL * max(1, |a|), going on from the root's evaluation, or,
    where root is None (cloglog) or its value is not inside the data
    bracket, from the mean of the targets e0 and e1 - b1, each clipped into
    the bracket, weighted by the cell totals (or from the bracket's
    midpoint where that mean rounds onto an end of (lo, hi))."""
    cell, root = rec.cell, rec.root
    y0, f0, e0, y1, f1, e1, w = stratum
    e1 -= b1
    t0 = e0 if y0 and f0 else math.copysign(math.inf, y0 - 0.5)
    t1 = e1 if y1 and f1 else math.copysign(math.inf, y1 - 0.5)
    a_lo, a_hi = max(lo, min(t0, t1)), min(hi, max(t0, t1))
    # no root to look for where every cell is empty (a_lo = a_hi = -inf) or full
    a = root(y0, f0, y1, f1, b1) if root and a_lo < a_hi else math.nan
    first = None
    if lo < a < hi:
        first = _stratum_slope(cell, y0, f0, y1, f1, b1, a)
        v, dv, found = first
        if not v or (dv > 0.0 and abs(v / dv) <= _a_tol(a)):
            return found
        first = first if a_lo < a < a_hi else None
    found = _end_max(rec, y0, f0, y1, f1, b1, lo, hi)
    if found is not None:
        return found
    if first is None:
        a = (1.0 - w) * min(max(e0, a_lo), a_hi) + w * min(max(e1, a_lo), a_hi)
        if not lo < a < hi:
            # rounded onto a constraint, where a cell's p is 0 or 1
            a = 0.5 * (a_lo + a_hi)
    slope = functools.partial(_stratum_slope, cell, y0, f0, y1, f1, b1)
    _, found, _, stop = _newton_root(slope, a, a_lo, a_hi, _a_tol, first=first)
    if stop == "limit":
        raise ConvergenceError(f"profile solve of a stratum did not converge at exposure coefficient {b1}")
    return found


def _bracket(rec: _Link, b1: float) -> tuple[float, float]:
    """The feasible range of the unexposed eta a at this b1, where a and
    a + b1 both lie in the link's eta range (under the identity link
    (max(0, -b1), min(1, 1 - b1))); DomainError when it is empty."""
    lo, hi = rec.eta_range
    lo, hi = max(lo, lo - b1), min(hi, hi - b1)
    if not lo < hi:
        raise DomainError(f"no feasible model with exposure coefficient {b1}")
    return lo, hi


def profile_loglik_slope(table: StratifiedTable, link: LinkFunction, b1: float) -> tuple[float, float, float]:
    """(lp(b1), lp'(b1), lp''(b1)): the profile log-likelihood, the
    log-likelihood of the no-interaction model maximized over all
    coefficients except the exposure coefficient, held at b1, and its first
    and second derivatives in b1.

    The maximum is the sum over strata of one concave maximization each in
    the stratum's unexposed linear predictor a, over its exact feasible
    bracket (see _bracket), and the derivatives are the sums of the strata's
    (see _stratum_max). Each starts from the stratum's data, not from a
    solve at another b1, so the profile is a function of b1 alone. The
    fit's profile maximum and the profile CI evaluate lp through this
    function.

    Raises DomainError for a b1 that is not finite, and when no
    coefficients are feasible at this b1."""
    if not math.isfinite(b1):
        raise DomainError(f"exposure coefficient must be finite, got {b1}")
    rec = _LINKS[link]
    lo, hi = _bracket(rec, b1)
    total = slope = curvature = 0.0
    for stratum in _profile_strata(table, link):
        l, _, d, h = _stratum_max(rec, stratum, b1, lo, hi)
        total += l
        slope += d
        curvature += h
    return total, slope, curvature


@functools.lru_cache(maxsize=8)
def _lp_at(table: StratifiedTable, link: LinkFunction, b1: float) -> tuple[float, float, float]:
    """profile_loglik_slope memoized, for lp at a fit's estimate: the
    ascent's fit takes its loglik there, the profile maximum evaluates
    every step through it, and profile_ci takes lp and lp'' at the
    estimate from it, so the fit and the CI share one solve. Exact, as
    profile solves start from the data."""
    return profile_loglik_slope(table, link, b1)


def _newton_root(func, x: float, lo: float, hi: float, tol, capped: bool = False, first=None):
    """A root of func, increasing on the bracket (lo, hi), by Newton's
    method from x in it: the one-dimensional solver of this module. func(x)
    returns (v, v', extra); first, when given, is func(x) already evaluated.

    Each evaluation narrows the bracket by the sign of v. The first step is
    at most 1 and each later one at most twice the last, and a Newton step
    over 3/4 of the one before, in the same direction, is raised to that
    limit. A step that would leave the bracket bisects it, as do a NaN step
    (inf / inf, where a cell is on its bound) and one after a step that
    crossed the root and less than halved |v|. When capped, hi is a cap, not
    a point known to lie above the root: until one is seen, such a step
    doubles x's distance from the first lo instead, up to the cap. Stops
    when v is 0, a step is at most tol(x), or at the rounding floor of v,
    where rounding moves v by more than a step of tol(x) does: v kept its
    sign from the last x, the step from there was at most 64 tol(x),
    |v| <= 64 tol(x) v', and v moved less than half of what v' predicts for
    that step.

    Returns (root, extra, steps, stop), extra from the last x evaluated.
    stop is "root" (root is that x, plus its step unless at the floor),
    "edge" (v has one sign up to an end of the bracket, and root is that
    end) or "limit" (_MAX_ITER steps taken; root is the last x)."""
    origin = lo
    v_old = 0.0
    move = newton_old = math.inf
    for steps in range(1, _MAX_ITER + 1):
        v, dv, extra = first or func(x)
        first = None
        near = 64.0 * (t := tol(x))
        if v * v_old > 0.0 and abs(move) <= near and abs(v) <= dv * near and abs(v - v_old) < 0.5 * dv * abs(move):
            return x, extra, steps, "root"
        if v < 0.0:
            lo = x
        elif v > 0.0:
            hi, capped = x, False
        else:
            return x, extra, steps, "root"
        step = newton = -v / dv if dv > 0.0 else math.copysign(math.inf, -v)
        if not abs(step) <= t:
            limit = 1.0 if move == math.inf else 2.0 * abs(move)
            if not abs(step) <= limit or (newton * newton_old > 0.0 and abs(newton) > 0.75 * abs(newton_old)):
                step = math.copysign(limit, -v)
            newton_old = newton
            if not lo < x + step < hi or (v * v_old < 0.0 and abs(v) > 0.5 * abs(v_old)):
                step = (min(2.0 * x - origin, hi) if capped else 0.5 * (lo + hi)) - x
        if abs(step) <= t:
            return (x, extra, steps, "edge") if lo == hi else (x + step, extra, steps, "root")
        x += step
        move, v_old = step, v
    return x, extra, _MAX_ITER, "limit"


def _run_off(table: StratifiedTable, link: LinkFunction) -> int:
    """+1 or -1 when lp rises to its supremum, the saturated loglik, as b1
    goes to that end of its range and not the other; else 0. Every stratum
    has y0 = 0 or f1 = 0 (+1), or y1 = 0 or f0 = 0 (-1), under the logit
    and cloglog links (the quasi-complete separation of Albert & Anderson
    1984, Biometrika 71:1-10); y0 = 0 (+1) or y1 = 0 (-1) under the log
    link; y0 = 0 and f1 = 0 (+1), or y1 = 0 and f0 = 0 (-1), under the
    identity link."""
    rule = _LINKS[link].run_off
    up = all(rule(not s.unexposed.cases, s.exposed.cases == s.exposed.total) for s in table.strata)
    down = all(rule(not s.exposed.cases, s.unexposed.cases == s.unexposed.total) for s in table.strata)
    return up - down


def _profile_max(table: StratifiedTable, link: LinkFunction):
    """The maximum of the concave lp over |b1| <= e_hi - e_lo, the b1 at
    which a stratum's two cells can keep p in [_EPS, 1 - _EPS]: the root of
    -lp' by _newton_root to a step of 2e-15 max(1, |b1|), or to the
    rounding floor of lp' (a stratum solve leaves its slope off by up to its
    curvature times its own stop step), from the data: the mean of the
    strata's e1 - e0 weighted by n0 n1 / (n0 + n1), clamped into the
    range. lp is taken through _lp_at, whose memo profile_ci reads at the
    estimate. fit asks for it only where the maximum is finite (a run-off
    is taken in closed form). Stopping within two steps of b1 = 0, under
    every link, it takes lp(0) if not lower: lp' can jump there where the
    link's eta range has a finite end (the identity and log links), and
    elsewhere that costs one memoized solve and never lowers lp.

    Returns (b1, lp(b1), a, |lp'(b1)|, steps) at the last b1 evaluated, a
    each stratum's maximizer; raises ConvergenceError, with the coefficients
    there under the boundary rule (see _boundary_rule) and lp, after
    _MAX_ITER steps."""
    rec = _LINKS[link]
    e_lo, e_hi = rec.edges
    bound = e_hi - e_lo
    strata = _profile_strata(table, link)
    weights = [(y0 + f0) * (y1 + f1) / (y0 + f0 + y1 + f1) for y0, f0, _, y1, f1, _, _ in strata]
    start = sum(v * (s[5] - s[2]) for v, s in zip(weights, strata)) / sum(weights)

    def slope(b1: float):
        ll, d, h = _lp_at(table, link, b1)
        return -d, -h, (b1, ll, abs(d))

    _, (b1, ll, gnorm), steps, stop = _newton_root(slope, min(max(start, -bound), bound), -bound, bound, _a_tol)
    if 0.0 < abs(b1) <= 2.0 * _a_tol(b1):
        at = _lp_at(table, link, 0.0)
        if at[0] >= ll:
            b1, ll, gnorm = 0.0, at[0], abs(at[1])
    lo, hi = _bracket(rec, b1)
    a = [_stratum_max(rec, s, b1, lo, hi)[1] for s in strata]
    if stop == "limit":
        raise ConvergenceError(
            f"no profile maximum after {steps} steps (|lp'| {gnorm:.3e})",
            coefficients=tuple(_boundary_rule(table, link, a, b1)[0]),
            loglik=ll,
            iterations=steps,
        )
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
    lp''(b1hat), and both endpoint searches share it; a fit not in closed
    form made that same solve, and the two share it through a memo
    (_lp_at). l_max is the fit's loglik: the saturated supremum for a fit
    in closed form, and for any other fit lp(b1hat), read from that same
    memo entry. Each endpoint is the root of the signed root
    f(b1) = r - sqrt(q), with r = sqrt(2 (l_max - lp(b1))), close to
    linear in b1, by Halley's method inside the safeguards of
    _newton_root: with f' = -lp'(b1) / r
    and f'' = (-lp''(b1) - f'^2) / r, all from one profile solve
    (profile_loglik_slope), the slope passed on is f' - f f'' / (2 f'),
    or f' itself where that would be at most f' / 2 or f' <= 0, and none
    inside the interval where lp(b1hat) - lp(b1) is not in the range
    (0, |lp'(b1) (b1 - b1hat)|] of a concave lp: there it is rounding. The
    search starts at the Wald point b1hat +- sqrt(q / -lp''(b1hat)), but
    no farther from b1hat than the bound on |b1| of _profile_max's range.
    Until it has seen a b1 past the crossing, a step that would leave the
    range between the estimate and the cap doubles the distance from the
    estimate. The cap is that same bound where both ends of the link's eta
    range are finite (the identity link, whose feasible b1 are |b1| < 1),
    and +-500 (or the estimate +-1) under the others. It stops when a step
    is at most 5e-13 plus 2 ulp of b1, taking b1 plus that step, or at f's
    rounding floor (see _newton_root), taking b1; it raises
    ConvergenceError after _MAX_ITER steps.

    An endpoint that does not cross before the cap is truncated at the cap
    and flagged. The endpoint toward which b1's estimate runs off to an
    end of its range, decided from the counts as for the fit (see
    _run_off), is truncated at the estimate and flagged.
    The estimate comes from the no-interaction fit (see fit, whose memo
    shares it). A level outside (0, 1) is refused by chi2_quantile, before
    any fit.
    """
    root_q = math.sqrt(chi2_quantile(level, 1))
    restricted = fit(table, ModelSpec(link, interaction=False))
    b1hat = restricted.coefficients[1]
    lp_hat, _, curvature = _lp_at(table, link, b1hat)
    l_max = restricted.loglik
    rec = _LINKS[link]
    e_lo, e_hi = rec.edges
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
            v = r - root_q
            if not r or (v < 0.0 and not 0.0 < lp_hat - ll <= abs(slope * (direction * x - b1hat))):
                return v, math.nan, None
            dv = -direction * slope / r
            if dv > 0.0:
                halley = dv - v * ((-curvature - dv * dv) / r) / (2.0 * dv)
                if 0.5 * dv < halley < math.inf:
                    dv = halley
            return v, dv, None

        x = direction * b1hat
        cap = max(bound, x) if len(rec.ends) == 2 else max(_B1_SPAN, x + 1.0)
        x, _, steps, stop = _newton_root(
            root, min(x + max(wald, _B1_TOL), cap), x, cap,
            lambda x: 0.5 * _B1_TOL + 2.0 * math.ulp(x), capped=True,
        )
        if stop == "limit":
            raise ConvergenceError(f"no profile CI endpoint after {steps} steps", iterations=steps)
        return direction * x, stop == "edge"

    lo_b1, lo_trunc = endpoint(-1)
    hi_b1, hi_trunc = endpoint(+1)
    return ProfileCI(
        lower=rec.to_measure(lo_b1),
        upper=rec.to_measure(hi_b1),
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


def _chi2_cdf(x: float, df: int) -> float:
    """Lower-tail probability of the chi-square distribution, for x > 0:
    P(a, z) with a = df / 2 and z = x / 2, from the series
    P(a, z) = z^a e^-z / Gamma(a + 1) (1 + sum_n z^n / ((a + 1) ... (a + n)))
    (Abramowitz & Stegun 6.5.29). Its terms are positive, so nothing
    cancels where P is small, as it does in 1 - chi2_sf."""
    a, z = 0.5 * df, 0.5 * x
    term = total = 1.0
    n = a
    while term > 1e-17 * total:
        n += 1.0
        term *= z / n
        total += term
    return math.exp(a * math.log(z) - z - math.lgamma(a + 1.0)) * total


@functools.lru_cache(maxsize=16, typed=True)
def chi2_quantile(level: float, df: int) -> float:
    """The x with chi2_sf(x, df) = 1 - level: the root of P(x) - level, P
    the chi-square distribution function, whose derivative is the
    chi-square density, by _newton_root from the lower-tail bound
    2 (level Gamma(df/2 + 1))^(2/df), to a step of 1e-13 max(1, x). Below
    level 0.5, P is _chi2_cdf's series; from 0.5 on it is 1 - chi2_sf(x),
    taken as (1 - level) - chi2_sf(x, df). Quantiles are memoized, keyed
    by argument type as well, so df = True or 1.0 is checked, and refused,
    rather than answered as df = 1; a refused call is not memoized."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    _check_df(df)
    a = 0.5 * df

    def tail(x: float):
        z = 0.5 * x
        v = _chi2_cdf(x, df) - level if level < 0.5 else (1.0 - level) - chi2_sf(x, df)
        return v, 0.5 * math.exp((a - 1.0) * math.log(z) - z - math.lgamma(a)), None

    # the bound underflows to 0 only with the quantile (df = 1, level below about 1.8e-162)
    start = 2.0 * math.exp((math.log(level) + math.lgamma(a + 1.0)) / a)
    return _newton_root(tail, start, 0.0, math.inf, lambda x: 1e-13 * max(1.0, x))[0] if start else 0.0
