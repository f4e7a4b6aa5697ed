"""An exact reference for the binomial no-interaction fit, from the counts
alone, in one mpmath context of DPS digits. With b1 fixed, each stratum's
log-likelihood, written from p and 1 - p, is concave in its unexposed eta a
(its exposed cell at a + b1), so lp(b1) is a sum of one-dimensional maxima.
It reads counts and a link's name (a LinkFunction or its value) and shares
no code with rothman.inference, so it checks the solver."""

from mpmath.ctx_mp import MPContext

DPS = 50
mp = MPContext()
mp.dps = DPS
INF = mp.inf
_TOL = mp.mpf(10) ** (8 - DPS)  # relative step at which a search stops
# the risks, as floats, at which fit reports a cell of risk 0 or 1
_EDGES = mp.mpf(1e-13), mp.mpf(1.0 - 1e-13)


# p, 1 - p, dp/deta and d2p/deta2 at eta; 1 - p is taken as such only where
# p <= 1/2, where it keeps its digits
def _log(eta):
    p = mp.exp(eta)
    return p, 1 - p if p <= 0.5 else -mp.expm1(eta), p, p


def _logit(eta):
    e = mp.exp(-eta)
    p = 1 / (1 + e)
    return p, e * p, e * p * p, e * p * p * (e * p - p)


def _cloglog(eta):
    t = mp.exp(eta)
    q = mp.exp(-t)
    return 1 - q if q <= 0.5 else -mp.expm1(-t), q, t * q, t * q * (1 - t)


# per link: its eta range, the p and 1 - p above, and the eta of the risk
# y / (y + f) from its counts
_LINKS = {
    "identity": ((mp.zero, mp.one), lambda eta: (eta, 1 - eta, mp.one, mp.zero), lambda y, f: mp.mpf(y) / (y + f)),
    "log": ((-INF, mp.zero), _log, lambda y, f: mp.log(y) - mp.log(y + f)),
    "logit": ((-INF, INF), _logit, lambda y, f: mp.log(y) - mp.log(f)),
    "cloglog": ((-INF, INF), _cloglog, lambda y, f: mp.log(mp.log(y + f) - mp.log(f))),
}


def _counts(table):
    return [(s.unexposed.cases, s.unexposed.total - s.unexposed.cases,
             s.exposed.cases, s.exposed.total - s.exposed.cases) for s in table.strata]


def _cell(pq, y, f, eta):
    """l, dl/deta and d2l/deta2 of y cases and f non-cases at eta; a term
    whose count is 0 is left out (0 log 0 = 0), and one whose p or 1 - p is
    0 makes l -inf, with the sign its slope has there."""
    p, q, dp, d2p = pq(eta)
    l = d = h = mp.zero
    for n, r, sign in ((y, p, 1), (f, q, -1)):
        if n:
            if not r > 0:
                return -INF, sign * INF, -INF
            l += n * mp.log(r)
            d += sign * n * dp / r
            h += sign * n * d2p / r - n * dp * dp / (r * r)
    return l, d, h


def _root(func, lo, hi, x):
    """The x in (lo, hi) where v, decreasing, changes sign: Newton steps on
    (v, v') = func(x) from x, each evaluation narrowing the bracket by the
    sign of v (Numerical Recipes' rtsafe). Where a step would leave a finite
    bracket or not halve |v|, the midpoint instead; toward an infinite end
    no step is longer than 1 or twice the last. Stops at a step of at most
    10^(8 - DPS) max(1, |x|)."""
    move = old = INF
    for _ in range(1000):
        v, dv = func(x)
        if v > 0:
            lo = x
        elif v < 0:
            hi = x
        else:
            return x
        step = v / dv if dv < 0 else INF
        if abs(step) <= _TOL * max(1, abs(x)):
            return x - step
        end = hi if v > 0 else lo
        if abs(end) == INF:
            limit = 1 if move == INF else max(1, 2 * abs(move))
            step = step if abs(step) <= limit else -mp.sign(end) * limit
        elif not (lo < x - step < hi and abs(2 * step) < abs(old)):
            step = x - (lo + hi) / 2
        old, move = move, step
        x -= move
        if not lo < x < hi:
            return x
    raise ArithmeticError("no root after 1000 steps")


def _stratum(link, y0, f0, y1, f1, b1, side, starts):
    """(l, dl/db1, d2l/db1^2) of the stratum's supremum over a at b1. The end
    of a's range at which the exposed cell is at an end of its own moves
    with b1 (at b1 = 0 the side of side's sign says which). By the envelope
    theorem dl/db1 is the exposed cell's dl/deta at an interior maximum or a
    fixed end, minus the unexposed cell's at a moving end, and 0 at an
    infinite end, where every p is 0 or 1; d2l/db1^2 is h0 h1 / (h0 + h1),
    that same cell's h, or 0. A solve starts from the stratum's last
    maximizer in starts where that is inside the bracket: not its root."""
    (lo_eta, hi_eta), pq, to_eta = _LINKS[link]
    lo, hi = max(lo_eta, lo_eta - b1), min(hi_eta, hi_eta - b1)
    if not lo < hi:
        raise ValueError(f"no feasible model with exposure coefficient {b1}")
    up = b1 > 0 or (b1 == 0 and side > 0)

    def at(eta0, eta1):
        (l0, d0, h0), (l1, d1, h1) = _cell(pq, y0, f0, eta0), _cell(pq, y1, f1, eta1)
        return l0 + l1, d0 + d1, (d0, h0, d1, h1)

    if (lo == -INF and not y0 + y1) or (hi == INF and not f0 + f1):
        return mp.zero, mp.zero, mp.zero
    # a finite end is the maximum where l' does not point into (lo, hi)
    for eta, moving, inward in ((lo_eta, not up, 1), (hi_eta, up, -1)):
        if abs(eta) < INF:
            l, d, (d0, h0, d1, h1) = at(*((eta - b1, eta) if moving else (eta, eta + b1)))
            if inward * d <= 0:
                return (l, -d0, h0) if moving else (l, d1, h1)
    # the root lies between the cells' own maximizers (-inf for an empty
    # cell, inf for a full one); it starts from their mean weighted by the
    # cell totals, or from 0 moved into the bracket
    targets = [to_eta(y, f) - shift if y and f else (INF if y else -INF) for y, f, shift in ((y0, f0, 0), (y1, f1, b1))]
    a = a_lo = max(lo, min(targets))
    a_hi = min(hi, max(targets))
    if a_lo < a_hi:
        inside = [(t, y + f) for t, y, f in zip(targets, (y0, y1), (f0, f1)) if a_lo <= t <= a_hi and abs(t) < INF]
        start = starts.get(key := (y0, f0, y1, f1), mp.nan)
        if not a_lo < start < a_hi:
            start = mp.fsum(t * n for t, n in inside) / sum(n for _, n in inside) if inside else min(max(0, a_lo), a_hi)
        a = starts[key] = _root(lambda a: (lambda l, d, p: (d, p[1] + p[3]))(*at(a, a + b1)), a_lo, a_hi, start)
    l, _, (_, h0, d1, h1) = at(a, a + b1)
    return l, d1, h0 * h1 / (h0 + h1) if h0 + h1 else mp.zero


def profile(table, link, b1):
    """(lp, lp', lp'') at b1, a float or an mpf, the derivatives at b1 = 0
    from the right. ValueError where no model is feasible."""
    return _profile(getattr(link, "value", link), _counts(table), mp.mpf(b1), 1, {})


def _profile(link, strata, b1, side, starts):
    return tuple(mp.fsum(v) for v in zip(*(_stratum(link, *c, b1, side, starts) for c in strata)))


def saturated_loglik(table):
    """The saturated supremum: y ln(y/n) + f ln(f/n) summed over cells, 0 ln 0 = 0."""
    return mp.fsum(k * (mp.log(k) - mp.log(y + f)) for y0, f0, y1, f1 in _counts(table)
                   for y, f in ((y0, f0), (y1, f1)) for k in (y, f) if k)


def run_off(table, link) -> int:
    """+1 or -1 when lp rises to the saturated supremum as b1 goes to that
    end of its range and not the other, else 0: every stratum reaches its
    observed risks there. The unexposed p goes to 0 or the exposed one to 1,
    and where the link's eta range ends above (below), that p must."""
    lo_eta, hi_eta = _LINKS[getattr(link, "value", link)][0]
    rule = lambda y0, f1: (not y0 or not f1) and (not y0 or hi_eta == INF) and (not f1 or lo_eta == -INF)
    strata = _counts(table)
    return all(rule(y0, f1) for y0, _, _, f1 in strata) - all(rule(y1, f0) for _, f0, y1, _ in strata)


def restricted_fit(table, link):
    """(b1, lp(b1)) at the maximum of lp: at a run-off (see run_off) the end
    of the range fit searches, +-(eta(1 - 1e-13) - eta(1e-13)), with the
    saturated supremum; with one stratum the saturated closed form
    b1 = eta1 - eta0, a risk of 0 or 1 taken at 1e-13 or 1 - 1e-13 as fit
    reports it; otherwise the root of lp', or b1 = 0 where lp' changes sign
    there only (the kink of the identity and log links)."""
    link = getattr(link, "value", link)
    (lo_eta, hi_eta), _, to_eta = _LINKS[link]
    eta = lambda y, f: to_eta(y, f) if y and f else (lambda p: to_eta(p, 1 - p))(_EDGES[bool(y)])
    if direction := run_off(table, link):
        return direction * (eta(1, 0) - eta(0, 1)), saturated_loglik(table)
    strata, starts = _counts(table), {}
    if len(strata) == 1:
        ((y0, f0, y1, f1),) = strata
        return eta(y1, f1) - eta(y0, f0), saturated_loglik(table)
    right = _profile(link, strata, mp.zero, 1, starts)
    left = _profile(link, strata, mp.zero, -1, starts) if hi_eta < INF else right
    if left[1] >= 0 >= right[1]:
        return mp.zero, right[0]
    # lp' changes sign at x = sign b1 > 0, from the Newton step at 0, at
    # most 1 and inside b1's range
    sign, (_, d, h) = (1, right) if right[1] > 0 else (-1, left)
    slope = lambda x: (lambda l, d, h: (sign * d, h))(*_profile(link, strata, sign * x, 1, starts))
    x = _root(slope, mp.zero, hi_eta - lo_eta, min(sign * d / -h if h < 0 else mp.one, mp.one, (hi_eta - lo_eta) / 2))
    return sign * x, _profile(link, strata, sign * x, 1, starts)[0]
