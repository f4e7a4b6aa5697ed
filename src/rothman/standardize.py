"""Standardized risks and points, hull geometry, confounding detection,
and extremal standardized measures over the weight simplex.

A standard distribution assigns one nonnegative weight per stratum
(summing to 1); applying the same weights to both exposure arms removes
confounding by the stratifier, and the reachable standardized points are
exactly the convex hull of the stratum points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ModificationError
from .measures import Measure, _gradient_xy, _same_level, check_domain, evaluate, null_value
from .tables import RiskPoint, StratifiedTable, _pooled_counts, crude_point, stratum_points

_WEIGHT_SUM_TOL = 1e-12
_VALUE_TIE_TOL = 1e-12
# a crude point this far or less from the hull reads as unconfounded
_CONFOUNDING_TOL = 1e-9
_VERTEX_TOL = 1e-9
# the most weight vectors one pass of the grid oracle scans: n + 1 at K = 2,
# and at K >= 3 (n + 1)(n + 2)/2, the length of its two int16 pair tables
# (20 MB each at the bound), which caps n at 4470
GRID_MAX_ENTRIES = 10**7
# the grid oracle evaluates a pass this many weight vectors at a time, so its
# float64 working set is a few hundred KB however long the pass
_GRID_TILE = 4096
# the grid oracle's lattice spacing when none is given (1/n, n = 1000)
GRID_RESOLUTION = 0.001
# the most weight vectors the grid oracle scans: the largest lattice the
# tests scan, K = 4 at that spacing, has 1.7e8 and takes 3-5 s on one Xeon core
GRID_MAX_POINTS = 10**9
# the most passes of the loop over the first K - 3 weights: each pass scans
# the last three in 20-45 us on one Xeon core (K = 5-12), so 10^6 passes
# take under a minute
_GRID_MAX_HEADS = 10**6


@dataclass(frozen=True)
class StandardDistribution:
    """Nonnegative stratum weights summing to 1, aligned with table strata."""

    weights: tuple[float, ...]

    def __post_init__(self):
        # + 0.0 maps a -0.0 weight to 0.0 and leaves every other weight's bits
        object.__setattr__(self, "weights", tuple(float(w) + 0.0 for w in self.weights))
        if len(self.weights) < 1:
            raise DomainError("a standard distribution needs at least one weight")
        if not all(math.isfinite(w) and w >= 0.0 for w in self.weights):
            raise DomainError(f"weights must be finite and nonnegative, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1, got sum = {sum(self.weights)!r}")


def uniform_distribution(k: int) -> StandardDistribution:
    return StandardDistribution(tuple(1.0 / k for _ in range(k)))


def _shares(sizes) -> tuple[float, ...]:
    """Each size's share of their total."""
    grand = sum(sizes)
    return tuple(n / grand for n in sizes)


def marginal_distribution(table: StratifiedTable) -> StandardDistribution:
    """The combined-arms stratum size distribution of the study population."""
    return StandardDistribution(_shares([s.exposed.total + s.unexposed.total for s in table.strata]))


def _weighted_point(points, x_weights, y_weights) -> RiskPoint:
    """The point whose x is the x_weights average of the points' x and whose
    y is the y_weights average of their y: a standardized point when both
    weights are one standard distribution, the crude point when each is its
    arm's own size shares."""
    # weights within _WEIGHT_SUM_TOL of summing to 1 can round a sum of risks
    # of 1 above 1; weights are nonnegative, so no sum goes below 0
    return RiskPoint(
        min(1.0, sum(w * p.x for w, p in zip(x_weights, points))),
        min(1.0, sum(w * p.y for w, p in zip(y_weights, points))),
    )


def standardized_point(table: StratifiedTable, dist: StandardDistribution) -> RiskPoint:
    """Risk point with both arms standardized to the same distribution: the
    weighted average of the stratum points, one weight per stratum."""
    if len(dist.weights) != table.k:
        raise DomainError(
            f"distribution has {len(dist.weights)} weights but the table has {table.k} strata"
        )
    return _weighted_point(stratum_points(table), dist.weights, dist.weights)


# ---------------------------------------------------------------------------
# hull geometry
#
# The chain construction below works for both float and integer
# coordinates; integer input gives exact orientation tests.
# ---------------------------------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(points):
    """Convex hull via monotone chain: counterclockwise vertex tuples starting
    at the lowest (then leftmost) vertex, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    start = min(range(len(hull)), key=lambda i: (hull[i][1], hull[i][0]))
    return hull[start:] + hull[:start]


def _hull_contains(hull, q):
    """Membership (boundary inclusive) for a hull as produced by _hull_vertices."""
    if len(hull) == 1:
        return q[0] == hull[0][0] and q[1] == hull[0][1]
    if len(hull) == 2:
        a, b = hull
        if _cross(a, b, q) != 0:
            return False
        dot = (q[0] - a[0]) * (b[0] - a[0]) + (q[1] - a[1]) * (b[1] - a[1])
        length2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
        return 0 <= dot <= length2
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        if _cross(a, b, q) < 0:
            return False
    return True


@dataclass(frozen=True)
class StandardizedHull:
    """Convex hull of stratum points: the reachable standardized points.

    Degenerate forms are legal: one vertex (a point) or two (a segment).
    """

    vertices: tuple[RiskPoint, ...]

    def is_vertex(self, p: RiskPoint) -> bool:
        """Whether p is within 1e-9 of a vertex in each coordinate."""
        return any(
            abs(v.x - p.x) <= _VERTEX_TOL and abs(v.y - p.y) <= _VERTEX_TOL for v in self.vertices
        )


def _check_points(points: list[RiskPoint], measure: Measure | None = None) -> None:
    """Refuse an empty point list and, given a measure, a point outside its domain."""
    if len(points) < 1:
        raise DomainError("need at least one point")
    if measure is not None:
        for p in points:
            check_domain(measure, p)


def standardized_hull(points: list[RiskPoint]) -> StandardizedHull:
    _check_points(points)
    verts = _hull_vertices([(p.x, p.y) for p in points])
    return StandardizedHull(tuple(RiskPoint(x, y) for x, y in verts))


def point_segment_distance(p: RiskPoint, a: RiskPoint, b: RiskPoint) -> float:
    dx, dy = b.x - a.x, b.y - a.y
    length2 = dx * dx + dy * dy
    if length2 == 0.0:
        return math.hypot(p.x - a.x, p.y - a.y)
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / length2
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy))


def distance_to_hull(p: RiskPoint, hull: StandardizedHull) -> float:
    """Euclidean distance to the hull; 0 when the point is inside or on it."""
    verts = hull.vertices
    if len(verts) <= 2:
        return point_segment_distance(p, verts[0], verts[-1])
    if _hull_contains([(v.x, v.y) for v in verts], (p.x, p.y)):
        return 0.0
    return min(
        point_segment_distance(p, verts[i], verts[(i + 1) % len(verts)])
        for i in range(len(verts))
    )


@dataclass(frozen=True)
class ConfoundingResult:
    """The geometric confounding test of is_confounded. ``confounded`` is
    whether the crude point lies off the hull of the stratum points:
    outside it in exact arithmetic, and farther than 1e-9 from it.
    ``distance`` is the crude point's Euclidean distance to the stratum
    hull, 0 when it lies on or inside the hull."""

    confounded: bool
    distance: float


def is_confounded(table: StratifiedTable) -> ConfoundingResult:
    """Whether the crude point lies off the hull of the stratum points.

    Membership is decided exactly, on integers, so a crude point that is
    exactly on the hull never reads as confounded. With C/N and D/M the
    crude risks, stratum j's point (c_j/n_j, d_j/m_j) becomes the offset
    ((c_j N - C n_j) m_j, (d_j M - D m_j) n_j): its difference from the
    crude point times n_j m_j N M, then scaled by diag(1/M, 1/N). Both maps
    are positive, so the crude point is in the stratum hull exactly when
    the origin is in the offsets' hull, and no coordinate exceeds K T^3 for
    T the largest arm total. The diagnostic distance is then computed in
    floating point, from the correctly rounded risks of stratum_points and
    crude_point.
    """
    if table.k < 2:
        raise DomainError("confounding analysis needs at least two strata")
    uc, ut, ec, et = _pooled_counts(table)
    offsets = [((s.unexposed.cases * ut - uc * s.unexposed.total) * s.exposed.total,
                (s.exposed.cases * et - ec * s.exposed.total) * s.unexposed.total) for s in table.strata]
    if _hull_contains(_hull_vertices(offsets), (0, 0)):
        return ConfoundingResult(False, 0.0)
    dist = distance_to_hull(crude_point(table), standardized_hull(stratum_points(table)))
    return ConfoundingResult(dist > _CONFOUNDING_TOL, dist)


# ---------------------------------------------------------------------------
# extremal standardized measures over the simplex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremeResult:
    """An extremal standardized value and a weight vector achieving it."""

    value: float
    weights: tuple[float, ...]


def _check_objective(objective: str) -> int:
    if objective == "min":
        return 1
    if objective == "max":
        return -1
    raise DomainError(f"objective must be 'min' or 'max', got {objective!r}")


def _better(value: float, weights: tuple, best: tuple[float, tuple] | None, sign: int) -> bool:
    """Whether value at weights beats best: more extreme by more than
    _VALUE_TIE_TOL relative to the larger magnitude, or within that of it
    (a tie) at a smaller weight vector."""
    if best is None:
        return True
    tie = _VALUE_TIE_TOL * max(abs(value), abs(best[0]))
    if sign * value < sign * best[0] - tie:
        return True
    return abs(value - best[0]) <= tie and weights < best[1]


def _extremize_segment(points: list[RiskPoint], measure: Measure, sign: int) -> ExtremeResult:
    """Optimum over one segment, as weights (w, 1 - w) on its two end points.

    The candidates are the end points and, when the signed directional
    derivative f is negative at w = 0 and positive at w = 1, its one root
    (extremize_standardized says why there is at most one): the midpoint of
    a bracket [lo, hi] on which f changes sign, narrowed until it is at most
    1e-15 wide. Each step evaluates f at the Illinois point (Dowell &
    Jarratt 1971, BIT 11:168-174): regula falsi between the bracket's ends,
    with the f kept at an end halved each time the other end moves twice
    in a row, so both ends close in. Where that point is not inside
    (lo, hi) the step bisects, and where f is 0 the bracket collapses onto
    that w. Each step takes the point w p0 + (1 - w) p1 and the measure's
    gradient there on plain floats, through _gradient_xy, and builds no
    RiskPoint."""
    p0, p1 = points
    # + 0.0 maps a -0.0 coordinate to 0.0, so w x0 + (1 - w) x1 of two
    # zeros is 0.0, never -0.0
    x0, y0, x1, y1 = p0.x + 0.0, p0.y + 0.0, p1.x + 0.0, p1.y + 0.0
    dx, dy = x0 - x1, y0 - y1

    def fprime(w: float) -> float:
        v = 1.0 - w
        gx, gy = _gradient_xy(measure, w * x0 + v * x1, w * y0 + v * y1)
        return sign * (gx * dx + gy * dy)

    candidates = [0.0, 1.0]
    lo, hi = 0.0, 1.0
    f_lo, f_hi = fprime(lo), fprime(hi)
    if f_lo < 0.0 < f_hi:
        moved = 0  # -1 or 1 after lo or hi moved last
        while hi - lo > 1e-15:
            w = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            if not lo < w < hi:
                w = 0.5 * (lo + hi)
            f = fprime(w)
            if f < 0.0:
                lo, f_lo = w, f
                if moved < 0:
                    f_hi *= 0.5
                moved = -1
            elif f > 0.0:
                hi, f_hi = w, f
                if moved > 0:
                    f_lo *= 0.5
                moved = 1
            else:
                lo = hi = w
        candidates.append(0.5 * (lo + hi))
    best: tuple[float, tuple] | None = None
    for w in candidates:
        v = 1.0 - w
        value = evaluate(measure, RiskPoint(w * x0 + v * x1, w * y0 + v * y1))
        weights = (w, v)
        if _better(value, weights, best, sign):
            best = (value, weights)
    return ExtremeResult(best[0], best[1])


def extremize_standardized(points: list[RiskPoint], measure: Measure, objective: str) -> ExtremeResult:
    """Optimum of the measure over all standardized points of the given
    stratum points, with a witnessing weight vector.

    Every measure is monotone on the unit square with a gradient that never
    vanishes, so its optima over the hull lie on the hull boundary: each
    hull edge is searched by _extremize_segment (a one-point hull is one
    zero-length edge) and the best edge wins, ties going to the smallest
    weight vector. The witness therefore has at most two nonzero weights,
    on the strata at the ends of one edge. Strata that share a point are
    represented by the last of them.

    Along an edge the measure's directional derivative changes sign at most
    once, so the end points and one root search on that sign (the Illinois
    method, see _extremize_segment) find the edge optimum. RD and RR
    contours are straight, so both measures are monotone along every
    segment. OR and CHR contours are concave above the null line
    y = x and convex below it: {M <= m} is convex for m >= 1 (the region
    under a concave contour) and {M >= m} is convex for m <= 1 (the region
    above a convex one). Along a segment M is therefore quasi-convex where
    M >= 1 and quasi-concave where M <= 1, and a segment that crosses the
    straight null line, where M = 1, is monotone.
    """
    sign = _check_objective(objective)
    _check_points(points, measure)
    index = {(p.x, p.y): i for i, p in enumerate(points)}
    hull = [index[v] for v in _hull_vertices(list(index))]
    edges = {tuple(sorted((hull[t], hull[t - 1]))) for t in range(len(hull))}
    best: tuple[float, tuple] | None = None
    for i, j in sorted(edges):
        res = _extremize_segment([points[i], points[j]], measure, sign)
        weights = [0.0] * len(points)
        weights[i], weights[j] = res.weights
        if _better(res.value, tuple(weights), best, sign):
            best = (res.value, tuple(weights))
    return ExtremeResult(best[0], best[1])


def _evaluate_arrays(measure: Measure, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if measure is Measure.RISK_DIFFERENCE:
        return y - x
    if measure is Measure.RISK_RATIO:
        return y / x
    if measure is Measure.ODDS_RATIO:
        return (y / (1.0 - y)) * ((1.0 - x) / x)
    return np.log1p(-y) / np.log1p(-x)


def _composition_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    # all (a, b) with a + b <= n, ordered by a + b then a, so the prefix of
    # length C(budget + 2, 2) enumerates exactly the pairs with a + b <= budget;
    # int16 holds them, since the entry bound caps n at 4470
    s = np.repeat(np.arange(n + 1, dtype=np.int16), np.arange(n + 1) + 1)
    a = np.concatenate([np.arange(t + 1, dtype=np.int16) for t in range(n + 1)])
    s -= a
    return a, s


def _first_min(values_at, size: int, sign: int) -> tuple[int, float]:
    """The index that np.argmin(sign * values) picks in the size values that
    values_at(lo, hi) returns _GRID_TILE at a time (the first minimum, or
    the first NaN if there is one), and the value there."""
    best = None
    for lo in range(0, size, _GRID_TILE):
        values = values_at(lo, min(lo + _GRID_TILE, size))
        keys = sign * values
        j = int(np.argmin(keys))
        key = float(keys[j])
        if best is None or key < best[1] or (math.isnan(key) and not math.isnan(best[1])):
            best = (lo + j, key, float(values[j]))
    return best[0], best[2]


def _heads(xs, ys, depth: int, stop: int, budget: int, head: tuple, head_x, head_y):
    """(budget left, head, head_x, head_y) for every split of at most budget
    lattice steps over the weights depth, ..., stop - 1, in lexicographic
    order of head; head_x and head_y accumulate head's weighted sums.

    It lives at module level: a nested function that calls itself through
    its closure is a reference cycle, which would keep the oracle's arrays
    alive until the cyclic GC runs."""
    if depth == stop:
        yield budget, head, head_x, head_y
        return
    for i in range(budget + 1):
        yield from _heads(
            xs, ys, depth + 1, stop, budget - i, head + (i,), head_x + i * xs[depth], head_y + i * ys[depth]
        )


def grid_extremize(
    points: list[RiskPoint], measure: Measure, objective: str, resolution: float = GRID_RESOLUTION
) -> ExtremeResult:
    """Brute-force verification oracle: exhaustive search over the lattice of
    weight vectors with the given spacing, 1/n.

    It scans C(n + K - 1, K - 1) weight vectors in C(n + K - 3, K - 3)
    passes of its loop over the first K - 3 weights (one pass at K = 2). A
    pass scans n + 1 weight vectors at K = 2, and up to (n + 1)(n + 2)/2 at
    K >= 3, one for each pair of weights on the third- and second-last
    strata in two int16 tables of that length. It evaluates them _GRID_TILE
    at a time and keeps the first optimum, the one np.argmin over the whole
    pass would pick. A resolution that makes a pass exceed
    GRID_MAX_ENTRIES, the weight vectors GRID_MAX_POINTS or the passes
    _GRID_MAX_HEADS raises DomainError before any array is allocated."""
    sign = _check_objective(objective)
    _check_points(points, measure)
    if not 0.0 < resolution <= 1.0:
        raise DomainError(f"resolution must be in (0, 1], got {resolution}")
    k = len(points)
    if k == 1:
        return ExtremeResult(evaluate(measure, points[0]), (1.0,))
    steps = 1.0 / resolution  # inf for a subnormal resolution
    n = round(steps) if steps < GRID_MAX_ENTRIES else steps
    if (n + 1 if k == 2 else (n + 1) * (n + 2) / 2) > GRID_MAX_ENTRIES:
        raise DomainError(
            f"grid resolution {resolution:g} is too fine for {k} strata: the oracle "
            f"would scan more than {GRID_MAX_ENTRIES} weight vectors in one pass"
        )
    # n is a finite integer here, so math.comb is exact
    if math.comb(n + k - 1, k - 1) > GRID_MAX_POINTS:
        raise DomainError(
            f"grid resolution {resolution:g} is too fine for {k} strata: the oracle "
            f"would scan more than {GRID_MAX_POINTS} weight vectors"
        )
    if k >= 3 and math.comb(n + k - 3, k - 3) > _GRID_MAX_HEADS:
        raise DomainError(
            f"grid resolution {resolution:g} is too fine for {k} strata: the oracle "
            f"would loop over the first {k - 3} weights more than {_GRID_MAX_HEADS} times"
        )
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])

    if k == 2:

        def line(lo, hi):
            a = np.arange(lo, hi)
            sx = (a * xs[0] + (n - a) * xs[1]) / n
            sy = (a * ys[0] + (n - a) * ys[1]) / n
            return _evaluate_arrays(measure, sx, sy)

        i, value = _first_min(line, n + 1, sign)
        return ExtremeResult(value, (i / n, (n - i) / n))

    pair_a, pair_b = _composition_pairs(n)
    prefix = (np.arange(n + 1) + 1) * (np.arange(n + 1) + 2) // 2
    best: tuple[float, tuple] | None = None
    for budget, head, head_x, head_y in _heads(xs, ys, 0, k - 3, n, (), 0.0, 0.0):

        def line(lo, hi):
            a, b = pair_a[lo:hi], pair_b[lo:hi]
            c = budget - a - b
            sx = (head_x + a * xs[-3] + b * xs[-2] + c * xs[-1]) / n
            sy = (head_y + a * ys[-3] + b * ys[-2] + c * ys[-1]) / n
            return _evaluate_arrays(measure, sx, sy)

        i, value = _first_min(line, prefix[budget], sign)
        a, b = int(pair_a[i]), int(pair_b[i])
        w = tuple(h / n for h in head) + (a / n, b / n, (budget - a - b) / n)
        if _better(value, w, best, sign):
            best = (value, w)
    return ExtremeResult(best[0], best[1])


# ---------------------------------------------------------------------------
# collapsibility verdicts
# ---------------------------------------------------------------------------


class Verdict(Enum):
    COLLAPSIBLE_HERE = "collapsible-here"
    ATTENUATED_TOWARD_NULL = "attenuated-toward-null"


@dataclass(frozen=True)
class CollapsibilityReport:
    """The collapsibility verdict of stratum points on one contour of
    ``measure``. ``common_value`` is the mean of the stratum values, which
    agree to the contour rule; ``minimum`` and ``maximum`` are the extremal
    standardized values over all standard distributions, each with weights
    that reach it; ``verdict`` says whether those extremes lie on the
    common contour (collapsible here) or between it and the null value
    (attenuated toward the null)."""

    measure: Measure
    common_value: float
    minimum: ExtremeResult
    maximum: ExtremeResult
    verdict: Verdict


# how many of its rounding bounds (see _rounding) a point's value may stray
# from a common contour level: each bound is at least 2 eps, and the
# multiple also covers the rounding of each cell's eta, about |eta| eps
# with |eta| < 30 between the fit's clips at 1e-13 and 1 - 1e-13
_ROUNDING_MULTIPLE = 32.0


def _rounding(measure: Measure, p: RiskPoint) -> float:
    """A bound on the rounding that the measure's value at p carries from
    the rounding of p's risks, on the scale of _same_level: 2 eps, absolute
    for the risk difference and relative for the risk ratio; for the odds
    ratio and the cumulative hazard ratio, relative, eps (1 / (1 - y) +
    1 / (1 - x)), as each 1 - p keeps only the digits of p next to 1."""
    eps = math.ulp(1.0)
    if measure in (Measure.RISK_DIFFERENCE, Measure.RISK_RATIO):
        return 2.0 * eps
    return eps * (1.0 / (1.0 - p.y) + 1.0 / (1.0 - p.x))


def _share_a_level(measure: Measure, points: list[RiskPoint], values) -> bool:
    """Whether one contour level lies within each value's tolerance: the
    larger of half of _same_level's 1e-9 and _ROUNDING_MULTIPLE times its
    point's rounding bound, relative for the ratios and absolute for the
    risk difference. One level does exactly when each two values differ by
    at most the sum of their tolerances."""
    ratio = measure is not Measure.RISK_DIFFERENCE
    widths = [
        max(0.5e-9, _ROUNDING_MULTIPLE * _rounding(measure, p)) * (abs(v) if ratio else 1.0)
        for p, v in zip(points, values)
    ]
    return max(v - w for v, w in zip(values, widths)) <= min(v + w for v, w in zip(values, widths))


def collapsibility_verdict(points: list[RiskPoint], measure: Measure) -> CollapsibilityReport:
    """Classify how standardized values behave when every stratum point sits
    on one contour: either they all equal the common value (straight contour)
    or the interior of the hull is strictly attenuated toward the null.

    Refuses to run when the points are on different contours, beyond the
    rounding that their values carry from the points' own (see
    _share_a_level): near a risk of 1, the odds ratios of a no-interaction
    fit's rounded points spread by up to about 1e-4 relative.
    """
    # evaluate checks each point's domain
    _check_points(points)
    values = tuple(evaluate(measure, p) for p in points)
    if not _share_a_level(measure, points, values):
        raise ModificationError(
            f"stratum {measure.label} values differ: "
            + ", ".join(f"{v:.6g}" for v in values)
            + "; collapsibility verdict undefined under modification",
            values,
        )
    m = sum(values) / len(values)
    minimum = extremize_standardized(points, measure, "min")
    maximum = extremize_standardized(points, measure, "max")
    if _same_level(measure, minimum.value, maximum.value):
        verdict = Verdict.COLLAPSIBLE_HERE
    else:
        # the interval between the null and the stratum values, which
        # spread by their rounding about the common value m
        null = null_value(measure)
        lo, hi = min(null, *values), max(null, *values)
        below = minimum.value < lo and not _same_level(measure, minimum.value, lo)
        if below or (maximum.value > hi and not _same_level(measure, maximum.value, hi)):
            raise DomainError(
                f"standardized {measure.label} range [{minimum.value}, {maximum.value}] "
                f"escapes the interval between null and the stratum values [{min(values)}, {max(values)}]"
            )
        verdict = Verdict.ATTENUATED_TOWARD_NULL
    return CollapsibilityReport(measure, m, minimum, maximum, verdict)
