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
from fractions import Fraction

import numpy as np

from .errors import DomainError, ModificationError
from .measures import Measure, check_domain, evaluate, gradient, null_value
from .tables import RiskPoint, StratifiedTable, exact_risk

_WEIGHT_SUM_TOL = 1e-12
_VALUE_TIE_TOL = 1e-12
_COMMON_VALUE_TOL = 1e-9
# a crude point this far or less from the hull reads as unconfounded
_CONFOUNDING_TOL = 1e-9
_VERTEX_TOL = 1e-9
# the grid oracle's largest weight array, in entries (80 MB of float64)
GRID_MAX_ENTRIES = 10**7


@dataclass(frozen=True)
class StandardDistribution:
    """Nonnegative stratum weights summing to 1, aligned with table strata."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) < 1:
            raise DomainError("a standard distribution needs at least one weight")
        if not all(math.isfinite(w) and w >= 0.0 for w in self.weights):
            raise DomainError(f"weights must be finite and nonnegative, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1, got sum = {sum(self.weights)!r}")


def uniform_distribution(k: int) -> StandardDistribution:
    return StandardDistribution(tuple([1.0 / k] * k))


def marginal_distribution(table: StratifiedTable) -> StandardDistribution:
    """The combined-arms stratum size distribution of the study population."""
    sizes = [s.exposed.total + s.unexposed.total for s in table.strata]
    grand = sum(sizes)
    return StandardDistribution(tuple(n / grand for n in sizes))


def standardized_risk(table: StratifiedTable, exposed: bool, dist: StandardDistribution) -> float:
    """Weighted average of stratum-specific risks in one exposure arm."""
    if len(dist.weights) != table.k:
        raise DomainError(
            f"distribution has {len(dist.weights)} weights but the table has {table.k} strata"
        )
    return sum(
        w * ((s.exposed.cases / s.exposed.total) if exposed else (s.unexposed.cases / s.unexposed.total))
        for w, s in zip(dist.weights, table.strata)
    )


def standardized_point(table: StratifiedTable, dist: StandardDistribution) -> RiskPoint:
    """Risk point with both arms standardized to the same distribution."""
    return RiskPoint(
        standardized_risk(table, exposed=False, dist=dist),
        standardized_risk(table, exposed=True, dist=dist),
    )


# ---------------------------------------------------------------------------
# hull geometry
#
# The chain construction below works for both float and Fraction
# coordinates; exact rational input gives exact orientation tests.
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
    if len(hull) < 2:  # all input points collinear reduce to a 2-point chain
        hull = [pts[0], pts[-1]]
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


def standardized_hull(points: list[RiskPoint]) -> StandardizedHull:
    if len(points) < 1:
        raise DomainError("need at least one point")
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
    if len(verts) == 1:
        return math.hypot(p.x - verts[0].x, p.y - verts[0].y)
    if len(verts) == 2:
        return point_segment_distance(p, verts[0], verts[1])
    if _hull_contains([(v.x, v.y) for v in verts], (p.x, p.y)):
        return 0.0
    return min(
        point_segment_distance(p, verts[i], verts[(i + 1) % len(verts)])
        for i in range(len(verts))
    )


@dataclass(frozen=True)
class ConfoundingResult:
    confounded: bool
    distance: float


def is_confounded(table: StratifiedTable) -> ConfoundingResult:
    """Whether the crude point lies off the hull of the stratum points.

    Membership is decided in exact rational arithmetic on the counts, so a
    crude point that is exactly on the hull never reads as confounded; the
    diagnostic distance is then computed in floating point.
    """
    if table.k < 2:
        raise DomainError("confounding analysis needs at least two strata")
    exact_pts = [(exact_risk(s.unexposed), exact_risk(s.exposed)) for s in table.strata]
    crude = (
        Fraction(sum(s.unexposed.cases for s in table.strata), sum(s.unexposed.total for s in table.strata)),
        Fraction(sum(s.exposed.cases for s in table.strata), sum(s.exposed.total for s in table.strata)),
    )
    if _hull_contains(_hull_vertices(exact_pts), crude):
        return ConfoundingResult(False, 0.0)
    float_hull = standardized_hull([RiskPoint(float(x), float(y)) for x, y in exact_pts])
    dist = distance_to_hull(RiskPoint(float(crude[0]), float(crude[1])), float_hull)
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


def _combo(points: list[RiskPoint], w) -> RiskPoint:
    return RiskPoint(
        sum(wi * p.x for wi, p in zip(w, points)),
        sum(wi * p.y for wi, p in zip(w, points)),
    )


def _better(value: float, weights: tuple, best: tuple[float, tuple] | None, sign: int) -> bool:
    if best is None:
        return True
    if sign * value < sign * best[0] - _VALUE_TIE_TOL:
        return True
    if abs(value - best[0]) <= _VALUE_TIE_TOL and weights < best[1]:
        return True
    return False


def _extremize_segment(points: list[RiskPoint], measure: Measure, sign: int) -> ExtremeResult:
    """Optimum over one segment, as weights (w, 1 - w) on its two end points.

    The candidates are the end points and, when the signed directional
    derivative is negative at w = 0 and positive at w = 1, its one root,
    found by bisection on its sign (extremize_standardized says why there
    is at most one)."""
    p0, p1 = points

    def fprime(w: float) -> float:
        gx, gy = gradient(measure, _combo(points, (w, 1.0 - w)))
        return sign * (gx * (p0.x - p1.x) + gy * (p0.y - p1.y))

    candidates = [0.0, 1.0]
    lo, hi = 0.0, 1.0
    if fprime(lo) < 0.0 < fprime(hi):
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            if fprime(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        candidates.append(0.5 * (lo + hi))
    best: tuple[float, tuple] | None = None
    for w in candidates:
        value = sign * evaluate(measure, _combo(points, (w, 1.0 - w)))
        weights = (w, 1.0 - w)
        if _better(value, weights, best, 1):
            best = (value, weights)
    return ExtremeResult(sign * best[0], best[1])


def extremize_standardized(points: list[RiskPoint], measure: Measure, objective: str) -> ExtremeResult:
    """Optimum of the measure over all standardized points of the given
    stratum points, with a witnessing weight vector.

    Every measure is monotone on the unit square with a gradient that never
    vanishes, so its optima over the hull lie on the hull boundary: each
    hull edge is searched by _extremize_segment and the best edge wins,
    ties going to the smallest weight vector. The witness therefore has at
    most two nonzero weights, on the strata at the ends of one edge. Strata
    that share a point are represented by the last of them.

    Along an edge the measure's directional derivative changes sign at most
    once, so the end points and one bisection on that sign find the edge
    optimum. RD and RR contours are straight, so both measures are monotone
    along every segment. OR and CHR contours are concave above the null line
    y = x and convex below it: {M <= m} is convex for m >= 1 (the region
    under a concave contour) and {M >= m} is convex for m <= 1 (the region
    above a convex one). Along a segment M is therefore quasi-convex where
    M >= 1 and quasi-concave where M <= 1, and a segment that crosses the
    straight null line, where M = 1, is monotone.
    """
    sign = _check_objective(objective)
    if len(points) < 1:
        raise DomainError("need at least one point")
    for p in points:
        check_domain(measure, p)
    index = {(p.x, p.y): i for i, p in enumerate(points)}
    hull = [index[v] for v in _hull_vertices(list(index))]
    if len(hull) == 1:
        weights = [0.0] * len(points)
        weights[hull[0]] = 1.0
        return ExtremeResult(evaluate(measure, points[hull[0]]), tuple(weights))
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
    # length C(budget + 2, 2) enumerates exactly the pairs with a + b <= budget
    s = np.repeat(np.arange(n + 1), np.arange(n + 1) + 1)
    a = np.concatenate([np.arange(t + 1) for t in range(n + 1)])
    return a, s - a


def grid_extremize(
    points: list[RiskPoint], measure: Measure, objective: str, resolution: float = 0.001
) -> ExtremeResult:
    """Brute-force verification oracle: exhaustive search over the lattice of
    weight vectors with the given spacing, 1/n.

    Its largest array has n + 1 entries at K = 2 and (n + 1)(n + 2)/2 (the
    pairs scanned for the last three strata) at K >= 3; a resolution that
    makes it exceed GRID_MAX_ENTRIES raises DomainError before any of it is
    allocated."""
    sign = _check_objective(objective)
    if not 0.0 < resolution <= 1.0:
        raise DomainError(f"resolution must be in (0, 1], got {resolution}")
    for p in points:
        check_domain(measure, p)
    k = len(points)
    if k == 1:
        return ExtremeResult(evaluate(measure, points[0]), (1.0,))
    steps = 1.0 / resolution  # inf for a subnormal resolution
    n = round(steps) if steps < GRID_MAX_ENTRIES else steps
    if (n + 1 if k == 2 else (n + 1) * (n + 2) / 2) > GRID_MAX_ENTRIES:
        raise DomainError(
            f"grid resolution {resolution:g} is too fine for {k} strata: the oracle "
            f"would need an array of more than {GRID_MAX_ENTRIES} entries"
        )
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])

    best: tuple[float, tuple] | None = None

    def consider(values: np.ndarray, weight_cols: list[np.ndarray]):
        nonlocal best
        i = int(np.argmin(sign * values))
        w = tuple(float(col[i]) / n for col in weight_cols)
        if _better(float(values[i]), w, best, sign):
            best = (float(values[i]), w)

    if k == 2:
        a = np.arange(n + 1)
        sx = (a * xs[0] + (n - a) * xs[1]) / n
        sy = (a * ys[0] + (n - a) * ys[1]) / n
        consider(_evaluate_arrays(measure, sx, sy), [a, n - a])
        return ExtremeResult(best[0], best[1])

    pair_a, pair_b = _composition_pairs(n)
    prefix = (np.arange(n + 1) + 1) * (np.arange(n + 1) + 2) // 2

    def scan_triple(budget: int, head: tuple[int, ...], head_x: float, head_y: float):
        m = prefix[budget]
        a, b = pair_a[:m], pair_b[:m]
        c = budget - a - b
        sx = (head_x + a * xs[-3] + b * xs[-2] + c * xs[-1]) / n
        sy = (head_y + a * ys[-3] + b * ys[-2] + c * ys[-1]) / n
        values = _evaluate_arrays(measure, sx, sy)
        i = int(np.argmin(sign * values))
        w = tuple(h / n for h in head) + (float(a[i]) / n, float(b[i]) / n, float(c[i]) / n)
        nonlocal best
        if _better(float(values[i]), w, best, sign):
            best = (float(values[i]), w)

    def recurse(depth: int, budget: int, head: tuple[int, ...], head_x: float, head_y: float):
        if depth == k - 3:
            scan_triple(budget, head, head_x, head_y)
            return
        for i in range(budget + 1):
            recurse(depth + 1, budget - i, head + (i,), head_x + i * xs[depth], head_y + i * ys[depth])

    recurse(0, n, (), 0.0, 0.0)
    return ExtremeResult(best[0], best[1])


# ---------------------------------------------------------------------------
# collapsibility verdicts
# ---------------------------------------------------------------------------


class Verdict(Enum):
    COLLAPSIBLE_HERE = "collapsible-here"
    ATTENUATED_TOWARD_NULL = "attenuated-toward-null"


@dataclass(frozen=True)
class CollapsibilityReport:
    measure: Measure
    common_value: float
    minimum: ExtremeResult
    maximum: ExtremeResult
    verdict: Verdict


def collapsibility_verdict(points: list[RiskPoint], measure: Measure) -> CollapsibilityReport:
    """Classify how standardized values behave when every stratum point sits
    on one contour: either they all equal the common value (straight contour)
    or the interior of the hull is strictly attenuated toward the null.

    Refuses to run when the points are on different contours.
    """
    if len(points) < 1:
        raise DomainError("need at least one point")
    values = tuple(evaluate(measure, p) for p in points)
    if max(values) - min(values) > _COMMON_VALUE_TOL:
        raise ModificationError(
            f"stratum {measure.label} values differ: "
            + ", ".join(f"{v:.6g}" for v in values)
            + "; collapsibility verdict undefined under modification",
            values,
        )
    m = sum(values) / len(values)
    minimum = extremize_standardized(points, measure, "min")
    maximum = extremize_standardized(points, measure, "max")
    if maximum.value - minimum.value <= _COMMON_VALUE_TOL:
        verdict = Verdict.COLLAPSIBLE_HERE
    else:
        null = null_value(measure)
        lo, hi = min(null, m), max(null, m)
        if minimum.value < lo - _COMMON_VALUE_TOL or maximum.value > hi + _COMMON_VALUE_TOL:
            raise DomainError(
                f"standardized {measure.label} range [{minimum.value}, {maximum.value}] "
                f"escapes the interval between null and {m}"
            )
        verdict = Verdict.ATTENUATED_TOWARD_NULL
    return CollapsibilityReport(measure, m, minimum, maximum, verdict)
