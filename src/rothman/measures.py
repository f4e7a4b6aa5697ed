"""The four association measures as functions on the unit square, and
their contour-line geometry.

Coordinates follow the diagram convention: x is the risk in the
unexposed, y the risk in the exposed. Domain violations raise
DomainError rather than returning NaN or infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ContourRangeError, DomainError
from .tables import RiskPoint


class Measure(Enum):
    RISK_DIFFERENCE = "rd"
    RISK_RATIO = "rr"
    ODDS_RATIO = "or"
    CUMULATIVE_HAZARD_RATIO = "chr"

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    Measure.RISK_DIFFERENCE: "risk difference",
    Measure.RISK_RATIO: "risk ratio",
    Measure.ODDS_RATIO: "odds ratio",
    Measure.CUMULATIVE_HAZARD_RATIO: "cumulative hazard ratio",
}


@dataclass(frozen=True)
class ContourValue:
    """A measure together with one of its contour levels."""

    measure: Measure
    m: float

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise DomainError(f"{self.measure.label} level must be finite, got {self.m}")
        if self.measure is Measure.RISK_DIFFERENCE:
            if not -1.0 <= self.m <= 1.0:
                raise DomainError(f"risk difference level must be in [-1, 1], got {self.m}")
        elif self.m < 0.0:
            raise DomainError(f"{self.measure.label} level must be >= 0, got {self.m}")


def check_domain(measure: Measure, p: RiskPoint) -> None:
    """Raise DomainError naming the violated restriction, if any."""
    _check_xy(measure, p.x, p.y)


def _check_xy(measure: Measure, x: float, y: float) -> None:
    """check_domain on plain floats, for the extremizer's inner loop."""
    if measure is Measure.RISK_DIFFERENCE:
        return
    if measure is Measure.RISK_RATIO:
        if x <= 0.0:
            raise DomainError(f"risk ratio undefined: requires x > 0, got x = {x}")
        return
    if measure is Measure.ODDS_RATIO:
        if not 0.0 < x < 1.0:
            raise DomainError(f"odds ratio undefined: requires 0 < x < 1, got x = {x}")
        if y >= 1.0:
            raise DomainError(f"odds ratio undefined: requires y < 1, got y = {y}")
        return
    # cumulative hazard ratio: ln(1-y)/ln(1-x) needs both logs defined and
    # a nonzero denominator
    if x >= 1.0:
        raise DomainError(f"cumulative hazard ratio undefined: requires x < 1, got x = {x}")
    if y >= 1.0:
        raise DomainError(f"cumulative hazard ratio undefined: requires y < 1, got y = {y}")
    if x <= 0.0:
        raise DomainError("cumulative hazard ratio undefined: ln(1-x) = 0 at x = 0")


def in_domain(measure: Measure, p: RiskPoint) -> bool:
    try:
        check_domain(measure, p)
    except DomainError:
        return False
    return True


def evaluate(measure: Measure, p: RiskPoint) -> float:
    """Value of the measure at a risk point; raises DomainError off-domain."""
    x, y = p.x, p.y
    _check_xy(measure, x, y)
    if measure is Measure.RISK_DIFFERENCE:
        return y - x
    if measure is Measure.RISK_RATIO:
        return y / x
    if measure is Measure.ODDS_RATIO:
        return (y / (1.0 - y)) / (x / (1.0 - x))
    return math.log1p(-y) / math.log1p(-x)


def gradient(measure: Measure, p: RiskPoint) -> tuple[float, float]:
    """Partial derivatives (d/dx, d/dy) of the measure at an in-domain point."""
    return _gradient_xy(measure, p.x, p.y)


def _gradient_xy(measure: Measure, x: float, y: float) -> tuple[float, float]:
    """gradient on plain floats, for the extremizer's inner loop."""
    _check_xy(measure, x, y)
    if measure is Measure.RISK_DIFFERENCE:
        return (-1.0, 1.0)
    if measure is Measure.RISK_RATIO:
        # below x ~ 1.6e-162 x * x underflows to 0, where -y / x^2 tends to -inf
        xx = x * x
        return (-y / xx if xx else (-math.inf if y else -0.0), 1.0 / x)
    if measure is Measure.ODDS_RATIO:
        v = (y / (1.0 - y)) / (x / (1.0 - x))
        # at y = 0, v / y is 0 / 0; the limit is 1 / odds(x)
        return (-v / (x * (1.0 - x)), v / (y * (1.0 - y)) if y > 0.0 else (1.0 - x) / x)
    lx = math.log1p(-x)
    # as for the risk ratio, lx * lx underflows to 0 below x ~ 1.6e-162
    d = (1.0 - x) * lx * lx
    return (math.log1p(-y) / d if d else (-math.inf if y else 0.0), -1.0 / ((1.0 - y) * lx))


def _same_level(measure: Measure, u: float, v: float) -> bool:
    """Whether values u and v of the measure lie on one contour line: within
    1e-9 on its link scale, absolute for the risk difference and relative to
    the larger magnitude for the ratios."""
    return abs(u - v) <= 1e-9 * (1.0 if measure is Measure.RISK_DIFFERENCE else max(abs(u), abs(v)))


def null_value(measure: Measure) -> float:
    """Value taken on the null line y = x: 0 for the risk difference, 1 otherwise."""
    return 0.0 if measure is Measure.RISK_DIFFERENCE else 1.0


def contour_y(c: ContourValue, x: float) -> float:
    """The unique y with evaluate(c.measure, (x, y)) = c.m, by algebraic
    inversion (extended continuously to the boundary of the square).

    Raises ContourRangeError when the contour exits [0, 1] at this x.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must be in [0, 1], got {x}")
    return _contour_at(c, [x])[0]


def valid_x_interval(c: ContourValue) -> tuple[float, float]:
    """Maximal closed sub-interval of [0, 1] on which contour_y stays in [0, 1].

    Never empty for a level ContourValue admits; a single point for the
    risk difference at m = -1 or 1.
    """
    m = c.m
    if c.measure is Measure.RISK_DIFFERENCE:
        return (0.0, 1.0 - m) if m >= 0.0 else (-m, 1.0)
    if c.measure is Measure.RISK_RATIO:
        return (0.0, 1.0 if m <= 1.0 else 1.0 / m)
    # odds ratio and cumulative hazard ratio contours stay inside the
    # square for every m >= 0
    return (0.0, 1.0)


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """n equally spaced x from lo to hi, both ends exact; [lo] when they meet."""
    if hi - lo == 0.0:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _contour_raw(c: ContourValue, xs: list[float]) -> list[float]:
    """The y of the contour at each x in [0, 1], unclamped: one
    comprehension per measure, not a call per point, then the range check.
    A y may lie within 1e-15 outside [0, 1]; _contour_at clamps it."""
    m = c.m
    if c.measure is Measure.RISK_DIFFERENCE:
        ys = [x + m for x in xs]
    elif c.measure is Measure.RISK_RATIO:
        ys = [m * x for x in xs]
    elif c.measure is Measure.ODDS_RATIO:
        ys = [m * x / d if (d := 1.0 - x + m * x) != 0.0 else 0.0 for x in xs]
    else:
        top = 1.0 if m > 0.0 else 0.0
        ys = [-math.expm1(m * math.log1p(-x)) if x < 1.0 else top for x in xs]
    if min(ys) < -1e-15 or max(ys) > 1.0 + 1e-15:
        x, y = next((x, y) for x, y in zip(xs, ys) if y < -1e-15 or y > 1.0 + 1e-15)
        raise ContourRangeError(f"{c.measure.label} contour m = {c.m} leaves the unit square at x = {x} (y = {y})")
    return ys


def _contour_at(c: ContourValue, xs: list[float]) -> list[float]:
    """The y of contour_y at each x in [0, 1]: _contour_raw clamped to
    [0, 1]. Only the y values are returned, so a caller that reuses one
    grid of x for many contours builds nothing per vertex but its y."""
    # the clamp is the identity on (0, 1), so only other values pay for it
    return [y if 0.0 < y < 1.0 else min(1.0, max(0.0, y)) for y in _contour_raw(c, xs)]


def contour_polyline(c: ContourValue, n: int) -> list[RiskPoint]:
    """n points along the contour, x equally spaced over valid_x_interval.

    Degenerate single-point intervals yield one point.
    """
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    xs = _grid(*valid_x_interval(c), n)
    return [RiskPoint(x, y) for x, y in zip(xs, _contour_at(c, xs))]


def is_straight(measure: Measure) -> bool:
    """Whether every contour of the measure is a straight line."""
    return measure in (Measure.RISK_DIFFERENCE, Measure.RISK_RATIO)


def is_straight_at(c: ContourValue) -> bool:
    """Whether the single contour at level m is straight.

    Decided analytically from the second derivative of contour_y:
      RD:  y'' = 0 for every m
      RR:  y'' = 0 for every m
      OR:  y'' = -2m(m-1) / (1 + (m-1)x)^3, identically zero iff m in {0, 1}
      CHR: y'' = -m(m-1)(1-x)^(m-2),        identically zero iff m in {0, 1}
    """
    if is_straight(c.measure):
        return True
    return c.m in (0.0, 1.0)
