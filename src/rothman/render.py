"""Deterministic SVG rendering of risk-plane diagrams.

All geometry and styling constants live in one block below; output is a
pure function of the diagram spec (no timestamps, no randomness), so
identical specs give byte-identical documents.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .measures import Measure, ContourValue, _contour_at, _grid, _same_level, evaluate, is_straight, null_value, valid_x_interval
from .standardize import StandardizedHull, _shares, _weighted_point, marginal_distribution, standardized_hull
from .tables import RiskPoint, StratifiedTable, stratum_points
from .inference import ModelSpec, common_measure, fit, link_for_measure

# --- fixed geometry and style table -----------------------------------------
PANEL_SIZE = 480.0          # plot viewport, user units
MARGIN = 60.0               # margin on every side of each panel
CELL = PANEL_SIZE + 2 * MARGIN
CONTOUR_SAMPLES = 201
# curved-measure vertices with y this close to 1 are numerically
# ill-conditioned to re-evaluate in double precision, so they are not
# emitted; the exact boundary vertex (y = 1) is kept
TOP_EDGE_INSET = 5e-3
# label anchor fractions along the curve, cycled by contour index; every
# odds ratio / hazard ratio contour meets the corners, so frame-edge label
# placement would stack their labels
LABEL_ANCHORS = (0.62, 0.78, 0.46, 0.86, 0.30, 0.70, 0.54, 0.94)
DASH_PATTERN = "6 4"
FONT_SIZE = 12
FRAME_WIDTH = 1.5
CONTOUR_WIDTH = 1.5
SEGMENT_WIDTH = 2.0
POINT_RADIUS = 5.0
CROSS_ARM = 6.0
TICK_LEN = 6.0
HULL_FILL = "#d3d3d3"
COORD_DECIMALS = 10
X_LABEL = "risk in unexposed"
Y_LABEL = "risk in exposed"
# -----------------------------------------------------------------------------


class Glyph(Enum):
    FILLED = "filled"   # observed stratum point
    OPEN = "open"       # fitted stratum point
    CROSS = "cross"     # crude / marginal point


@dataclass(frozen=True)
class GlyphPoint:
    """A risk point drawn on a panel: ``point`` is where (unexposed risk on
    x, exposed risk on y), ``glyph`` how (filled for an observed stratum,
    open for a fitted one, a cross for the crude point)."""

    point: RiskPoint
    glyph: Glyph


@dataclass(frozen=True)
class ContourLine:
    """One contour level with its line style; dashed unless marked solid."""

    level: float
    solid: bool
    label: str


def contour_line(level: float, solid: bool) -> ContourLine:
    return ContourLine(level=level, solid=solid, label=f"{level:g}")


@dataclass(frozen=True)
class PanelSpec:
    """One unit-square panel of a diagram. ``measure`` is the measure whose
    ``contours`` (levels with their line styles) are drawn, and names the
    panel's SVG class; ``title`` is printed above the panel when not empty;
    ``points`` are the glyphs drawn on top. ``segment``, when given, is a
    line between two risk points (a standardized segment), and ``hull``,
    when it has three or more vertices, is shaded under the contours."""

    measure: Measure
    title: str = ""
    contours: tuple[ContourLine, ...] = ()
    points: tuple[GlyphPoint, ...] = ()
    segment: tuple[RiskPoint, RiskPoint] | None = None
    hull: StandardizedHull | None = None


@dataclass(frozen=True)
class DiagramSpec:
    """One SVG figure: its ``panels``, at least one, laid out two to a row
    in order (a single panel fills the figure alone)."""

    panels: tuple[PanelSpec, ...]

    def __post_init__(self):
        if len(self.panels) < 1:
            raise DomainError("a diagram needs at least one panel")


# every coordinate goes through these, built once: an f-string with a nested
# precision would parse its format spec again on each call
_F = f"%.{COORD_DECIMALS}f"
_PAIR = _F + "," + _F


def _fmt(v: float) -> str:
    return _F % v


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# one vertex of a polyline's points template: x printed, a %-placeholder for y
_VERTEX = _F + "," + _F.replace("%", "%%")


@functools.lru_cache(maxsize=16)
def _column_grid(ox: float, lo: float, hi: float) -> tuple[tuple[float, ...], str]:
    """The contour grid's x over [lo, hi] and, for a panel column at ox, the
    polyline's points with each x printed and a %-placeholder for each y.
    The x are printed in one % of a template of _VERTEX repeated, not one %
    per vertex. Panel columns sit at two offsets, and every odds ratio and
    hazard ratio contour shares the grid over [0, 1], so most contours find
    theirs here."""
    xs = tuple(_grid(lo, hi, CONTOUR_SAMPLES))
    template = " ".join([_VERTEX] * len(xs))
    return xs, template % tuple([ox + PANEL_SIZE * x for x in xs])


def _emit_contour(
    out: list[str], ox: float, oy: float, measure: Measure, line: ContourLine, index: int
) -> None:
    """One contour as a polyline of CONTOUR_SAMPLES vertices (a dot where
    its x interval is one point) with its label. The vertices' x and their
    printed coordinates come from _column_grid, so only the y values are
    formatted, all in one % of its points template; the bytes are those of
    formatting each (x, y) with _PAIR."""
    c = ContourValue(measure, line.level)
    xs, points = _column_grid(ox, *valid_x_interval(c))
    ys = _contour_at(c, xs)
    if not is_straight(measure):
        kept = [i for i, y in enumerate(ys) if y <= 1.0 - TOP_EDGE_INSET or y == 1.0]
        if 2 <= len(kept) < len(ys):
            vertices = points.split(" ")
            xs, ys = [xs[i] for i in kept], [ys[i] for i in kept]
            points = " ".join([vertices[i] for i in kept])
    py = [oy + PANEL_SIZE * (1.0 - y) for y in ys]
    if len(ys) == 1:
        i = 0
        out.append(f'<circle cx="{_fmt(ox + PANEL_SIZE * xs[0])}" cy="{_fmt(py[0])}" r="2" fill="black"/>')
    else:
        coords = points % tuple(py)
        dash = "" if line.solid else f' stroke-dasharray="{DASH_PATTERN}"'
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="black" '
            f'stroke-width="{CONTOUR_WIDTH}"{dash}/>'
        )
        fraction = LABEL_ANCHORS[index % len(LABEL_ANCHORS)]
        i = round(fraction * (len(ys) - 1))
    out.append(
        f'<text x="{_fmt(ox + PANEL_SIZE * xs[i] - 4.0)}" y="{_fmt(py[i] - 6.0)}" '
        f'font-size="{FONT_SIZE}" text-anchor="end">{_esc(line.label)}</text>'
    )


def _emit_glyph(out: list[str], ox: float, oy: float, gp: GlyphPoint) -> None:
    cx, cy = ox + PANEL_SIZE * gp.point.x, oy + PANEL_SIZE * (1.0 - gp.point.y)
    if gp.glyph is Glyph.FILLED:
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{POINT_RADIUS}" fill="black"/>')
    elif gp.glyph is Glyph.OPEN:
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{POINT_RADIUS}" '
            f'fill="white" stroke="black" stroke-width="1.5"/>'
        )
    else:
        for dx, dy in ((CROSS_ARM, 0.0), (0.0, CROSS_ARM)):
            out.append(
                f'<line x1="{_fmt(cx - dx)}" y1="{_fmt(cy - dy)}" '
                f'x2="{_fmt(cx + dx)}" y2="{_fmt(cy + dy)}" stroke="black" stroke-width="2"/>'
            )


@functools.lru_cache(maxsize=8)
def _frame(ox: float, oy: float) -> tuple[str, ...]:
    """The elements of a panel at (ox, oy) that do not depend on its spec:
    the frame, the ticks and their labels, and the axis labels. Panels sit
    at a few offsets, so each is printed once."""
    out = [
        f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" width="{_fmt(PANEL_SIZE)}" '
        f'height="{_fmt(PANEL_SIZE)}" fill="none" stroke="black" stroke-width="{FRAME_WIDTH}"/>'
    ]
    for t in (0.0, 0.5, 1.0):
        tx, ty = ox + PANEL_SIZE * t, oy + PANEL_SIZE * (1.0 - t)
        bottom = oy + PANEL_SIZE
        out.append(
            f'<line x1="{_fmt(tx)}" y1="{_fmt(bottom)}" x2="{_fmt(tx)}" '
            f'y2="{_fmt(bottom + TICK_LEN)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(tx)}" y="{_fmt(bottom + 20.0)}" font-size="{FONT_SIZE}" '
            f'text-anchor="middle">{t:g}</text>'
        )
        out.append(
            f'<line x1="{_fmt(ox - TICK_LEN)}" y1="{_fmt(ty)}" x2="{_fmt(ox)}" '
            f'y2="{_fmt(ty)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(ox - 10.0)}" y="{_fmt(ty + 4.0)}" font-size="{FONT_SIZE}" '
            f'text-anchor="end">{t:g}</text>'
        )
    cx = ox + PANEL_SIZE / 2.0
    out.append(
        f'<text x="{_fmt(cx)}" y="{_fmt(oy + PANEL_SIZE + 44.0)}" font-size="{FONT_SIZE}" '
        f'text-anchor="middle">{X_LABEL}</text>'
    )
    cy = oy + PANEL_SIZE / 2.0
    out.append(
        f'<text x="{_fmt(ox - 40.0)}" y="{_fmt(cy)}" font-size="{FONT_SIZE}" text-anchor="middle" '
        f'transform="rotate(-90 {_fmt(ox - 40.0)} {_fmt(cy)})">{Y_LABEL}</text>'
    )
    return tuple(out)


def _emit_panel(out: list[str], spec: PanelSpec, ox: float, oy: float) -> None:
    out.append(f'<g class="panel panel-{spec.measure.value}">')
    if spec.hull is not None and len(spec.hull.vertices) >= 3:
        coords = " ".join(
            _PAIR % (ox + PANEL_SIZE * v.x, oy + PANEL_SIZE * (1.0 - v.y)) for v in spec.hull.vertices
        )
        out.append(f'<polygon points="{coords}" fill="{HULL_FILL}" stroke="none"/>')
    for i, line in enumerate(spec.contours):
        _emit_contour(out, ox, oy, spec.measure, line, i)
    if spec.segment is not None:
        a, b = spec.segment
        out.append(
            f'<line x1="{_fmt(ox + PANEL_SIZE * a.x)}" y1="{_fmt(oy + PANEL_SIZE * (1.0 - a.y))}" '
            f'x2="{_fmt(ox + PANEL_SIZE * b.x)}" y2="{_fmt(oy + PANEL_SIZE * (1.0 - b.y))}" '
            f'stroke="black" stroke-width="{SEGMENT_WIDTH}"/>'
        )
    for gp in spec.points:
        _emit_glyph(out, ox, oy, gp)
    out.extend(_frame(ox, oy))
    if spec.title:
        out.append(
            f'<text x="{_fmt(ox + PANEL_SIZE / 2.0)}" y="{_fmt(oy - 28.0)}" font-size="{FONT_SIZE + 2}" '
            f'text-anchor="middle">{_esc(spec.title)}</text>'
        )
    out.append("</g>")


def render_svg(spec: DiagramSpec) -> str:
    """Standalone SVG 1.1 document for the diagram; byte-identical for equal specs."""
    n = len(spec.panels)
    ncols = 1 if n == 1 else 2
    nrows = math.ceil(n / ncols)
    width = ncols * CELL
    height = nrows * CELL
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    for i, panel in enumerate(spec.panels):
        row, col = divmod(i, ncols)
        _emit_panel(out, panel, col * CELL + MARGIN, row * CELL + MARGIN)
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# assembling diagrams from analysis results
# ---------------------------------------------------------------------------

def _observed_contours(measure: Measure, points) -> list[ContourLine]:
    """One dashed contour line, labelled to 3 decimals, per distinct value
    of the measure at the points, in order (measures._same_level); a point
    where the measure is undefined (a zero or full cell) gives no line."""
    levels: list[float] = []
    for p in points:
        try:
            v = evaluate(measure, p)
        except DomainError:
            continue
        if not any(_same_level(measure, v, u) for u in levels):
            levels.append(v)
    return [ContourLine(lv, solid=False, label=f"{lv:.3f}") for lv in levels]


def _common_fit(table: StratifiedTable, measure: Measure, solid: bool = False) -> tuple[list[RiskPoint], ContourLine]:
    """The no-interaction fit's points and its common contour, labelled to 3 decimals."""
    restricted = fit(table, ModelSpec(link_for_measure(measure), interaction=False))
    common = common_measure(restricted)
    return list(restricted.fitted_points), ContourLine(level=common, solid=solid, label=f"{common:.3f}")


def analysis_panel(table: StratifiedTable, measure: Measure) -> PanelSpec:
    """One panel with observed stratum points, their measure contours
    (dashed; none for a stratum where the measure is undefined), and, for
    two or more strata, the no-interaction fit's common contour (solid) with
    fitted points (open circles)."""
    observed = stratum_points(table)
    contours = _observed_contours(measure, observed)
    glyphs = [GlyphPoint(p, Glyph.FILLED) for p in observed]
    if table.k >= 2:
        fitted, common = _common_fit(table, measure, solid=True)
        contours.append(common)
        glyphs += [GlyphPoint(p, Glyph.OPEN) for p in fitted]
    return PanelSpec(measure=measure, title=measure.label, contours=tuple(contours), points=tuple(glyphs))


DEFAULT_RD_LEVELS = (-0.5, -0.25, 0.25, 0.5)
DEFAULT_RATIO_LEVELS = (0.25, 0.5, 2.0, 4.0)


def figure_contours() -> DiagramSpec:
    """Four generic panels of contour lines, one per measure, null line solid."""
    panels = []
    for measure in Measure:
        levels = DEFAULT_RD_LEVELS if measure is Measure.RISK_DIFFERENCE else DEFAULT_RATIO_LEVELS
        contours = [contour_line(null_value(measure), True)] + [contour_line(lv, False) for lv in levels]
        panels.append(PanelSpec(measure=measure, title=measure.label, contours=tuple(contours)))
    return DiagramSpec(tuple(panels))


def figure_modification(table: StratifiedTable) -> DiagramSpec:
    """Observed vs fitted points with stratum and common contours, one panel
    per measure."""
    return DiagramSpec(tuple(analysis_panel(table, m) for m in Measure))


def figure_modconf(table: StratifiedTable) -> DiagramSpec:
    """Four risk-ratio panels showing every combination of confounding
    (marginal point off/on the standardized segment) and modification
    (stratum points on different/equal contours)."""
    if table.k != 2:
        raise DomainError("the confounding-by-modification figure needs exactly two strata")
    observed = stratum_points(table)
    fitted, _ = _common_fit(table, Measure.RISK_RATIO)
    marginal = marginal_distribution(table).weights
    unexposed_w = _shares([s.unexposed.total for s in table.strata])
    exposed_w = _shares([s.exposed.total for s in table.strata])

    def panel(points: list[RiskPoint], weights: tuple, title: str) -> PanelSpec:
        # weights: (unexposed, exposed) distributions of the cross
        cross = _weighted_point(points, *weights)
        return PanelSpec(
            measure=Measure.RISK_RATIO,
            title=title,
            contours=tuple(_observed_contours(Measure.RISK_RATIO, points)),
            points=tuple(
                [GlyphPoint(p, Glyph.FILLED) for p in points] + [GlyphPoint(cross, Glyph.CROSS)]
            ),
            segment=(points[0], points[1]),
        )

    return DiagramSpec(
        (
            panel(fitted, (marginal, marginal), "no confounding, no modification"),
            panel(fitted, (unexposed_w, exposed_w), "confounding, no modification"),
            panel(observed, (marginal, marginal), "no confounding, modification"),
            panel(observed, (unexposed_w, exposed_w), "confounding, modification"),
        )
    )


def _common_fit_figure(table: StratifiedTable, measure: Measure, *, shade_hull: bool, title: str) -> DiagramSpec:
    """One panel of the no-interaction fit's points with the null contour
    (solid) and the common contour (dashed), and either the shaded hull of
    the fitted points or, for two strata, the segment between them."""
    fitted, common = _common_fit(table, measure)
    contours = (contour_line(null_value(measure), True), common)
    hull = standardized_hull(fitted) if shade_hull else None
    segment = (fitted[0], fitted[1]) if (not shade_hull and table.k == 2) else None
    points = tuple(GlyphPoint(p, Glyph.FILLED) for p in fitted)
    return DiagramSpec((PanelSpec(measure, title, contours, points, segment, hull),))


def figure_collapsible(table: StratifiedTable) -> DiagramSpec:
    """Standardized segment lying along a straight common risk difference contour."""
    return _common_fit_figure(table, Measure.RISK_DIFFERENCE, shade_hull=False,
                              title="collapsibility along a straight contour")


def figure_noncollapsible(table: StratifiedTable) -> DiagramSpec:
    """Standardized segment falling inside a curved common odds ratio contour."""
    return _common_fit_figure(table, Measure.ODDS_RATIO, shade_hull=False,
                              title="noncollapsibility along a curved contour")


def figure_hull(table: StratifiedTable) -> DiagramSpec:
    """Shaded standardized hull of fitted common odds ratio points."""
    return _common_fit_figure(table, Measure.ODDS_RATIO, shade_hull=True, title="standardized hull")


FIGURES = {
    "contours": lambda table: figure_contours(),
    "modification": figure_modification,
    "modconf": figure_modconf,
    "collapsible": figure_collapsible,
    "noncollapsible": figure_noncollapsible,
    "hull": figure_hull,
}
