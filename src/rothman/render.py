"""Deterministic SVG rendering of risk-plane diagrams.

All geometry and styling constants live in one block below; output is a
pure function of the diagram spec (no timestamps, no randomness), so
identical specs give byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .measures import Measure, ContourValue, contour_polyline, evaluate, null_value
from .standardize import StandardizedHull, standardized_hull, marginal_distribution
from .tables import RiskPoint, StratifiedTable, stratum_points
from .inference import LinkFunction, ModelSpec, common_measure, fit, link_for_measure

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
    measure: Measure
    title: str = ""
    contours: tuple[ContourLine, ...] = ()
    points: tuple[GlyphPoint, ...] = ()
    segment: tuple[RiskPoint, RiskPoint] | None = None
    hull: StandardizedHull | None = None


@dataclass(frozen=True)
class DiagramSpec:
    panels: tuple[PanelSpec, ...]

    def __post_init__(self):
        if len(self.panels) < 1:
            raise DomainError("a diagram needs at least one panel")


def _fmt(v: float) -> str:
    return f"{v:.{COORD_DECIMALS}f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _emit_contour(
    out: list[str], ox: float, oy: float, measure: Measure, line: ContourLine, index: int
) -> None:
    pts = contour_polyline(ContourValue(measure, line.level), CONTOUR_SAMPLES)
    if measure in (Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO):
        kept = [p for p in pts if p.y <= 1.0 - TOP_EDGE_INSET or p.y == 1.0]
        if len(kept) >= 2:
            pts = kept
    if not pts:
        return
    if len(pts) == 1:
        p = pts[0]
        out.append(
            f'<circle cx="{_fmt(ox + PANEL_SIZE * p.x)}" cy="{_fmt(oy + PANEL_SIZE * (1.0 - p.y))}" '
            f'r="2" fill="black"/>'
        )
        anchor = p
    else:
        coords = " ".join(
            f"{_fmt(ox + PANEL_SIZE * p.x)},{_fmt(oy + PANEL_SIZE * (1.0 - p.y))}" for p in pts
        )
        dash = "" if line.solid else f' stroke-dasharray="{DASH_PATTERN}"'
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="black" '
            f'stroke-width="{CONTOUR_WIDTH}"{dash}/>'
        )
        fraction = LABEL_ANCHORS[index % len(LABEL_ANCHORS)]
        anchor = pts[round(fraction * (len(pts) - 1))]
    out.append(
        f'<text x="{_fmt(ox + PANEL_SIZE * anchor.x - 4.0)}" '
        f'y="{_fmt(oy + PANEL_SIZE * (1.0 - anchor.y) - 6.0)}" '
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


def _emit_panel(out: list[str], spec: PanelSpec, ox: float, oy: float) -> None:
    out.append(f'<g class="panel panel-{spec.measure.value}">')
    if spec.hull is not None and len(spec.hull.vertices) >= 3:
        coords = " ".join(
            f"{_fmt(ox + PANEL_SIZE * v.x)},{_fmt(oy + PANEL_SIZE * (1.0 - v.y))}"
            for v in spec.hull.vertices
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
    out.append(
        f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" width="{_fmt(PANEL_SIZE)}" '
        f'height="{_fmt(PANEL_SIZE)}" fill="none" stroke="black" stroke-width="{FRAME_WIDTH}"/>'
    )
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
    if spec.title:
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(oy - 28.0)}" font-size="{FONT_SIZE + 2}" '
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

_MEASURE_ORDER = (
    Measure.RISK_DIFFERENCE,
    Measure.RISK_RATIO,
    Measure.ODDS_RATIO,
    Measure.CUMULATIVE_HAZARD_RATIO,
)


_LEVEL_TOL = 1e-9  # stratum values closer than this share one contour


def _dedup_levels(measure: Measure, points) -> list[float]:
    """The measure's distinct values at the points, in order; a point where
    the measure is undefined (a zero or full cell) gives no level."""
    out: list[float] = []
    for p in points:
        try:
            v = evaluate(measure, p)
        except DomainError:
            continue
        if all(abs(v - u) > _LEVEL_TOL for u in out):
            out.append(v)
    return out


def analysis_panel(table: StratifiedTable, measure: Measure) -> PanelSpec:
    """One panel with observed stratum points, their measure contours
    (dashed; none for a stratum where the measure is undefined), and, for
    two or more strata, the no-interaction fit's common contour (solid) with
    fitted points (open circles)."""
    observed = stratum_points(table)
    contours = [
        ContourLine(lv, solid=False, label=f"{lv:.3f}") for lv in _dedup_levels(measure, observed)
    ]
    glyphs = [GlyphPoint(p, Glyph.FILLED) for p in observed]
    if table.k >= 2:
        restricted = fit(table, ModelSpec(link_for_measure(measure), interaction=False))
        common = common_measure(restricted)
        contours.append(ContourLine(level=common, solid=True, label=f"{common:.3f}"))
        glyphs += [GlyphPoint(p, Glyph.OPEN) for p in restricted.fitted_points]
    return PanelSpec(measure=measure, title=measure.label, contours=tuple(contours), points=tuple(glyphs))


DEFAULT_RD_LEVELS = (-0.5, -0.25, 0.25, 0.5)
DEFAULT_RATIO_LEVELS = (0.25, 0.5, 2.0, 4.0)


def figure_contours() -> DiagramSpec:
    """Four generic panels of contour lines, one per measure, null line solid."""
    panels = []
    for measure in _MEASURE_ORDER:
        levels = DEFAULT_RD_LEVELS if measure is Measure.RISK_DIFFERENCE else DEFAULT_RATIO_LEVELS
        contours = [contour_line(null_value(measure), True)] + [contour_line(lv, False) for lv in levels]
        panels.append(PanelSpec(measure=measure, title=measure.label, contours=tuple(contours)))
    return DiagramSpec(tuple(panels))


def figure_modification(table: StratifiedTable) -> DiagramSpec:
    """Observed vs fitted points with stratum and common contours, one panel
    per measure."""
    return DiagramSpec(tuple(analysis_panel(table, m) for m in _MEASURE_ORDER))


def _exposure_specific_crude(points, exposed_weights, unexposed_weights) -> RiskPoint:
    x = sum(w * p.x for w, p in zip(unexposed_weights, points))
    y = sum(w * p.y for w, p in zip(exposed_weights, points))
    return RiskPoint(x, y)


def figure_modconf(table: StratifiedTable) -> DiagramSpec:
    """Four risk-ratio panels showing every combination of confounding
    (marginal point off/on the standardized segment) and modification
    (stratum points on different/equal contours)."""
    if table.k != 2:
        raise DomainError("the confounding-by-modification figure needs exactly two strata")
    observed = stratum_points(table)
    restricted = fit(table, ModelSpec(LinkFunction.LOG, interaction=False))
    fitted = list(restricted.fitted_points)
    marginal = marginal_distribution(table).weights
    exposed_w = [s.exposed.total for s in table.strata]
    unexposed_w = [s.unexposed.total for s in table.strata]
    exposed_w = [w / sum(exposed_w) for w in exposed_w]
    unexposed_w = [w / sum(unexposed_w) for w in unexposed_w]

    def panel(points: list[RiskPoint], weights: tuple, title: str) -> PanelSpec:
        # weights: (exposed, unexposed) standard distributions of the cross
        levels = _dedup_levels(Measure.RISK_RATIO, points)
        cross = _exposure_specific_crude(points, *weights)
        return PanelSpec(
            measure=Measure.RISK_RATIO,
            title=title,
            contours=tuple(ContourLine(lv, solid=False, label=f"{lv:.3f}") for lv in levels),
            points=tuple(
                [GlyphPoint(p, Glyph.FILLED) for p in points] + [GlyphPoint(cross, Glyph.CROSS)]
            ),
            segment=(points[0], points[1]),
        )

    return DiagramSpec(
        (
            panel(fitted, (marginal, marginal), "no confounding, no modification"),
            panel(fitted, (exposed_w, unexposed_w), "confounding, no modification"),
            panel(observed, (marginal, marginal), "no confounding, modification"),
            panel(observed, (exposed_w, unexposed_w), "confounding, modification"),
        )
    )


def _common_fit_panel(
    table: StratifiedTable, measure: Measure, *, shade_hull: bool, title: str
) -> PanelSpec:
    link = link_for_measure(measure)
    restricted = fit(table, ModelSpec(link, interaction=False))
    fitted = list(restricted.fitted_points)
    common = common_measure(restricted)
    contours = (
        contour_line(null_value(measure), True),
        ContourLine(level=common, solid=False, label=f"{common:.3f}"),
    )
    hull = standardized_hull(fitted) if shade_hull else None
    segment = (fitted[0], fitted[1]) if (not shade_hull and table.k == 2) else None
    return PanelSpec(
        measure=measure,
        title=title,
        contours=contours,
        points=tuple(GlyphPoint(p, Glyph.FILLED) for p in fitted),
        segment=segment,
        hull=hull,
    )


def figure_collapsible(table: StratifiedTable) -> DiagramSpec:
    """Standardized segment lying along a straight common risk difference contour."""
    return DiagramSpec(
        (_common_fit_panel(table, Measure.RISK_DIFFERENCE, shade_hull=False,
                           title="collapsibility along a straight contour"),)
    )


def figure_noncollapsible(table: StratifiedTable) -> DiagramSpec:
    """Standardized segment falling inside a curved common odds ratio contour."""
    return DiagramSpec(
        (_common_fit_panel(table, Measure.ODDS_RATIO, shade_hull=False,
                           title="noncollapsibility along a curved contour"),)
    )


def figure_hull(table: StratifiedTable) -> DiagramSpec:
    """Shaded standardized hull of fitted common odds ratio points."""
    return DiagramSpec(
        (_common_fit_panel(table, Measure.ODDS_RATIO, shade_hull=True,
                           title="standardized hull"),)
    )


FIGURES = {
    "contours": lambda table: figure_contours(),
    "modification": figure_modification,
    "modconf": figure_modconf,
    "collapsible": figure_collapsible,
    "noncollapsible": figure_noncollapsible,
    "hull": figure_hull,
}
