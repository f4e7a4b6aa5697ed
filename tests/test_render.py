import math
import xml.etree.ElementTree as ET

import pytest

from rothman.errors import DomainError
from rothman.measures import ContourValue, Measure, contour_y, evaluate, in_domain
from rothman.render import (
    CELL,
    FIGURES,
    MARGIN,
    PANEL_SIZE,
    ContourLine,
    DiagramSpec,
    Glyph,
    GlyphPoint,
    PanelSpec,
    contour_line,
    diagram_from_analysis,
    figure_collapsible,
    figure_contours,
    figure_hull,
    figure_modconf,
    figure_modification,
    figure_noncollapsible,
    render_svg,
)
from rothman.inference import LinkFunction
from rothman.tables import RiskPoint, newcastle_fixture, parse_table, stratum_points

from conftest import synthetic_four_strata

NS = {"svg": "http://www.w3.org/2000/svg"}


def _panels(svg: str):
    root = ET.fromstring(svg)
    return root, root.findall("svg:g", NS)


def _panel_origin(index: int, n_panels: int) -> tuple[float, float]:
    ncols = 1 if n_panels == 1 else 2
    row, col = divmod(index, ncols)
    return col * CELL + MARGIN, row * CELL + MARGIN


def _unmap(sx: float, sy: float, ox: float, oy: float) -> tuple[float, float]:
    return (sx - ox) / PANEL_SIZE, 1.0 - (sy - oy) / PANEL_SIZE


def _polyline_points(element):
    pairs = element.attrib["points"].split()
    return [tuple(float(c) for c in pair.split(",")) for pair in pairs]


def _contour_samples(measure, level):
    from rothman.measures import contour_polyline

    return contour_polyline(ContourValue(measure, level), 201)


def test_svg_well_formed_and_deterministic():
    spec = figure_contours()
    one = render_svg(spec)
    two = render_svg(figure_contours())
    assert one == two
    root = ET.fromstring(one)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.attrib["version"] == "1.1"
    assert "viewBox" in root.attrib


def test_contours_figure_structure():
    svg = render_svg(figure_contours())
    _, panels = _panels(svg)
    assert len(panels) == 4
    for g in panels:
        lines = g.findall("svg:polyline", NS)
        solid = [e for e in lines if "stroke-dasharray" not in e.attrib]
        dashed = [e for e in lines if "stroke-dasharray" in e.attrib]
        assert len(solid) == 1  # the null line
        assert len(dashed) == 4


def test_empty_panel_renders_axes_only():
    svg = render_svg(DiagramSpec((PanelSpec(measure=Measure.RISK_DIFFERENCE),)))
    root, panels = _panels(svg)
    assert len(panels) == 1
    assert panels[0].findall("svg:polyline", NS) == []
    assert panels[0].findall("svg:rect", NS)  # the frame


def test_diagram_spec_needs_a_panel():
    with pytest.raises(DomainError):
        DiagramSpec(())


def test_every_contour_vertex_reevaluates_to_its_level():
    table = newcastle_fixture()
    cases = [
        figure_contours(),
        figure_modification(table),
        figure_modconf(table),
        figure_collapsible(table),
        figure_noncollapsible(table),
        figure_hull(synthetic_four_strata()),
    ]
    for spec in cases:
        svg = render_svg(spec)
        _, panels = _panels(svg)
        assert len(panels) == len(spec.panels)
        for i, (g, panel) in enumerate(zip(panels, spec.panels)):
            ox, oy = _panel_origin(i, len(spec.panels))
            lines = g.findall("svg:polyline", NS)
            drawn = [
                c
                for c in panel.contours
                # single-point degenerate contours are drawn as dots
                if len(_contour_samples(panel.measure, c.level)) >= 2
            ]
            assert len(lines) == len(drawn)
            for element, cline in zip(lines, drawn):
                for sx, sy in _polyline_points(element):
                    x, y = _unmap(sx, sy, ox, oy)
                    point = RiskPoint(min(1.0, max(0.0, x)), min(1.0, max(0.0, y)))
                    if in_domain(panel.measure, point):
                        assert evaluate(panel.measure, point) == pytest.approx(
                            cline.level, abs=1e-9
                        )
                    else:
                        expected = contour_y(ContourValue(panel.measure, cline.level), point.x)
                        assert point.y == pytest.approx(expected, abs=1e-9)


def test_segment_tracks_straight_contour_within_half_unit():
    """Collapsible figure: the standardized segment must coincide with the
    common risk difference contour to within 0.5 user units."""
    spec = figure_collapsible(newcastle_fixture())
    (panel,) = spec.panels
    assert panel.segment is not None
    common = [c for c in panel.contours if not c.solid][0]
    a, b = panel.segment
    c = ContourValue(Measure.RISK_DIFFERENCE, common.level)
    for i in range(101):
        t = i / 100
        x = a.x + t * (b.x - a.x)
        y_seg = a.y + t * (b.y - a.y)
        gap_user_units = abs(y_seg - contour_y(c, x)) * PANEL_SIZE
        assert gap_user_units <= 0.5


def test_diagram_from_analysis_composition():
    spec = diagram_from_analysis(newcastle_fixture(), LinkFunction.LOGIT)
    (panel,) = spec.panels
    filled = [p for p in panel.points if p.glyph is Glyph.FILLED]
    open_ = [p for p in panel.points if p.glyph is Glyph.OPEN]
    assert len(filled) == 2
    assert len(open_) == 2
    dashed = [c for c in panel.contours if not c.solid]
    solid = [c for c in panel.contours if c.solid]
    assert sorted(round(c.level, 3) for c in dashed) == [1.018, 1.622]
    assert len(solid) == 1
    assert round(solid[0].level, 3) == 1.537


def test_diagram_from_analysis_crude_glyph():
    spec = diagram_from_analysis(
        newcastle_fixture(), LinkFunction.LOGIT, include_crude=True
    )
    (panel,) = spec.panels
    crosses = [p for p in panel.points if p.glyph is Glyph.CROSS]
    assert len(crosses) == 1
    assert crosses[0].point.x == pytest.approx(0.31421, abs=1e-5)
    assert crosses[0].point.y == pytest.approx(0.23883, abs=1e-5)


def test_diagram_from_analysis_single_stratum():
    from rothman.tables import CellCounts, StratifiedTable, Stratum

    table = StratifiedTable((Stratum("only", CellCounts(5, 20), CellCounts(3, 30)),))
    spec = diagram_from_analysis(table, LinkFunction.LOGIT, include_hull=True)
    (panel,) = spec.panels
    assert len([p for p in panel.points if p.glyph is Glyph.FILLED]) == 1
    assert panel.hull is None
    assert panel.segment is None


def test_hull_figure_shades_polygon_for_four_strata():
    svg = render_svg(figure_hull(synthetic_four_strata()))
    _, panels = _panels(svg)
    polygons = panels[0].findall("svg:polygon", NS)
    assert len(polygons) == 1
    assert polygons[0].attrib["fill"] != "none"


def test_modconf_four_titled_panels():
    spec = figure_modconf(newcastle_fixture())
    titles = [p.title for p in spec.panels]
    assert len(titles) == 4
    assert len(set(titles)) == 4
    svg = render_svg(spec)
    for title in titles:
        assert title in svg


CSV_HEADER = "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n"
# s2's unexposed cell is full: the odds ratio and hazard ratio are undefined there
FULL_UNEXPOSED_K3 = parse_table(
    CSV_HEADER + "s1,1634,2106,15,20\ns2,304,895,3042,3042\ns3,443,1597,96,1173\n"
)
# A's unexposed cell is zero: the risk ratio is undefined there
ZERO_UNEXPOSED_K2 = parse_table(CSV_HEADER + "A,3,10,0,10\nB,5,12,2,12\n")


def _stratum_levels(measure, points):
    return sorted(round(evaluate(measure, p), 3) for p in points if in_domain(measure, p))


@pytest.mark.parametrize("name", [n for n in FIGURES if n != "modconf"])
def test_figures_render_a_table_with_a_full_cell(name):
    render_svg(FIGURES[name](FULL_UNEXPOSED_K3))


def test_boundary_stratum_keeps_its_point_and_loses_its_contour():
    observed = stratum_points(FULL_UNEXPOSED_K3)
    for panel in figure_modification(FULL_UNEXPOSED_K3).panels:
        filled = [p.point for p in panel.points if p.glyph is Glyph.FILLED]
        dashed = [round(c.level, 3) for c in panel.contours if not c.solid]
        assert filled == observed
        assert sorted(dashed) == _stratum_levels(panel.measure, observed)
    assert not in_domain(Measure.ODDS_RATIO, observed[1])


def test_modconf_renders_with_a_zero_unexposed_cell():
    spec = figure_modconf(ZERO_UNEXPOSED_K2)
    render_svg(spec)
    observed = stratum_points(ZERO_UNEXPOSED_K2)
    assert not in_domain(Measure.RISK_RATIO, observed[0])
    for panel in spec.panels[2:]:
        assert [p.point for p in panel.points if p.glyph is Glyph.FILLED] == observed
        assert sorted(round(c.level, 3) for c in panel.contours) == _stratum_levels(Measure.RISK_RATIO, observed)


def test_contour_line_defaults():
    line = contour_line(Measure.ODDS_RATIO, 1.0)
    assert line.solid
    assert line.label == "1"
    assert not contour_line(Measure.ODDS_RATIO, 2.0).solid


def test_contours_golden_hash():
    """Golden file: any change to geometry or the style table must be
    deliberate and update this hash."""
    import hashlib

    digest = hashlib.sha256(render_svg(figure_contours()).encode()).hexdigest()
    assert digest == "95844e6a8f55f4bf9d39c81373fe64a4032db7c7f1bfa8916472b628850e9451"
