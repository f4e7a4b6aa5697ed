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
    figure_collapsible,
    figure_contours,
    figure_hull,
    figure_modconf,
    figure_modification,
    figure_noncollapsible,
    render_svg,
)
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


def test_modification_odds_ratio_panel_composition():
    (panel,) = [
        p for p in figure_modification(newcastle_fixture()).panels if p.measure is Measure.ODDS_RATIO
    ]
    filled = [p for p in panel.points if p.glyph is Glyph.FILLED]
    open_ = [p for p in panel.points if p.glyph is Glyph.OPEN]
    assert len(filled) == 2
    assert len(open_) == 2
    dashed = [c for c in panel.contours if not c.solid]
    solid = [c for c in panel.contours if c.solid]
    assert sorted(round(c.level, 3) for c in dashed) == [1.018, 1.622]
    assert len(solid) == 1
    assert round(solid[0].level, 3) == 1.537
    assert panel.hull is None and panel.segment is None


def test_modification_single_stratum_draws_no_fit():
    from rothman.tables import CellCounts, StratifiedTable, Stratum

    table = StratifiedTable((Stratum("only", CellCounts(5, 20), CellCounts(3, 30)),))
    for panel in figure_modification(table).panels:
        assert [p.glyph for p in panel.points] == [Glyph.FILLED]
        assert [c.solid for c in panel.contours] == [False]
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


# Golden files: sha256 of the figures of the Newcastle and four-stratum
# tables, as the benchmark's reference answers record them, then of a K = 1
# table, a K = 2 table with zero cells and a K = 3 table. Any change to
# geometry, the fits drawn or the style table must be deliberate and update them.
FIGURE_SHA256 = {
    ("newcastle", "contours"): "95844e6a8f55f4bf9d39c81373fe64a4032db7c7f1bfa8916472b628850e9451",
    ("newcastle", "modification"): "15247d12aa2a5360d44538f150bc2929e4e7ade64ee4830b53ee5edaae233472",
    ("newcastle", "modconf"): "75ed86464a86c46142f584f02175aaee731f7193763d25c9cac3af7cfbf13b78",
    ("newcastle", "collapsible"): "121b240ebf78f4c79333845b994872930bb65f6246efddfe3083d0ef25ee550a",
    ("newcastle", "noncollapsible"): "80a5066c6b3683e08cf7814aca043aadc17e081305312f3d2d5e3e76a8545093",
    ("newcastle", "hull"): "baa80d762bdabf18bbe0c631d01c3e9ad425ccaba23dc0f390acdbd6ec07a261",
    ("four", "modification"): "ad8edd54317727332e577458bd3af4843b0c63a40b33ee2fc7656034fc576db1",
    ("four", "collapsible"): "3bdd777d7abeda2e655ab7aa38a92472de340cd6342cd91b0a2fa544a62bc1cd",
    ("four", "noncollapsible"): "09d183d492edfd11a943a7d24f5bdb9cfd798ab7d24f93bff552730ff541e38a",
    ("four", "hull"): "b75ea848ff336a5ab4d7c4acfd1c1bcd5b14e4096d6ff2ffd23f15d67aaf8586",
    ("k1", "modification"): "aaab922119ad0c82c9328f01c2fdbf2b6f720cb51ec96eb7f3682d047c626516",
    ("k1", "collapsible"): "1ff82bdc7a20690fd7a2d0b6be6948a076618368ed1ac53d0d435a20514a257e",
    ("k1", "noncollapsible"): "b652aec4d817744ff05f2bd9d73a858435771654c81bae43151dc210e4064c2f",
    ("k1", "hull"): "29909b2a9b62554f2674cf07fdb55b325f5e50663a22b50bd846f9e26060d9f7",
    ("zero", "modification"): "b3589a48548535e0713e737c8361eceb0229a638c2a573fb3aee107502c46ddf",
    ("zero", "modconf"): "37a967de243e861ef9ca17c802dade3441a537ae169eb6ef58ff06967831fbec",
    ("zero", "collapsible"): "1c5f7e69b93eed07970236cb691f989faaec058dba9f95428ebee827f60b4a0a",
    ("zero", "noncollapsible"): "e09e542487e4a103464c436a3466b9871ad7dbff9c36bb8dd5169ccfba96b583",
    ("zero", "hull"): "e3f799c0c1051d0e2dc40219548afba31006b6671c5e636ec9083c681c1e5536",
    ("k3", "modification"): "3686a4e40447544a2d651eab641dcd6405d9acbeca88400c0da83080a5973960",
    ("k3", "collapsible"): "7542863656b3ceade07304208854b4e1525f7c9514939bfd04ce57986139cbc9",
    ("k3", "noncollapsible"): "9a080c164b3275ecc336c6e9424059f3d419aa38b8c0a9935815d5a741a20589",
    ("k3", "hull"): "2bef2c6442f9ca55a173d2a1f225ef2b392947e0baa195607d2293ff932dd2f8",
}
GOLDEN_TABLES = {
    "newcastle": newcastle_fixture,
    "four": synthetic_four_strata,
    "k1": lambda: parse_table(CSV_HEADER + "s1,5,50,5,60\n"),
    "zero": lambda: parse_table(CSV_HEADER + "s1,0,50,5,60\ns2,3,40,0,30\n"),
    "k3": lambda: parse_table(CSV_HEADER + "a,31,412,19,377\nb,63,245,52,270\nc,42,49,165,193\n"),
}


@pytest.mark.parametrize("table, name", list(FIGURE_SHA256))
def test_figures_golden_hash(table, name):
    # the modification and collapsible figures print the restricted fit's
    # common contour at 10 decimals: a few tens of ulps on its b1 flip them
    import hashlib

    figure = figure_contours() if name == "contours" else FIGURES[name](GOLDEN_TABLES[table]())
    assert hashlib.sha256(render_svg(figure).encode()).hexdigest() == FIGURE_SHA256[(table, name)]


@pytest.mark.parametrize("table", ["k1", "k3"])
def test_modconf_needs_exactly_two_strata(table):
    with pytest.raises(DomainError):
        figure_modconf(GOLDEN_TABLES[table]())
