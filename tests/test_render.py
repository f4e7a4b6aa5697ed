import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from rothman.errors import DomainError, RothmanError
from rothman import measures, render
from rothman.measures import ContourValue, Measure, contour_y, evaluate, in_domain, valid_x_interval
from rothman.render import (
    _PAIR,
    CELL,
    CONTOUR_SAMPLES,
    LABEL_ANCHORS,
    FIGURES,
    MARGIN,
    PANEL_SIZE,
    ContourLine,
    DiagramSpec,
    Glyph,
    GlyphPoint,
    PanelSpec,
    TOP_EDGE_INSET,
    figure_collapsible,
    figure_contours,
    figure_hull,
    figure_modconf,
    figure_modification,
    figure_noncollapsible,
    render_svg,
)
from rothman.tables import (
    RiskPoint,
    four_strata_fixture,
    newcastle_fixture,
    parse_table,
    stratum_points,
)

from conftest import sweep_tables

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
        figure_hull(four_strata_fixture()),
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


def _raw_contour_y(measure: Measure, m: float, x: float) -> float:
    """The contour's closed forms, unclamped, written out."""
    if measure is Measure.RISK_DIFFERENCE:
        return x + m
    if measure is Measure.RISK_RATIO:
        return m * x
    if measure is Measure.ODDS_RATIO:
        d = 1.0 - x + m * x
        return m * x / d if d != 0.0 else 0.0
    if x < 1.0:
        return -math.expm1(m * math.log1p(-x))
    return 1.0 if m > 0.0 else 0.0


def _contour_oracle(ox, oy, measure, line, index, nudge):
    """The elements of one contour, each kept vertex printed with _PAIR:
    CONTOUR_SAMPLES equally spaced x over the level's interval (both ends
    exact, one x where they meet), y by the closed form, nudged, then
    clamped to [0, 1]; under the odds and hazard ratios a vertex whose
    clamped y is within TOP_EDGE_INSET below 1, but not 1, is dropped
    unless fewer than two would be left."""
    lo, hi = valid_x_interval(ContourValue(measure, line.level))
    if hi == lo:
        xs = [lo]
    else:
        step = (hi - lo) / (CONTOUR_SAMPLES - 1)
        xs = [lo + i * step for i in range(CONTOUR_SAMPLES - 1)] + [hi]
    ys = [min(1.0, max(0.0, nudge(i, _raw_contour_y(measure, line.level, x)))) for i, x in enumerate(xs)]
    keep = list(range(len(xs)))
    if measure in (Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO):
        kept = [i for i in keep if ys[i] <= 1.0 - TOP_EDGE_INSET or ys[i] == 1.0]
        if len(kept) >= 2:
            keep = kept
    xs, ys = [xs[i] for i in keep], [ys[i] for i in keep]
    svg_x = [ox + PANEL_SIZE * x for x in xs]
    svg_y = [oy + PANEL_SIZE * (1.0 - y) for y in ys]
    fmt = render._F
    if len(xs) == 1:
        elements = [f'<circle cx="{fmt % svg_x[0]}" cy="{fmt % svg_y[0]}" r="2" fill="black"/>']
        i = 0
    else:
        points = " ".join(_PAIR % pair for pair in zip(svg_x, svg_y))
        dash = "" if line.solid else ' stroke-dasharray="6 4"'
        elements = [f'<polyline points="{points}" fill="none" stroke="black" stroke-width="1.5"{dash}/>']
        i = round(LABEL_ANCHORS[index % len(LABEL_ANCHORS)] * (len(xs) - 1))
    elements.append(
        f'<text x="{fmt % (svg_x[i] - 4.0)}" y="{fmt % (svg_y[i] - 6.0)}" font-size="12" '
        f'text-anchor="end">{line.label}</text>'
    )
    return elements, len(xs)


CONTOUR_BYTE_LEVELS = {
    # m = -1 and 1 are one-point intervals; the others end at x = 1 - m or -m
    Measure.RISK_DIFFERENCE: (-1.0, -0.5, -0.123, 0.0, 0.25, 0.777, 1.0),
    # m > 1 ends its interval at x = 1 / m
    Measure.RISK_RATIO: (0.0, 0.25, 1.0, 1.5, 2.0, 3.7, 40.0),
    # large and small levels pass within the inset of y = 1 and lose vertices
    Measure.ODDS_RATIO: (0.0, 0.05, 0.5, 1.0, 2.0, 4.0, 37.5, 1e4),
    Measure.CUMULATIVE_HAZARD_RATIO: (0.0, 0.05, 0.5, 1.0, 2.0, 4.0, 37.5, 1e4),
}
# raw y just outside [0, 1] at chosen vertices: the range check lets y
# within 1e-15 of the square through, and the clamp takes it to 0 or 1
CONTOUR_NUDGES = {
    "none": {},
    "outside": {0: -2.0**-60, 60: 1.0 + 2.0**-52, 130: -5e-16, 200: 1.0 + 8e-16},
}


@pytest.mark.parametrize("nudge", list(CONTOUR_NUDGES))
@pytest.mark.parametrize("measure", list(Measure))
def test_contour_emission_matches_the_vertex_oracle(measure, nudge, monkeypatch):
    nudged = CONTOUR_NUDGES[nudge]

    def shift(i, y):
        return nudged.get(i, y)

    raw = measures._contour_raw
    monkeypatch.setattr(measures, "_contour_raw", lambda c, xs: [shift(i, y) for i, y in enumerate(raw(c, xs))])
    sizes = set()
    for index, level in enumerate(CONTOUR_BYTE_LEVELS[measure]):
        line = ContourLine(level, solid=index % 2 == 0, label=f"{level:.3f}")
        for ox, oy in ((MARGIN, MARGIN), (CELL + MARGIN, MARGIN), (CELL + MARGIN, CELL + MARGIN)):
            out = []
            render._emit_contour(out, ox, oy, measure, line, index)
            expected, size = _contour_oracle(ox, oy, measure, line, index, shift)
            assert out == expected, (measure, level, ox, oy)
            sizes.add(size)
    assert max(sizes) == CONTOUR_SAMPLES
    if measure is Measure.RISK_DIFFERENCE:
        assert 1 in sizes
    if measure in (Measure.ODDS_RATIO, Measure.CUMULATIVE_HAZARD_RATIO):
        assert min(sizes) < CONTOUR_SAMPLES


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


def test_modification_draws_one_contour_for_equal_large_odds_ratios():
    # both strata have an odds ratio of exactly 1e8, evaluated from their
    # risks as 99999999.99998339 and 99999999.99994591: 3.7e-13 apart
    # relative, one contour, where an absolute 1e-9 drew two dashed lines
    table = parse_table(
        "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n"
        "s0,10000,10001,1,10001\ns1,20000,20001,1,5001\n"
    )
    (panel,) = [p for p in figure_modification(table).panels if p.measure is Measure.ODDS_RATIO]
    dashed = [c for c in panel.contours if not c.solid]
    assert [c.label for c in dashed] == ["100000000.000"]


def test_modification_single_stratum_draws_no_fit():
    from rothman.tables import CellCounts, StratifiedTable, Stratum

    table = StratifiedTable((Stratum("only", CellCounts(5, 20), CellCounts(3, 30)),))
    for panel in figure_modification(table).panels:
        assert [p.glyph for p in panel.points] == [Glyph.FILLED]
        assert [c.solid for c in panel.contours] == [False]
        assert panel.hull is None
        assert panel.segment is None


def test_hull_figure_shades_polygon_for_four_strata():
    svg = render_svg(figure_hull(four_strata_fixture()))
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
# The zero table's modification and collapsible figures were re-recorded
# when the restricted fit's only fallback became the profile maximum started
# from the data: its identity fit (b1 moved -219 ulps, loglik
# -31.77217466221681 -> -31.772174662216806) had come from the profile
# maximum started at the ascent's b1. The new b1 lies 2.9e-16 from a
# 40-digit mpmath maximum of lp (the old one 1.8e-15), within twice the
# search's stop step of 2e-15.
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
    ("zero", "modification"): "9876b5e14afbe8e085f61293d19b64f75fe9c0de4603ded9e74183c8dd4b2d3b",
    ("zero", "modconf"): "37a967de243e861ef9ca17c802dade3441a537ae169eb6ef58ff06967831fbec",
    ("zero", "collapsible"): "2d375c328f3d9325130a030da9597509a096e9ce21017148f6182a379378652b",
    ("zero", "noncollapsible"): "e09e542487e4a103464c436a3466b9871ad7dbff9c36bb8dd5169ccfba96b583",
    ("zero", "hull"): "e3f799c0c1051d0e2dc40219548afba31006b6671c5e636ec9083c681c1e5536",
    ("k3", "modification"): "3686a4e40447544a2d651eab641dcd6405d9acbeca88400c0da83080a5973960",
    ("k3", "collapsible"): "7542863656b3ceade07304208854b4e1525f7c9514939bfd04ce57986139cbc9",
    ("k3", "noncollapsible"): "9a080c164b3275ecc336c6e9424059f3d419aa38b8c0a9935815d5a741a20589",
    ("k3", "hull"): "2bef2c6442f9ca55a173d2a1f225ef2b392947e0baa195607d2293ff932dd2f8",
}
GOLDEN_TABLES = {
    "newcastle": newcastle_fixture,
    "four": four_strata_fixture,
    "k1": lambda: parse_table(CSV_HEADER + "s1,5,50,5,60\n"),
    "zero": lambda: parse_table(CSV_HEADER + "s1,0,50,5,60\ns2,3,40,0,30\n"),
    "k3": lambda: parse_table(CSV_HEADER + "a,31,412,19,377\nb,63,245,52,270\nc,42,49,165,193\n"),
}


@pytest.mark.parametrize("table, name", list(FIGURE_SHA256))
def test_figures_golden_hash(table, name):
    # the modification and collapsible figures print the restricted fit's
    # common contour at 10 decimals: a few tens of ulps on its b1 flip them
    figure = figure_contours() if name == "contours" else FIGURES[name](GOLDEN_TABLES[table]())
    assert hashlib.sha256(render_svg(figure).encode()).hexdigest() == FIGURE_SHA256[(table, name)]


@pytest.mark.parametrize("table", ["k1", "k3"])
def test_modconf_needs_exactly_two_strata(table):
    with pytest.raises(DomainError):
        figure_modconf(GOLDEN_TABLES[table]())


# sha256 over every figure of the sweep tables, or the repr of the error
# it raises: contour sampling, formatting and the fits drawn must not move
# a byte of any of them. Recorded when the profile solves started from the
# closed-form stratum roots: tables 4, 21 and 23 draw fits taken from the
# profile maximum. Table 4's identity b1 moved by 51 ulps; on tables 21
# and 23 the logit and cloglog estimates run off, are taken at the end of
# their range, and fit each cell that does not run off at its observed risk.
# Re-recorded when one-stratum and run-off restricted fits became the
# closed form: tables 10 and 20 (K = 1) and table 12 (a logit and cloglog
# run-off) moved from Newton ascents that stopped short of the supremum.
# Re-recorded when the profile maximum took lp at the kink b1 = 0 where its
# search stopped beside it: identity and log fits of tables 12, 13 and 16
# (cells of at most six subjects) and of tables 21 to 29 (a full first
# stratum). Each moved from the b1 below to 0.0, its loglik from -> to:
#   12 identity  9.86e-16  -4.187887120096803  -> -4.187887120096801
#   13 identity -1.69e-15  -15.130145108405909 (unchanged)
#   16 identity  1.47e-17  -15.53091354827163  (unchanged)
#   16 log       2.09e-15  -15.530913548271638 -> -15.53091354827163
#   21 identity  3.11e-15  -1.9095425048845984 -> -1.9095425048844383
#   21 log       2.09e-15  -1.909542504884544  -> -1.9095425048844383
#   22 identity -1.41e-15  -6.1536501526388285 -> -6.1536501526387815
#   22 log       3.17e-15  -6.153650152638928  -> -6.1536501526387815
#   23 identity  9.46e-16  -10.131931034461708 -> -10.131931034461667
#   23 log      -5.68e-16  -10.131931034461687 -> -10.131931034461667
#   24 identity  1.19e-15  -12.362420648947277 -> -12.362420648947214
#   24 log      -2.30e-15  -12.362420648947298 -> -12.362420648947218
#   25 identity  3.76e-16  -13.321790402101243 -> -13.321790402101222
#   25 log       9.37e-17  -13.321790402101229 -> -13.321790402101222
#   26 identity  7.58e-16  -29.178440759759038 -> -29.17844075975899
#   26 log      -1.06e-15  -29.178440759759013 -> -29.17844075975899
#   27 identity  1.23e-15  -16.928421304959286 -> -16.92842130495922
#   27 log       2.08e-15  -16.928421304959326 -> -16.92842130495922
#   28 identity -2.05e-15  -31.106948652796863 -> -31.10694865279681
#   28 log      -1.38e-15  -31.106948652796856 -> -31.10694865279681
#   29 identity -9.75e-16  -32.31158048955969  -> -32.31158048955966
#   29 log      -8.87e-16  -32.31158048955969  -> -32.31158048955967
# Re-recorded when the no-interaction ascent moved from numpy arrays to
# the profile's scalar cells: its estimates move at rounding, and 13
# (table, figure) pairs with them. Twelve flip a coordinate at its 10th
# printed decimal: 4 modification and collapsible, 6, 14, 16 and 25
# modification, 27 and 28 modification, noncollapsible and hull. On
# table 12 the log fit sits at the end of its range (RR about 1e13): its
# b1 moves 2.8e-14, under _profile_max's stop step of 6e-14, and the
# modification figure's 3-decimal label moves by 0.285.
# Re-recorded when the restricted fit's only fallback became the profile
# maximum started from the data, behind an ascent in full steps, and log
# run-offs became closed forms. Fits whose b1 or fitted points moved, with
# b1's move in ulps and loglik before -> after:
#    3 log        +0  -644.6011339571924 (unchanged; a moved)
#    7 identity   -1  -1367.5295848198643 (unchanged)
#    7 log       -19  -1392.455858939221 (unchanged)
#   11 identity  -22  -7.455708787308884 (unchanged)
#   14 log        -3  -17.564137482250505 -> -17.5641374822505
#   15 log        -6  -18.3946488138942 -> -18.394648813894197
#   17 identity  +13  -32.54708395050109 (unchanged)
#   18 identity   +3  -40.38960841963585 -> -40.389608419635856
#   19 identity -139  -30.58023572906834 (unchanged)
#   24 cloglog    +5  -11.83186533587853 -> -11.831865335878533
#   26 cloglog    +2  -25.99959578028102 (unchanged)
#   29 cloglog    -3  -31.552229685520658 (unchanged)
# Each new b1 lies within 1.5e-15 of a 40-digit mpmath maximum of lp,
# inside twice the search's stop step. Two log fits are now run-offs in
# closed form: table 10 (K = 1) moves its b1 from eta1 - eta0 of the
# clipped risks, 29.528, to the end of the range, 29.934, its loglik
# unchanged, and table 12 moves 21 ulps to that end, its loglik -5.0e-13 ->
# 0.0, the supremum.
# Re-recorded when _newton_root limited the growth of its steps in every
# bracket, not only while an end is infinite, and the ascent's fits took the
# profile maximum's boundary rule. The growth rule moved the b1 of the log
# fits of tables 3, 15 and 18 by +1, +7 and +3 ulps, each new b1 within
# 1.5e-16 of a 60-digit mpmath maximum of lp (loglik unchanged but table
# 15's, -18.394648813894197 -> -18.3946488138942), and the step counts of
# the log fits at b1 = 0 of tables 16 and 21 to 29; no figure moved with
# them. The boundary rule puts a stratum whose cells are all empty (full)
# at 1e-13 (1 - 1e-13), where the ascent had left them at about 1e-11 of
# the bound, each b1 and loglik unchanged: the log, logit and cloglog fits
# of table 13 (now boundary warned), the logit and cloglog fits of 16, 19
# (boundary warned), 27 and 28, and the logit fits of 22, 24, 25, 26 and
# 29. Their modification, noncollapsible and hull figures moved.
SWEEP_SHA256 = "3fb996cc60010fd080d6d98a54ca7ad04e69e8d248950a0eb9669073825b4386"


def _sweep_digest() -> str:
    digest = hashlib.sha256()
    for table in sweep_tables():
        for name, figure in FIGURES.items():
            try:
                out = render_svg(figure(table))
            except RothmanError as exc:
                out = repr(exc)
            digest.update(f"{name}\0{out}\0".encode())
    return digest.hexdigest()


def test_figures_sweep_digest():
    assert _sweep_digest() == SWEEP_SHA256


def _golden_digests() -> dict:
    """The sha256 of each golden figure and of the sweep, as this process
    renders them, keyed "table/figure" and "sweep" (for the subprocess of
    test_figures_do_not_depend_on_the_cpu)."""
    out = {}
    for table, name in FIGURE_SHA256:
        figure = figure_contours() if name == "contours" else FIGURES[name](GOLDEN_TABLES[table]())
        out[f"{table}/{name}"] = hashlib.sha256(render_svg(figure).encode()).hexdigest()
    out["sweep"] = _sweep_digest()
    return out


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernels and SIMD only")
def test_figures_do_not_depend_on_the_cpu():
    # the same figures with OpenBLAS forced to its oldest x86-64 kernel and
    # numpy's SIMD dispatch limited to its baseline: a fit that takes its
    # bits from a BLAS or SIMD kernel draws a different figure on another
    # CPU
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", NPY_DISABLE_CPU_FEATURES=" ".join(dispatched))
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")])
    code = "import json, test_render; print(json.dumps(test_render._golden_digests()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    pinned = {f"{table}/{name}": digest for (table, name), digest in FIGURE_SHA256.items()}
    assert json.loads(run.stdout.splitlines()[-1]) == {**pinned, "sweep": SWEEP_SHA256}
