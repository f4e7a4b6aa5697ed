import json
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rothman import cli
from rothman.errors import ConvergenceError
from rothman.tables import newcastle_fixture, serialize_table

from conftest import synthetic_four_strata

BAD_CSV = "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\nA,5,4,1,10\n"

ZERO_X_CSV = (
    "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n"
    "A,3,10,0,10\n"
    "B,5,12,2,12\n"
)

# zero cells in both arms: RR, OR and CHR are 0 at s1 and undefined at s2
ZERO_CELLS_CSV = (
    "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n"
    "s1,0,50,5,60\n"
    "s2,3,40,0,30\n"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measures_text(capsys):
    code, out, _ = run(capsys, "measures", "--fixture", "newcastle")
    assert code == 0
    assert "1.622" in out and "1.018" in out
    assert "confounded: yes" in out


def test_measures_json_round_trip(capsys):
    code, out, _ = run(capsys, "measures", "--fixture", "newcastle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strata"][0]["measures"]["or"] == pytest.approx(1.6224, abs=1e-4)
    assert doc["crude"]["x"] == pytest.approx(230 / 732)


def test_measures_undefined_rendering(capsys, tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text(ZERO_X_CSV)
    code, out, _ = run(capsys, "measures", "--input", str(path))
    assert code == 0
    assert "undefined" in out
    assert "x > 0" in out
    code, out, _ = run(capsys, "measures", "--input", str(path), "--format", "json")
    doc = json.loads(out)
    assert doc["strata"][0]["measures"]["rr"] is None
    assert "rr" in doc["strata"][0]["undefined"]


def test_fit_logit_text(capsys):
    code, out, _ = run(capsys, "fit", "--fixture", "newcastle", "--link", "logit")
    assert code == 0
    assert "common estimate: 1.537" in out
    assert "(1.119, 2.125)" in out
    assert "p-value 0.353" in out


def test_fit_all_links_json(capsys):
    code, out, _ = run(capsys, "fit", "--fixture", "newcastle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_link = {rep["link"]: rep for rep in doc["fits"]}
    assert set(by_link) == {"identity", "log", "logit", "cloglog"}
    assert by_link["identity"]["common"] == pytest.approx(0.0523, abs=1e-4)
    assert by_link["log"]["interaction"]["p_value"] == pytest.approx(0.010, abs=1e-3)
    assert by_link["cloglog"]["ci"]["upper"] == pytest.approx(1.676, abs=1e-3)
    assert by_link["logit"]["stratum_estimates"]["18-64"] == pytest.approx(1.622, abs=5e-4)


def test_fit_all_links_json_four_strata(capsys, tmp_path):
    path = tmp_path / "four_strata.csv"
    path.write_text(serialize_table(synthetic_four_strata()))
    code, out, err = run(capsys, "fit", "--input", str(path), "--link", "all", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert [rep["link"] for rep in doc["fits"]] == ["identity", "log", "logit", "cloglog"]
    for rep in doc["fits"]:
        assert rep["interaction"]["df"] == 3
        assert rep["ci"]["lower"] < rep["common"] < rep["ci"]["upper"]


def test_fit_all_links_fits_each_model_once(capsys, tmp_path, fit_calls, computed_fits):
    # per link: the saturated fit (K >= 2) and the no-interaction fit, which
    # the LR test and the profile CI take from fit's memo
    path = tmp_path / "one.csv"
    path.write_text("stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\ns1,30,100,20,100\n")
    for source, fits in ((["--fixture", "newcastle"], 8), (["--input", str(path)], 4)):
        fit_calls.clear()
        before = computed_fits()
        code, _, err = run(capsys, "fit", *source, "--link", "all", "--format", "json")
        assert code == 0, err
        assert computed_fits() - before == len(set(fit_calls)) == fits


def test_standardize_marginal(capsys):
    code, out, _ = run(
        capsys, "standardize", "--fixture", "newcastle", "--weights", "marginal", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["standardized_risk_unexposed"] == pytest.approx(0.2558353, abs=1e-6)
    assert doc["standardized_risk_exposed"] == pytest.approx(0.3063322, abs=1e-6)
    assert not doc["is_hull_vertex"]


def test_standardize_uniform(capsys):
    code, out, _ = run(capsys, "standardize", "--fixture", "newcastle", "--weights", "uniform")
    assert code == 0
    assert out == (
        "weights: 0.5, 0.5\n"
        "standardized risk, unexposed (x): 0.488\n"
        "standardized risk, exposed   (y): 0.520\n"
        "  risk difference: 0.032\n"
        "  risk ratio: 1.065\n"
        "  odds ratio: 1.136\n"
        "  cumulative hazard ratio: 1.096\n"
        "hull vertex: no\n"
    )
    code, out, _ = run(
        capsys, "standardize", "--fixture", "newcastle", "--weights", "uniform", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    # the mean of the two stratum risks in each arm
    x, y = (65 / 539 + 165 / 193) / 2, (97 / 533 + 42 / 49) / 2
    assert doc["weights"] == [0.5, 0.5]
    assert doc["standardized_risk_unexposed"] == pytest.approx(x, rel=1e-15)
    assert doc["standardized_risk_exposed"] == pytest.approx(y, rel=1e-15)
    assert doc["measures"] == pytest.approx({
        "rd": y - x,
        "rr": y / x,
        "or": (y / (1 - y)) / (x / (1 - x)),
        "chr": math.log1p(-y) / math.log1p(-x),
    }, rel=1e-12)
    assert doc["undefined"] == {}
    assert doc["is_hull_vertex"] is False


def test_standardize_degenerate_weights_is_stratum_report(capsys):
    code, out, _ = run(
        capsys, "standardize", "--fixture", "newcastle", "--weights", "1,0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["standardized_risk_unexposed"] == pytest.approx(65 / 539)
    assert doc["is_hull_vertex"]


def test_standardize_rejects_bad_weights(capsys):
    for weights, message in (("0.7,0.7", "sum to 1"), ("0.5,nan", "finite and nonnegative")):
        code, _, err = run(capsys, "standardize", "--fixture", "newcastle", "--weights", weights)
        assert code == 3
        assert message in err and "Traceback" not in err


def test_collapse_odds_ratio(capsys):
    code, out, _ = run(capsys, "collapse", "--fixture", "newcastle", "--measure", "or")
    assert code == 0
    assert "minimum standardized value: 1.229" in out
    assert "(0.484, 0.516)" in out
    assert "attenuated-toward-null" in out


def test_collapse_risk_difference(capsys):
    code, out, _ = run(
        capsys, "collapse", "--fixture", "newcastle", "--measure", "rd", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "collapsible-here"
    assert doc["minimum"]["value"] == pytest.approx(doc["maximum"]["value"], abs=1e-9)
    assert doc["common_value"] == pytest.approx(0.052, abs=5e-4)


def test_collapse_risk_ratio_collapsible(capsys):
    code, out, _ = run(
        capsys, "collapse", "--fixture", "newcastle", "--measure", "rr", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["verdict"] == "collapsible-here"
    assert doc["minimum"]["value"] == pytest.approx(1.062, abs=5e-4)


def test_collapse_grid_oracle(capsys):
    code, out, _ = run(
        capsys,
        "collapse", "--fixture", "newcastle", "--measure", "or",
        "--grid-oracle", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_oracle"]["min_disagreement"] < 5e-4


@pytest.mark.parametrize("resolution", ["0", "nan", "inf", "-0.5", "1.5"])
def test_collapse_grid_oracle_rejects_bad_resolution(capsys, resolution):
    code, _, err = run(
        capsys,
        "collapse", "--fixture", "newcastle", "--grid-oracle", f"--grid-resolution={resolution}",
    )
    assert code == 3
    assert "resolution must be in (0, 1]" in err and "Traceback" not in err


# --- the JSON schemas: each subcommand's complete key tree, in order, with
# the type of every value, on the embedded table and a four-stratum one
# (plot writes SVG and has no JSON output)


def _schema(doc):
    """doc with each scalar replaced by the name of its type."""
    if isinstance(doc, dict):
        return {key: _schema(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_schema(value) for value in doc]
    return type(doc).__name__


def _json_schema(capsys, tmp_path, source, *argv):
    if source == "newcastle":
        labels, args = ["18-64", "65+"], ["--fixture", "newcastle"]
    else:
        table = synthetic_four_strata()
        path = tmp_path / "four.csv"
        path.write_text(serialize_table(table))
        labels, args = [s.label for s in table.strata], ["--input", str(path)]
    code, out, err = run(capsys, *argv, *args, "--format", "json")
    assert code == 0, err
    return labels, _schema(json.loads(out))


_MEASURES = {"rd": "float", "rr": "float", "or": "float", "chr": "float"}


def _assert_schema(schema, expected):
    assert schema == expected
    assert json.dumps(schema) == json.dumps(expected)  # keys in this order too


@pytest.mark.parametrize("source", ["newcastle", "four"])
def test_measures_json_schema(capsys, tmp_path, source):
    labels, schema = _json_schema(capsys, tmp_path, source, "measures")
    row = {"label": "str", "x": "float", "y": "float", "measures": _MEASURES, "undefined": {}}
    _assert_schema(schema, {"strata": [row] * len(labels), "crude": row})


@pytest.mark.parametrize("source", ["newcastle", "four"])
def test_fit_json_schema(capsys, tmp_path, source):
    labels, schema = _json_schema(capsys, tmp_path, source, "fit", "--link", "all")
    report = {
        "link": "str", "measure": "str", "stratum_estimates": {label: "float" for label in labels},
        "undefined": {}, "interaction": {"statistic": "float", "df": "int", "p_value": "float"},
        "common": "float",
        "ci": {"level": "float", "lower": "float", "upper": "float",
               "lower_truncated": "bool", "upper_truncated": "bool"},
    }
    _assert_schema(schema, {"fits": [report] * 4})


@pytest.mark.parametrize("source", ["newcastle", "four"])
def test_standardize_json_schema(capsys, tmp_path, source):
    labels, schema = _json_schema(capsys, tmp_path, source, "standardize", "--weights", "marginal")
    _assert_schema(schema, {
        "weights": ["float"] * len(labels), "standardized_risk_unexposed": "float",
        "standardized_risk_exposed": "float", "measures": _MEASURES, "undefined": {},
        "is_hull_vertex": "bool",
    })


@pytest.mark.parametrize("source", ["newcastle", "four"])
def test_collapse_json_schema(capsys, tmp_path, source):
    labels, schema = _json_schema(capsys, tmp_path, source, "collapse")
    extreme = {"value": "float", "weights": ["float"] * len(labels)}
    expected = {"measure": "str", "common_value": "float", "minimum": extreme, "maximum": extreme,
                "verdict": "str"}
    _assert_schema(schema, expected)
    # the grid oracle adds one key, last; 0.05 keeps the K = 4 lattice small
    _, schema = _json_schema(capsys, tmp_path, source, "collapse", "--grid-oracle", "--grid-resolution", "0.05")
    expected["grid_oracle"] = {"resolution": "float", "minimum": extreme, "maximum": extreme,
                               "min_disagreement": "float", "max_disagreement": "float"}
    _assert_schema(schema, expected)


def test_collapse_grid_oracle_rejects_a_lattice_over_the_bound(capsys):
    code, _, err = run(
        capsys,
        "collapse", "--fixture", "newcastle", "--grid-oracle", "--grid-resolution", "1e-300",
    )
    assert code == 3
    assert "too fine" in err and "Traceback" not in err


def test_collapse_grid_oracle_refuses_a_k5_lattice_at_the_default_resolution(capsys, tmp_path):
    # C(1004, 4) = 4.2e10 weight vectors at 0.001: hours of scanning
    path = tmp_path / "k5.csv"
    path.write_text(
        "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n"
        "a,31,412,19,377\nb,44,310,33,335\nc,63,245,52,270\nd,42,49,165,193\ne,20,100,10,100\n"
    )
    code, _, err = run(capsys, "collapse", "--input", str(path), "--grid-oracle")
    assert code == 3
    assert "weight vectors" in err and "Traceback" not in err


def test_plot_contours_to_file(capsys, tmp_path):
    out_path = tmp_path / "contours.svg"
    code, _, _ = run(capsys, "plot", "contours", "-o", str(out_path))
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    assert root.tag.endswith("svg")


def test_plot_noncollapsible_stdout(capsys):
    code, out, _ = run(capsys, "plot", "noncollapsible", "--fixture", "newcastle")
    assert code == 0
    assert out.startswith("<?xml")
    assert "1.537" in out


def test_plot_modification_with_a_full_cell(capsys, tmp_path):
    path = tmp_path / "full.csv"
    path.write_text(
        "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n"
        "s1,1634,2106,15,20\ns2,304,895,3042,3042\ns3,443,1597,96,1173\n"
    )
    code, out, err = run(capsys, "plot", "modification", "--input", str(path))
    assert code == 0, err
    ET.fromstring(out)


def test_plot_unknown_figure_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plot", "nosuchfigure", "--fixture", "newcastle"])
    assert exc.value.code == 2
    assert "contours" in capsys.readouterr().err


def test_plot_data_figure_requires_input(capsys):
    code, _, err = run(capsys, "plot", "modification")
    assert code == 2
    assert "--input" in err or "--fixture" in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(BAD_CSV)
    code, _, err = run(capsys, "measures", "--input", str(path))
    assert code == 3
    assert "cases" in err


def test_csv_with_byte_order_mark_and_crlf(capsys, tmp_path):
    text = serialize_table(newcastle_fixture())
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text.encode("utf-8"))
    excel = tmp_path / "excel.csv"
    excel.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
    for argv in (("measures",), ("fit", "--link", "logit", "--format", "json")):
        expected = run(capsys, *argv, "--input", str(plain))
        assert expected[0] == 0
        assert run(capsys, *argv, "--input", str(excel)) == expected


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "measures", "--input", "/nonexistent/nope.csv")
    assert code == 3


def test_convergence_error_exit_code(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("no convergence", coefficients=(0.0,), loglik=-1.0, iterations=200)

    monkeypatch.setattr(cli, "fit", explode)
    code, _, err = run(capsys, "fit", "--fixture", "newcastle", "--link", "logit")
    assert code == 4
    assert "iterations: 200" in err


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "fit", "--fixture", "newcastle")
    _, second, _ = run(capsys, "fit", "--fixture", "newcastle")
    assert first == second


def test_non_utf8_input_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(ZERO_X_CSV.encode() + b"\xff\xfe,1,2,1,2\n")
    code, out, err = run(capsys, "measures", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("parse error:") and "UTF-8" in err


def test_fit_stratum_estimates_are_the_observed_measures(capsys, tmp_path):
    """Stratum estimates are the measures at the stratum points, not at the
    saturated fit's points clipped off the zero cells."""
    path = tmp_path / "zero.csv"
    path.write_text(ZERO_CELLS_CSV)
    code, out, _ = run(capsys, "fit", "--input", str(path), "--format", "json")
    assert code == 0
    fits = {rep["link"]: rep for rep in json.loads(out)["fits"]}
    assert fits["identity"]["stratum_estimates"] == {"s1": -5 / 60, "s2": 3 / 40}
    assert fits["identity"]["undefined"] == {}
    for link in ("log", "logit", "cloglog"):
        assert fits[link]["stratum_estimates"] == {"s1": 0.0, "s2": None}
        assert list(fits[link]["undefined"]) == ["s2"]
    code, out, _ = run(capsys, "fit", "--input", str(path), "--link", "logit")
    assert code == 0
    assert "stratum estimates: s1: 0.000  s2: undefined" in out


# --- the exit-code and JSON contract on generated input ----------------------

HEADER = "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total"
VALID_LEVELS = ["0.95", "0.5", "1e-300", "0.999999999"]
LEVELS = VALID_LEVELS + ["1", "0", "-0.5", "1.5", "nan", "inf", "x"]
RESOLUTION_EDGES = ["0", "-0.1", "1.5", "nan", "inf", "1e-300", "5e-324", "1e-12", "x"]


def _finest_grid(k: int) -> int:
    """The largest n whose lattice of C(n + K - 1, K - 1) weight vectors the
    test lets the grid oracle scan: 10^6 up to K = 4, 10^4 beyond, where the
    oracle's loop over the first K - 3 weights costs microseconds a vector."""
    budget = 10**6 if k <= 4 else 10**4
    n = 1
    while k > 1 and math.comb(n + k, k - 1) <= budget:
        n += 1
    return n


@st.composite
def _cells(draw, interior):
    """(total, cases); with interior, 0 < cases < total."""
    least = 2 if interior else 1
    total = draw(st.one_of(st.integers(least, 50), st.integers(least, 10**9)))
    cases = [1, total - 1, draw(st.integers(1, total - 1))] if interior else [0, total, draw(st.integers(0, total))]
    return total, draw(st.sampled_from(cases))


@st.composite
def _csv(draw):
    """(CSV bytes, K, whether it is a well-formed table), with BOM, CRLF,
    quoted labels, trailing commas, and zero and full cells."""
    k = draw(st.integers(1, 12))
    cells = _cells(draw(st.booleans()))
    rows = [(draw(cells), draw(cells)) for _ in range(k)]
    labels = [draw(st.sampled_from([f"s{i}", f'"s{i}"', f"s{i} <&>", f"stratum é{i}"])) for i in range(k)]
    malformed = draw(st.sampled_from([None] * 4 + ["trailing comma", "quoted comma"]))
    lines = [HEADER] + [
        f"{label},{ec},{et},{uc},{ut}" for label, ((et, ec), (ut, uc)) in zip(labels, rows)
    ]
    if malformed == "trailing comma":
        lines[-1] += ","
    elif malformed == "quoted comma":
        lines[-1] = '"a,b"' + lines[-1][lines[-1].index(","):]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = ("\ufeff" if draw(st.booleans()) else "") + newline.join(lines) + newline
    return text.encode("utf-8"), k, malformed is None


def _reject_constant(name):
    raise ValueError(f"JSON output holds {name}")


def _call(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse refusing a flag
        code = e.code
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 4), (argv, code)
    if code == 0 and "json" in argv:
        json.loads(out, parse_constant=_reject_constant)
    return code


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv=_csv(), data=st.data())
def test_cli_contract_on_generated_input(capsys, tmp_path, csv, data):
    raw, k, well_formed = csv
    path = tmp_path / "table.csv"
    path.write_bytes(raw)
    source = ["--input", str(path)]
    fmt = ["--format", data.draw(st.sampled_from(["text", "json"]))]
    level = data.draw(st.sampled_from(LEVELS))
    code = _call(capsys, ["fit", *source, "--link", "all", "--level", level, *fmt])
    if well_formed and level in VALID_LEVELS:
        assert code == 0
    weights = data.draw(st.one_of(
        st.sampled_from(["marginal", "uniform", "", "x", "nan", "inf", "-1", "1,0", ",".join(["1"] * k)]),
        st.integers(0, k - 1).map(lambda i: ",".join("1" if j == i else "0" for j in range(k))),
        st.lists(st.sampled_from(["0", "1", "0.5", "1e-300", "-0.5"]), min_size=k, max_size=k).map(",".join),
    ))
    _call(capsys, ["standardize", *source, "--weights", weights, *fmt])
    _call(capsys, ["measures", *source, *fmt])
    measure = data.draw(st.sampled_from(["rd", "rr", "or", "chr"]))
    resolution = data.draw(st.one_of(
        st.sampled_from(RESOLUTION_EDGES), st.floats(1.0 / _finest_grid(k), 1.0).map(repr)
    ))
    _call(capsys, ["collapse", *source, "--measure", measure, "--grid-oracle", "--grid-resolution", resolution, *fmt])
    for figure in sorted(cli.FIGURES):
        code = _call(capsys, ["plot", figure, *source])
        if well_formed and not (figure == "modconf" and k != 2):
            assert code == 0, figure
