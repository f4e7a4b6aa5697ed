import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rothman import cli
from rothman.errors import ConvergenceError
from rothman.tables import four_strata_fixture, newcastle_fixture, serialize_table

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
    path.write_text(serialize_table(four_strata_fixture()))
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


def test_standardize_negative_zero_weight_reads_as_zero(capsys):
    # a weight of -0 is the weight 0: the report prints 0, and JSON holds 0.0
    code, out, err = run(capsys, "standardize", "--fixture", "newcastle", "--weights=-0,1")
    assert (code, err) == (0, "")
    assert out == (
        "weights: 0, 1\n"
        "standardized risk, unexposed (x): 0.855\n"
        "standardized risk, exposed   (y): 0.857\n"
        "  risk difference: 0.002\n"
        "  risk ratio: 1.003\n"
        "  odds ratio: 1.018\n"
        "  cumulative hazard ratio: 1.008\n"
        "hull vertex: yes\n"
    )
    code, out, err = run(capsys, "standardize", "--fixture", "newcastle", "--weights=-0,1", "--format", "json")
    assert (code, err) == (0, "")
    assert out.startswith('{\n  "weights": [\n    0.0,\n    1.0\n  ],\n')
    assert "-0.0" not in out
    assert [math.copysign(1.0, w) for w in json.loads(out)["weights"]] == [1.0, 1.0]


def test_standardize_weights_within_the_sum_tolerance_on_full_strata(capsys, tmp_path):
    # the weights sum to 1 + 8e-13, within the tolerance, on strata whose
    # risks are all 1: both standardized risks are 1, not a point above it
    path = tmp_path / "full.csv"
    path.write_text("stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\na,5,5,5,5\nb,3,3,3,3\n")
    argv = ("standardize", "--input", str(path), "--weights", "0.5000000000004,0.5000000000004")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "standardized risk, unexposed (x): 1.000\nstandardized risk, exposed   (y): 1.000\n" in out
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["standardized_risk_unexposed"] == doc["standardized_risk_exposed"] == 1.0


def test_standardize_rejects_bad_weights(capsys):
    for weights, message in (
        ("0.7,0.7", "sum to 1"), ("0.5,nan", "finite and nonnegative"),
        ("0.5,abc", "weights must be 'marginal', 'uniform', or comma-separated numbers"),
    ):
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
    assert doc["grid_oracle"]["resolution"] == 0.001  # bare, the default spacing
    assert doc["grid_oracle"]["min_disagreement"] < 5e-4


@pytest.mark.parametrize("resolution", ["0", "nan", "inf", "-0.5", "1.5"])
def test_collapse_grid_oracle_rejects_bad_resolution(capsys, resolution):
    code, _, err = run(
        capsys,
        "collapse", "--fixture", "newcastle", f"--grid-oracle={resolution}",
    )
    assert code == 3
    assert "resolution must be in (0, 1]" in err and "Traceback" not in err


def test_collapse_has_no_resolution_option_apart_from_the_oracle(capsys):
    # the resolution is --grid-oracle's value, so no option can be accepted
    # and then ignored for want of the other
    with pytest.raises(SystemExit) as refused:
        cli.main(["collapse", "--fixture", "newcastle", "--grid-resolution", "0"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --grid-resolution 0" in capsys.readouterr().err


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
        table = four_strata_fixture()
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
    _, schema = _json_schema(capsys, tmp_path, source, "collapse", "--grid-oracle", "0.05")
    expected["grid_oracle"] = {"resolution": "float", "minimum": extreme, "maximum": extreme,
                               "min_disagreement": "float", "max_disagreement": "float"}
    _assert_schema(schema, expected)


def test_collapse_grid_oracle_rejects_a_lattice_over_the_bound(capsys):
    code, _, err = run(
        capsys,
        "collapse", "--fixture", "newcastle", "--grid-oracle", "1e-300",
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


def test_plot_contours_reads_a_table_it_is_given(capsys, tmp_path):
    # the figure draws no table, but one that is given is read and refused
    # as under every other subcommand
    code, out, err = run(capsys, "plot", "contours", "--input", str(tmp_path / "missing.csv"))
    assert (code, out) == (3, "")
    assert err.startswith("input error: [Errno 2] ")


def _cli_process(argv, text=True, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "rothman.cli", *argv], env=env, stderr=subprocess.PIPE, text=text, **kwargs)


@pytest.mark.parametrize("argv", [["fit", "--format", "json"], ["plot", "hull"]])
def test_a_closed_stdout_ends_the_process_quietly(argv):
    # a pipe whose reader is gone before the first write, as `| head` leaves
    # it for the rest of the output: exit 0 with nothing on stderr, not even
    # the interpreter's "Exception ignored" from its flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli_process([*argv, "--fixture", "newcastle"], stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_plot_into_a_missing_directory_is_an_output_error(tmp_path):
    done = _cli_process(["plot", "contours", "-o", str(tmp_path / "missing" / "x.svg")], stdout=subprocess.DEVNULL)
    assert done.returncode == 3
    assert done.stderr.startswith("output error: [Errno 2] ") and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv", [["fit", "--format", "json"], ["collapse", "--grid-oracle", "--format", "json"], ["plot", "modification"]]
)
def test_one_blas_thread_changes_no_output(monkeypatch, argv):
    # OPENBLAS_NUM_THREADS=1 spares a cold process numpy's BLAS worker
    # thread (README, "Command line"); the output stays byte for byte
    argv = [*argv, "--fixture", "newcastle"]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    default = _cli_process(argv, text=False, stdout=subprocess.PIPE)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    one_thread = _cli_process(argv, text=False, stdout=subprocess.PIPE)
    assert default.returncode == one_thread.returncode == 0
    assert one_thread.stdout == default.stdout


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


def test_stratum_solve_out_of_steps_exit_code(capsys, one_step_solves):
    # the refusal of a stratum solve at its step limit (see
    # test_stratum_solve_out_of_steps_raises in test_inference.py)
    code, out, err = run(capsys, "fit", "--fixture", "newcastle", "--link", "cloglog")
    assert code == 4
    assert err.startswith("convergence error: profile solve of a stratum did not converge at exposure coefficient ")
    assert len(err.splitlines()) == 1


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
    _call(capsys, ["collapse", *source, "--measure", measure, "--grid-oracle", resolution, *fmt])
    for figure in sorted(cli.FIGURES):
        code = _call(capsys, ["plot", figure, *source])
        if well_formed and not (figure == "modconf" and k != 2):
            assert code == 0, figure


# --- byte pins: stdout, stderr and the exit code of every subcommand form ---
#
# Each case runs in a directory that holds four.csv (the four-stratum
# table), zero.csv (ZERO_CELLS_CSV) and bad.csv (BAD_CSV), so no output
# carries a temporary path. The usage errors are argparse's, as Python 3.10
# and 3.11 word them.

_PIN_SOURCES = {
    "newcastle": ["--fixture", "newcastle"],
    "four": ["--input", "four.csv"],
    "zero": ["--input", "zero.csv"],
}
_PIN_REPORTS = {
    "measures": ["measures"],
    "fit": ["fit"],
    "fit-logit-90": ["fit", "--link", "logit", "--level", "0.9"],
    "standardize-marginal": ["standardize", "--weights", "marginal"],
    "standardize-uniform": ["standardize", "--weights", "uniform"],
    "collapse": ["collapse"],
    "collapse-rd": ["collapse", "--measure", "rd"],
    "collapse-rr": ["collapse", "--measure", "rr"],
    "collapse-chr": ["collapse", "--measure", "chr"],
    "collapse-grid": ["collapse", "--grid-oracle", "0.05"],
}
_PIN_CASES = {
    **{
        f"{form}-{source}-{fmt}": [*argv, *_PIN_SOURCES[source], "--format", fmt]
        for form, argv in _PIN_REPORTS.items() for source in _PIN_SOURCES for fmt in ("text", "json")
    },
    **{
        f"plot-{figure}-{source}": ["plot", figure, *_PIN_SOURCES[source]]
        for figure in ("contours", "modification", "modconf", "collapsible", "noncollapsible", "hull")
        for source in _PIN_SOURCES
    },
    "no-command": [],
    "measures-no-input": ["measures"],
    "measures-two-inputs": ["measures", "--input", "four.csv", "--fixture", "newcastle"],
    "measures-bad-format": ["measures", "--fixture", "newcastle", "--format", "yaml"],
    "fit-bad-level": ["fit", "--fixture", "newcastle", "--level", "x"],
    "fit-unknown-option": ["fit", "--fixture", "newcastle", "--bogus"],
    "standardize-no-weights": ["standardize", "--fixture", "newcastle"],
    "plot-no-figure": ["plot", "--fixture", "newcastle"],
    "plot-format": ["plot", "hull", "--fixture", "newcastle", "--format", "json"],
    "measures-bad-csv": ["measures", "--input", "bad.csv"],
    "fit-bad-csv-json": ["fit", "--input", "bad.csv", "--format", "json"],
    "collapse-missing-file": ["collapse", "--input", "missing.csv", "--format", "json"],
    "plot-modification-no-input": ["plot", "modification"],
    "plot-contours-bad-csv": ["plot", "contours", "--input", "bad.csv"],
}

CLI_SHA256 = {
    "measures-newcastle-text": "2383207f6c34b00ebb2292e69e49efdad440d8a6df8ef633f6fbae3ac0cd4384",
    "measures-newcastle-json": "9317ea0a847707cfbad36d51549b2387ab3e080128fa093bf2b9e1cd9efa1704",
    "measures-four-text": "eb934e16bb616745f702e633a15255a47afd9e4039dac1b85b54b1fd4226a6d4",
    "measures-four-json": "c06d6e2277bb72a10037753f286a0661693c5d64f7f554a44d62430077a4245b",
    "measures-zero-text": "abbfd63e68c6a63417147f5d64190fdb544c2329887c256e0369302b447d732b",
    "measures-zero-json": "e05efa253fedfd87555e51d5dabf7e9bb56ec0f5c610ab9078ca9d71d6bf1ff3",
    "fit-newcastle-text": "6c93b6190d95ea67a51b9c1abf66f0adf5124d5fc701e2570cf943f164dff6c6",
    "fit-newcastle-json": "00373fcb03530f0ca00c5a1ae59f8993a8f70751596ccc9109713dc6adc498f0",
    "fit-four-text": "aaf79e3ffd97ceae3a476ab0cac0a2cac9f59e433f9ff48877ce0868379a7b49",
    "fit-four-json": "b227601fe42479b3b6f59ab379e572fe9650e189c909c91a8091c14ce10c9131",
    "fit-zero-text": "8d6e6252eed80be4fd7ccf9d70fa6b188c528e2b502a5234b165f9480ccfef0b",
    "fit-zero-json": "cbac2bf9c1d9b5b58c0f655a95839fe85d2f889638fd45e32de06f42359d8042",
    "fit-logit-90-newcastle-text": "000dca453e11009cc7b2b22d9e5c44c8d4e3f632d2ff03ee9e9c6e42063e9005",
    "fit-logit-90-newcastle-json": "0cceb44dde284146b0702bd80e7948a5927022ef18604f272173bd936a09e16f",
    "fit-logit-90-four-text": "ad7868daa8ba2b74eca8182a3d09165aac30d8f70427842077a42a7722795afd",
    "fit-logit-90-four-json": "43248c9750cff0825c798af566168a160b0a5724637614bf4abd24d50812b29f",
    "fit-logit-90-zero-text": "55a740e09dd537b94f1f288b3104a33f64bc51529552f4ea64c0971d0094f652",
    "fit-logit-90-zero-json": "f6c64fcaed035625de8664305044f2638d100cc2be2821e29fc0aab0226051b5",
    "standardize-marginal-newcastle-text": "16889768ccdc20004dbb6c2e13e412f7734963ed1911e09133aaaf947ab71867",
    "standardize-marginal-newcastle-json": "7508a8eab51e950109280e0f1cb2c04d95f23f2e8548f110263a74088f111ae2",
    "standardize-marginal-four-text": "58610e3d65301e27183e5e5aba4ed782a7720defda1e8d5b4fe67d78d204492b",
    "standardize-marginal-four-json": "7fdc9647abc53e038d009c460f6a2405d6ee183e3e165c692a9b71c40cd0f286",
    "standardize-marginal-zero-text": "6720ae3288bf5b4378a8572ee9f92819c0ffd4e31da34d4f932a14bac1901164",
    "standardize-marginal-zero-json": "e2300818da10c6a51c91a36ec15735f848f570990411e249660d5b27738077ec",
    "standardize-uniform-newcastle-text": "9e4ccd581c23e73b28b6ae28df9bcf20651addaf8543f1a5ae2b81cff183edc0",
    "standardize-uniform-newcastle-json": "897f27c8108dfa1483bda9aa9d4e3cc18869da27383987b499e03fccc23ede2f",
    "standardize-uniform-four-text": "49abf2520f6397841e7a979e256526ba8274d7b6b2da5e5d9addc8936a3b2271",
    "standardize-uniform-four-json": "4d5f37e57c35f79f5aedba98f5e58fa5f3fc93981caac64a446367b265c77528",
    "standardize-uniform-zero-text": "f840da5491ec4a0bd371313007e5e6026a4ad9d50ca11a1679ab0853f4f8efe0",
    "standardize-uniform-zero-json": "225133552c5c3abe9b73d2100a0bbc522028941a0236b8558d5312e37f1c137d",
    "collapse-newcastle-text": "935ff0a458654c7d40066a44c8643a195d218866f9a607ddeb5cf8df48fae091",
    "collapse-newcastle-json": "6d8045f449264bbcf68ac92781f44f54c83b44db12f27f4509bc76d1b24cb739",
    "collapse-four-text": "2533baf76248893a44de14cc59f60c8d4370c6081c2e3ae00d9d7c348e67156d",
    "collapse-four-json": "c93c0a473d21ba5b89cfaaaa65f71c3fedb082c24d30c78bccd5f9151ced16d1",
    "collapse-zero-text": "c4b90b96a5f6ab54dd049e3407e02399aac887a94cb945ac23c926be55b35df8",
    "collapse-zero-json": "610cbc7b40d375dba553dcbcfe6b32b0074ed4afeef6e2c230799ea5b12fb46d",
    "collapse-rd-newcastle-text": "77ff9de734e5a123204442ec2de05291db6a84d079bbc1e26f78be16bac18888",
    "collapse-rd-newcastle-json": "84fc22082f4f20c5000f8b50e93fe91bc2caa1a6f63ec6af5cbc64bd8ffc853c",
    "collapse-rd-four-text": "80713df1616a051a7fb854a0e9b1cf18c2a77e9dadebc144d1542335de2079cc",
    "collapse-rd-four-json": "8787e84c9e0f1c137a7df9928de6e68ce24044aad4701915686bfb548c6d4f94",
    "collapse-rd-zero-text": "948e3b6c6dc52601fbc837672d94e0df41beaf60230bd895b25256cea838d28e",
    "collapse-rd-zero-json": "ddab9a430518d8f65a434d8df5843eed760d9ba44c24d7772d41674b672f5d3c",
    "collapse-rr-newcastle-text": "8c06768e8b8d6bfa1587080cc661371bd318fdaa008be8b1f1aeb71882e94d23",
    "collapse-rr-newcastle-json": "0b8611e3bfed4dc7688760985feb3b8c6e714a678e5d759f07a91967b1550338",
    "collapse-rr-four-text": "209712a36a971c10067b2c5a2f639ff63680d9ae81c4ef9d778db9cee14ef44a",
    "collapse-rr-four-json": "d227b95c700b489e3d66956a9524e91e18b2b77911058fbc6c078e4ad4bd36c4",
    "collapse-rr-zero-text": "eb6e8f7f7bc0cd480919bc1a1506b793d1906f1d84f4869a3bd845ad33611f63",
    "collapse-rr-zero-json": "670be84ff641e8ccbe8d0289209d329f24d29baa5583fc14992af1ff68063731",
    "collapse-chr-newcastle-text": "80f86807cb3f4d9daba0d4435ef7c3542530f0b6c90ced5b51a39d17d822594f",
    "collapse-chr-newcastle-json": "cdc9ce26e8b7a9d3572242b9d678fbe147bd55e6233eb0d1aae7acb6bbc57945",
    "collapse-chr-four-text": "a09f3973ee073c4ef985dc1883d979d07f63bbbeab79a1289ba0563e4258bea5",
    "collapse-chr-four-json": "6d9c1174409478dd0e778f7018c831d3b3d919bbe7a14780b5e3e43a17ba84fe",
    "collapse-chr-zero-text": "ca00e671767d59041af230d092c94e41bbc80fccfb1f05b68b61347ae3646f0f",
    "collapse-chr-zero-json": "05d193a1f958996d7a8c2af5fb214685defefb8b428dc82cae3ec463e9ec6117",
    "collapse-grid-newcastle-text": "f2ccc37a6401961d38a3241cd791329844e648353fbaa83404fdef1962dac386",
    "collapse-grid-newcastle-json": "3d781d092c7b386f57dce9738dfa1ed3ac988ad31fbeacc0401cb2e320ff224a",
    "collapse-grid-four-text": "1225ae1c30e61c1a7b18d0192bc10f5d895de5b931e36f39653a68888117d030",
    "collapse-grid-four-json": "e5da7affa0b7b39938f761c4b6024a0ffbe41fdf2a94e3d78ce0b3ab7944872a",
    "collapse-grid-zero-text": "d22d0bf0c10c7031612a950011aedbfb776a56f5a5b9db48c6f07ed10042129c",
    "collapse-grid-zero-json": "f9a4ad1cbe2d8626454c838fba0547f913ba0c52f0e3f8fe485b0d84c5fe0ea5",
    "plot-contours-newcastle": "4f206bd6d559e3e76f928b762c60a8b44a47748787ecebd8be735526245a6e7b",
    "plot-contours-four": "4f206bd6d559e3e76f928b762c60a8b44a47748787ecebd8be735526245a6e7b",
    "plot-contours-zero": "4f206bd6d559e3e76f928b762c60a8b44a47748787ecebd8be735526245a6e7b",
    "plot-modification-newcastle": "dc028d596de762da637c007ce527193e2dfd06469505280fedef82a2e6525b13",
    "plot-modification-four": "b6b1365d54006f058f0be1720120b70a942694a7dfdd35fdda1af4ef0b12033f",
    "plot-modification-zero": "d0fc318dd933ebe6313643102b914d5de55b1b10d9a4874ae2b7253364bbc7db",
    "plot-modconf-newcastle": "d7d2006e83b7341a342d9de1e15862a0679cbcdb584902580113d88af8042acf",
    "plot-modconf-four": "61ba965719eaa4b18cf7c9bf7e17198b2b1d1c4c2b40a187972e776af506b653",
    "plot-modconf-zero": "7779a746578392c7ca4927ee01f0a049409b8176d32fc996bcf3d8a7981b58ed",
    "plot-collapsible-newcastle": "85b393bc785f6e61faf1245860535da8668ce4eb463cfdef658bb7093ac5282d",
    "plot-collapsible-four": "84daefefdb58b81ec70a67d21c78ef41b791e5079f2a213f093da89fc8c9e627",
    "plot-collapsible-zero": "7eb5b8bf14c56beb1c97618cd85ae767d42b150cb8ea8a94184ab9e62b9c7a27",
    "plot-noncollapsible-newcastle": "1ff0fecbb13932ea85055f98bf65c0655ab0ac143e9135d4f043bae3638deb09",
    "plot-noncollapsible-four": "a8b65ca33a4d5ad99107602bf66a96fcf4f25f7e981a7bfd30fcb73024d97ac5",
    "plot-noncollapsible-zero": "82fe5652c2f195d44c22548d8cbd45d984a9b56c95e5452d2bc46c74d00826ee",
    "plot-hull-newcastle": "fcc79868b6b88b8b572f69b087d063c4dc102086bdbcc0225dc652b43d224cca",
    "plot-hull-four": "f1cdce75d83a7f726584b4a84f8f851661f7b90e64d268992163da7a7e039eb0",
    "plot-hull-zero": "6d279fc38fa0abb4fec155e5584d31c88c73cc8d795958055848e976629bfee7",
    "no-command": "fa2cc511da1180486a95bdfd3d2d8202a672aecbac89e14d086727fa1685226a",
    "measures-no-input": "ac66162a15437f09da83eaa11c6e50334d04f5a52b189c7eeed8185c445b628c",
    "measures-two-inputs": "6760c9922f8e6c1ab84c32cd234bf8e08d96cddcc01675cc45828e964656bdfd",
    "measures-bad-format": "674cd87530c83153158d16a65118e9ecdcb39a90bd57a64b752535200e3aab14",
    "fit-bad-level": "c8e0a43a87fbbf5259a9ef7dc52f6b08532ce7ec7561b32373dce520d58caf4b",
    "fit-unknown-option": "0839963d65ed69793a16d210a226058b5ba040ea20763003abc0fe11118e8924",
    "standardize-no-weights": "bebadb2e78417020860def2b85df16871fa679c6d4cbfab5e50e5414665826a7",
    "plot-no-figure": "712f0c5ed5c5add7bc6490528d2ecf33efd6881fa05357e4408c94fbc2a21f0a",
    "plot-format": "df941fbb0f7c80b798f0d9a07970ce588b6a89d9437220fc6430670f9d5c2127",
    "measures-bad-csv": "d258a17a230b941981b9eee0938240f871464fe93a6a7ea863f0b4ce8fedee02",
    "fit-bad-csv-json": "d258a17a230b941981b9eee0938240f871464fe93a6a7ea863f0b4ce8fedee02",
    "collapse-missing-file": "11a015d6462a97cd508b8fdbd60d3237526e947a3d5dc10161125f333047d6d7",
    "plot-modification-no-input": "78f447754d7153a0194b1730b929a4ac4e98d4db9e0ed60585c171ee9d178b55",
    "plot-contours-bad-csv": "d258a17a230b941981b9eee0938240f871464fe93a6a7ea863f0b4ce8fedee02",
}


@pytest.mark.parametrize("case", list(CLI_SHA256))
def test_cli_output_digest(capsys, tmp_path, monkeypatch, case):
    (tmp_path / "four.csv").write_text(serialize_table(four_strata_fixture()))
    (tmp_path / "zero.csv").write_text(ZERO_CELLS_CSV)
    (tmp_path / "bad.csv").write_text(BAD_CSV)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    try:
        code = cli.main(_PIN_CASES[case])
    except SystemExit as e:  # argparse refusing the command line
        code = e.code
    captured = capsys.readouterr()
    record = f"{code}\0{captured.out}\0{captured.err}"
    assert hashlib.sha256(record.encode()).hexdigest() == CLI_SHA256[case]


def test_json_output_computes_no_text_only_line(capsys, monkeypatch):
    # the confounding line is text output only: JSON asks nothing of it
    def refuse(table):
        raise AssertionError("is_confounded called for JSON output")

    monkeypatch.setattr(cli, "is_confounded", refuse)
    code, out, err = run(capsys, "measures", "--fixture", "newcastle", "--format", "json")
    assert code == 0, err
    assert "confounded" not in out


def test_fit_cloglog_with_a_cell_near_one_at_a_1e9_total(capsys, tmp_path):
    # the profile maximum ran to its step limit here, and fit exited 4
    path = tmp_path / "near-one.csv"
    path.write_text(HEADER + "\ns0,999999998,999999999,1,3\ns1,71,71,1,2\n")
    code, out, err = run(capsys, "fit", "--input", str(path), "--link", "cloglog")
    assert code == 0, err
    assert "95% profile CI: (11.356, 902.524)" in out


# arm totals from about 2^53 - 2 up, where a cell's risk or 1 minus its
# adjusted risk rounds to 1: a risk near 1 at a total of 1e17 with two strata
# and with one, a full stratum at a total of 2^53 - 2, and risks of 1e-100
# and 1 - 1e-100 at the largest total, 10^100
HUGE_TOTAL_CSVS = {
    "near-one-k2": "a,99999999999999999,100000000000000000,1,2\nb,1,2,1,3",
    "near-one-k1": "s0,99999999999999999,100000000000000000,500000000,1000000000",
    "full-stratum": "s0,9007199254740990,9007199254740990,10,10\ns1,2,5,3,9",
    "largest-total": f"s0,1,{10**100},3,7\ns1,{10**100 - 1},{10**100},2,5",
}


@pytest.mark.parametrize("name", list(HUGE_TOTAL_CSVS))
def test_every_subcommand_ends_without_a_traceback_at_huge_totals(capsys, tmp_path, name):
    # each of these raised a math domain error, or refused a valid table as
    # infeasible, in some fit; every link now fits, and every subcommand
    # ends with a documented exit code
    path = tmp_path / "huge.csv"
    path.write_text(HEADER + "\n" + HUGE_TOTAL_CSVS[name] + "\n")
    source = ["--input", str(path)]
    for link in ("identity", "log", "logit", "cloglog", "all"):
        assert _call(capsys, ["fit", *source, "--link", link]) == 0, link
    for measure in ("rd", "rr", "or", "chr"):
        _call(capsys, ["collapse", *source, "--measure", measure])
    for weights in ("marginal", "uniform"):
        _call(capsys, ["standardize", *source, "--weights", weights])
    _call(capsys, ["measures", *source])
    for figure in sorted(cli.FIGURES):
        _call(capsys, ["plot", figure, *source])


def test_a_total_above_10_to_the_100_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(f"{HEADER}\ns0,1,{10**100 + 1},3,7\n")
    for argv in (["measures"], ["fit", "--link", "all"], ["collapse", "--measure", "or"], ["plot", "hull"]):
        code, _, err = run(capsys, *argv, "--input", str(path))
        assert code == 3 and "total must be at most 10^100" in err, argv
