"""Command-line front end: ingestion, analysis, and SVG rendering.

Exit codes: 0 success, 2 usage error, 3 data or domain error,
4 convergence error. Text output rounds to 3 decimals; JSON output keeps
full precision and always parses back with ``json.loads``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConvergenceError, DomainError, RothmanError, TableParseError
from .measures import Measure, evaluate
from .inference import (
    LinkFunction,
    ModelSpec,
    common_measure,
    fit,
    link_for_measure,
    lr_test_interaction,
    measure_for_link,
    profile_ci,
)
from .render import FIGURES, render_svg
from .standardize import (
    StandardDistribution,
    collapsibility_verdict,
    grid_extremize,
    is_confounded,
    marginal_distribution,
    standardized_hull,
    standardized_point,
    uniform_distribution,
)
from .tables import StratifiedTable, crude_point, newcastle_fixture, parse_table, stratum_points

_MEASURES = {m.value: m for m in Measure}
_LINKS = {l.value: l for l in LinkFunction}


class UsageError(Exception):
    """Bad flag combination detected after argparse (exit code 2)."""


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _add_input_options(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--input", metavar="CSV", help="stratified 2x2 CSV file")
    group.add_argument("--fixture", choices=["newcastle"], help="embedded example table")


def _load_table(args: argparse.Namespace) -> StratifiedTable:
    if args.fixture:
        return newcastle_fixture()
    try:
        text = Path(args.input).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise TableParseError(
            f"{args.input} is not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    return parse_table(text)


def _evaluate_all(items) -> tuple[dict, dict]:
    """Each (key, measure, point) evaluated; undefined ones map to None with a reason."""
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for key, m, point in items:
        try:
            values[key] = evaluate(m, point)
        except DomainError as e:
            values[key] = None
            reasons[key] = str(e)
    return values, reasons


def _measure_values(point) -> tuple[dict, dict]:
    """All four measures at a point."""
    return _evaluate_all((m.value, m, point) for m in Measure)


def cmd_measures(args: argparse.Namespace) -> int:
    table = _load_table(args)
    rows = []
    for s, p in zip(table.strata, stratum_points(table)):
        values, reasons = _measure_values(p)
        rows.append({"label": s.label, "x": p.x, "y": p.y, "measures": values, "undefined": reasons})
    crude = crude_point(table)
    values, reasons = _measure_values(crude)
    crude_row = {"label": "crude", "x": crude.x, "y": crude.y, "measures": values, "undefined": reasons}
    if args.format == "json":
        print(json.dumps({"strata": rows, "crude": crude_row}, indent=2))
        return 0
    width = max(5, *(len(r["label"]) for r in rows))
    header = f"{'stratum':<{width}}  {'x':>7} {'y':>7}  {'RD':>9} {'RR':>9} {'OR':>9} {'CHR':>9}"
    print(header)
    notes = []
    for r in rows + [crude_row]:
        cells = []
        for key in ("rd", "rr", "or", "chr"):
            v = r["measures"][key]
            cells.append(f"{v:>9.3f}" if v is not None else f"{'undefined':>9}")
            if v is None:
                notes.append(f"  note: {r['label']}: {r['undefined'][key]}")
        print(f"{r['label']:<{width}}  {r['x']:>7.3f} {r['y']:>7.3f}  " + " ".join(cells))
    for note in notes:
        print(note)
    conf = is_confounded(table) if table.k >= 2 else None
    if conf is not None:
        print(
            f"confounded: {'yes' if conf.confounded else 'no'} "
            f"(crude point is {conf.distance:.3f} from the standardized hull)"
        )
    return 0


def _fit_report(table: StratifiedTable, link: LinkFunction, level: float) -> dict:
    measure = measure_for_link(link)
    restricted = fit(table, ModelSpec(link, interaction=False))
    strata, undefined = _evaluate_all(
        (s.label, measure, p) for s, p in zip(table.strata, stratum_points(table))
    )
    lr = None
    if table.k >= 2:
        test = lr_test_interaction(table, link)
        lr = {"statistic": test.statistic, "df": test.df, "p_value": test.p_value}
    ci = profile_ci(table, link, level)
    return {
        "link": link.value,
        "measure": measure.value,
        "stratum_estimates": strata,
        "undefined": undefined,
        "interaction": lr,
        "common": common_measure(restricted),
        "ci": {
            "level": level,
            "lower": ci.lower,
            "upper": ci.upper,
            "lower_truncated": ci.lower_truncated,
            "upper_truncated": ci.upper_truncated,
        },
    }


def cmd_fit(args: argparse.Namespace) -> int:
    table = _load_table(args)
    links = list(LinkFunction) if args.link == "all" else [_LINKS[args.link]]
    reports = [_fit_report(table, link, args.level) for link in links]
    if args.format == "json":
        print(json.dumps({"fits": reports}, indent=2))
        return 0
    for rep in reports:
        measure = _MEASURES[rep["measure"]]
        print(f"measure: {measure.label} ({rep['link']} link)")
        strata = "  ".join(
            f"{lab}: {'undefined' if v is None else _fmt(v)}"
            for lab, v in rep["stratum_estimates"].items()
        )
        print(f"  stratum estimates: {strata}")
        if rep["interaction"] is not None:
            lr = rep["interaction"]
            print(
                f"  interaction LR test: statistic {_fmt(lr['statistic'])}, "
                f"df {lr['df']}, p-value {_fmt(lr['p_value'])}"
            )
        print(f"  common estimate: {_fmt(rep['common'])}")
        ci = rep["ci"]
        flags = "".join(
            [" [lower truncated]" if ci["lower_truncated"] else "",
             " [upper truncated]" if ci["upper_truncated"] else ""]
        )
        print(
            f"  {100 * ci['level']:g}% profile CI: ({_fmt(ci['lower'])}, {_fmt(ci['upper'])}){flags}"
        )
    return 0


def _parse_weights(spec: str, table: StratifiedTable) -> StandardDistribution:
    if spec == "marginal":
        return marginal_distribution(table)
    if spec == "uniform":
        return uniform_distribution(table.k)
    try:
        weights = tuple(float(w) for w in spec.split(","))
    except ValueError:
        raise DomainError(f"weights must be 'marginal', 'uniform', or comma-separated numbers, got {spec!r}") from None
    return StandardDistribution(weights)


def cmd_standardize(args: argparse.Namespace) -> int:
    table = _load_table(args)
    dist = _parse_weights(args.weights, table)
    point = standardized_point(table, dist)
    hull = standardized_hull(stratum_points(table))
    values, reasons = _measure_values(point)
    report = {
        "weights": list(dist.weights),
        "standardized_risk_unexposed": point.x,
        "standardized_risk_exposed": point.y,
        "measures": values,
        "undefined": reasons,
        "is_hull_vertex": hull.is_vertex(point),
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    print("weights: " + ", ".join(f"{w:.6g}" for w in dist.weights))
    print(f"standardized risk, unexposed (x): {_fmt(point.x)}")
    print(f"standardized risk, exposed   (y): {_fmt(point.y)}")
    for m in Measure:
        v = values[m.value]
        shown = _fmt(v) if v is not None else f"undefined ({reasons[m.value]})"
        print(f"  {m.label}: {shown}")
    print(f"hull vertex: {'yes' if report['is_hull_vertex'] else 'no'}")
    return 0


def cmd_collapse(args: argparse.Namespace) -> int:
    table = _load_table(args)
    measure = _MEASURES[args.measure]
    link = link_for_measure(measure)
    restricted = fit(table, ModelSpec(link, interaction=False))
    points = list(restricted.fitted_points)
    report = collapsibility_verdict(points, measure)
    out = {
        "measure": measure.value,
        "common_value": report.common_value,
        "minimum": {"value": report.minimum.value, "weights": list(report.minimum.weights)},
        "maximum": {"value": report.maximum.value, "weights": list(report.maximum.weights)},
        "verdict": report.verdict.value,
    }
    if args.grid_oracle:
        gmin = grid_extremize(points, measure, "min", args.grid_resolution)
        gmax = grid_extremize(points, measure, "max", args.grid_resolution)
        out["grid_oracle"] = {
            "resolution": args.grid_resolution,
            "minimum": {"value": gmin.value, "weights": list(gmin.weights)},
            "maximum": {"value": gmax.value, "weights": list(gmax.weights)},
            "min_disagreement": abs(gmin.value - report.minimum.value),
            "max_disagreement": abs(gmax.value - report.maximum.value),
        }
    if args.format == "json":
        print(json.dumps(out, indent=2))
        return 0
    print(f"measure: {measure.label}")
    print(f"common stratum value: {_fmt(report.common_value)}")
    print(
        f"minimum standardized value: {_fmt(report.minimum.value)} at weights "
        + "(" + ", ".join(f"{w:.3f}" for w in report.minimum.weights) + ")"
    )
    print(
        f"maximum standardized value: {_fmt(report.maximum.value)} at weights "
        + "(" + ", ".join(f"{w:.3f}" for w in report.maximum.weights) + ")"
    )
    print(f"verdict: {report.verdict.value}")
    if args.grid_oracle:
        g = out["grid_oracle"]
        print(
            f"grid oracle (resolution {g['resolution']:g}): min {_fmt(g['minimum']['value'])}, "
            f"max {_fmt(g['maximum']['value'])}, "
            f"max disagreement {max(g['min_disagreement'], g['max_disagreement']):.2e}"
        )
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    needs_table = args.figure != "contours"
    if needs_table and not (args.input or args.fixture):
        raise UsageError("this figure needs --input or --fixture")
    table = _load_table(args) if needs_table else None
    svg = render_svg(FIGURES[args.figure](table))
    if args.output == "-":
        sys.stdout.write(svg)
    else:
        Path(args.output).write_text(svg, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rothman",
        description="Association measures, standardization, GLM inference, and "
        "SVG diagrams for stratified 2x2 tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="stratum-specific and crude association measures")
    _add_input_options(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("fit", help="GLM fits: stratum estimates, interaction test, common estimate, profile CI")
    _add_input_options(p)
    p.add_argument("--link", choices=[*_LINKS, "all"], default="all")
    p.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("standardize", help="standardized risks and measures for a standard distribution")
    _add_input_options(p)
    p.add_argument("--weights", required=True,
                   help="'marginal', 'uniform', or comma-separated weights summing to 1")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("collapse", help="collapsibility verdict over the standardized hull")
    _add_input_options(p)
    p.add_argument("--measure", choices=list(_MEASURES), default="or")
    p.add_argument("--grid-oracle", action="store_true",
                   help="verify the optimizer against a brute-force weight grid")
    p.add_argument("--grid-resolution", type=float, default=0.001)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("plot", help="emit an SVG diagram")
    p.add_argument("figure", choices=sorted(FIGURES))
    _add_input_options(p, required=False)
    p.add_argument("-o", "--output", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except TableParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except ConvergenceError as e:
        print(
            f"convergence error: {e} (iterations: {e.iterations}, "
            f"last log-likelihood: {e.loglik})",
            file=sys.stderr,
        )
        return 4
    except DomainError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except RothmanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
