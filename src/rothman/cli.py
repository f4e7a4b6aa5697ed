"""Command-line front end: ingestion, analysis, and SVG rendering.

Exit codes: 0 success (a closed stdout included), 2 usage error, 3 data,
domain, input or output error, 4 convergence error. Text output rounds to
3 decimals; JSON output keeps full precision and always parses back with
``json.loads``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConvergenceError, DomainError, TableParseError
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
    GRID_RESOLUTION,
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


class UsageError(Exception):
    """Bad flag combination detected after argparse (exit code 2)."""


class InputError(Exception):
    """An --input file that cannot be read (exit code 3)."""


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _load_table(args: argparse.Namespace) -> StratifiedTable:
    if args.fixture:
        return newcastle_fixture()
    try:
        text = Path(args.input).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise TableParseError(f"{args.input} is not UTF-8 text ({e.reason} at byte {e.start})") from None
    except OSError as e:
        raise InputError(e) from None
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


def _measure_row(label: str, point) -> dict:
    """A point's coordinates and its four measures."""
    values, reasons = _evaluate_all((m.value, m, point) for m in Measure)
    return {"label": label, "x": point.x, "y": point.y, "measures": values, "undefined": reasons}


def cmd_measures(args: argparse.Namespace):
    table = _load_table(args)
    rows = [_measure_row(s.label, p) for s, p in zip(table.strata, stratum_points(table))]
    rows.append(_measure_row("crude", crude_point(table)))
    return {"strata": rows[:-1], "crude": rows[-1]}, _measures_lines(table, rows)


def _measures_lines(table: StratifiedTable, rows: list):
    width = max(len(r["label"]) for r in rows)  # at least len("crude")
    yield f"{'stratum':<{width}}  {'x':>7} {'y':>7}  {'RD':>9} {'RR':>9} {'OR':>9} {'CHR':>9}"
    for r in rows:
        cells = " ".join(f"{'undefined':>9}" if v is None else f"{v:>9.3f}" for v in r["measures"].values())
        yield f"{r['label']:<{width}}  {r['x']:>7.3f} {r['y']:>7.3f}  {cells}"
    # each measure undefined at a point, in measure order (see _evaluate_all)
    yield from (f"  note: {r['label']}: {why}" for r in rows for why in r["undefined"].values())
    if table.k >= 2:
        conf = is_confounded(table)
        yield (
            f"confounded: {'yes' if conf.confounded else 'no'} "
            f"(crude point is {conf.distance:.3f} from the standardized hull)"
        )


def _fit_report(table: StratifiedTable, link: LinkFunction, level: float) -> dict:
    measure = measure_for_link(link)
    restricted = fit(table, ModelSpec(link, interaction=False))
    strata, undefined = _evaluate_all((s.label, measure, p) for s, p in zip(table.strata, stratum_points(table)))
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


def cmd_fit(args: argparse.Namespace):
    table = _load_table(args)
    links = list(LinkFunction) if args.link == "all" else [LinkFunction(args.link)]
    reports = [_fit_report(table, link, args.level) for link in links]
    return {"fits": reports}, _fit_lines(reports)


def _fit_lines(reports: list):
    for rep in reports:
        yield f"measure: {Measure(rep['measure']).label} ({rep['link']} link)"
        strata = "  ".join(
            f"{lab}: {'undefined' if v is None else _fmt(v)}"
            for lab, v in rep["stratum_estimates"].items()
        )
        yield f"  stratum estimates: {strata}"
        if (lr := rep["interaction"]) is not None:
            yield (
                f"  interaction LR test: statistic {_fmt(lr['statistic'])}, "
                f"df {lr['df']}, p-value {_fmt(lr['p_value'])}"
            )
        yield f"  common estimate: {_fmt(rep['common'])}"
        ci = rep["ci"]
        flags = "".join(f" [{end} truncated]" for end in ("lower", "upper") if ci[f"{end}_truncated"])
        yield f"  {100 * ci['level']:g}% profile CI: ({_fmt(ci['lower'])}, {_fmt(ci['upper'])}){flags}"


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


def cmd_standardize(args: argparse.Namespace):
    table = _load_table(args)
    dist = _parse_weights(args.weights, table)
    point = standardized_point(table, dist)
    values, reasons = _evaluate_all((m.value, m, point) for m in Measure)
    report = {
        "weights": list(dist.weights),
        "standardized_risk_unexposed": point.x,
        "standardized_risk_exposed": point.y,
        "measures": values,
        "undefined": reasons,
        "is_hull_vertex": standardized_hull(stratum_points(table)).is_vertex(point),
    }
    return report, _standardize_lines(report)


def _standardize_lines(report: dict):
    yield "weights: " + ", ".join(f"{w:.6g}" for w in report["weights"])
    yield f"standardized risk, unexposed (x): {_fmt(report['standardized_risk_unexposed'])}"
    yield f"standardized risk, exposed   (y): {_fmt(report['standardized_risk_exposed'])}"
    for m in Measure:
        v = report["measures"][m.value]
        shown = _fmt(v) if v is not None else f"undefined ({report['undefined'][m.value]})"
        yield f"  {m.label}: {shown}"
    yield f"hull vertex: {'yes' if report['is_hull_vertex'] else 'no'}"


def _extreme(found) -> dict:
    return {"value": found.value, "weights": list(found.weights)}


def cmd_collapse(args: argparse.Namespace):
    table = _load_table(args)
    measure = Measure(args.measure)
    points = list(fit(table, ModelSpec(link_for_measure(measure), interaction=False)).fitted_points)
    verdict = collapsibility_verdict(points, measure)
    report = {
        "measure": measure.value,
        "common_value": verdict.common_value,
        "minimum": _extreme(verdict.minimum),
        "maximum": _extreme(verdict.maximum),
        "verdict": verdict.verdict.value,
    }
    if args.grid_resolution is not None:
        gmin = grid_extremize(points, measure, "min", args.grid_resolution)
        gmax = grid_extremize(points, measure, "max", args.grid_resolution)
        report["grid_oracle"] = {
            "resolution": args.grid_resolution,
            "minimum": _extreme(gmin),
            "maximum": _extreme(gmax),
            "min_disagreement": abs(gmin.value - verdict.minimum.value),
            "max_disagreement": abs(gmax.value - verdict.maximum.value),
        }
    return report, _collapse_lines(report)


def _collapse_lines(report: dict):
    yield f"measure: {Measure(report['measure']).label}"
    yield f"common stratum value: {_fmt(report['common_value'])}"
    for name in ("minimum", "maximum"):
        weights = ", ".join(f"{w:.3f}" for w in report[name]["weights"])
        yield f"{name} standardized value: {_fmt(report[name]['value'])} at weights ({weights})"
    yield f"verdict: {report['verdict']}"
    if g := report.get("grid_oracle"):
        yield (
            f"grid oracle (resolution {g['resolution']:g}): min {_fmt(g['minimum']['value'])}, "
            f"max {_fmt(g['maximum']['value'])}, "
            f"max disagreement {max(g['min_disagreement'], g['max_disagreement']):.2e}"
        )


def cmd_plot(args: argparse.Namespace) -> None:
    given = bool(args.input or args.fixture)
    if not given and args.figure != "contours":
        raise UsageError("this figure needs --input or --fixture")
    # a table that is given is read, and refused as under every subcommand,
    # also by the contours figure, which draws none of it
    svg = render_svg(FIGURES[args.figure](_load_table(args) if given else None))
    if args.output == "-":
        sys.stdout.write(svg)
    else:
        Path(args.output).write_text(svg, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rothman",
        description="Association measures, standardization, GLM inference, and "
        "SVG diagrams for stratified 2x2 tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, needs_table: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        group = p.add_mutually_exclusive_group(required=needs_table)
        group.add_argument("--input", metavar="CSV", help="stratified 2x2 CSV file")
        group.add_argument("--fixture", choices=["newcastle"], help="embedded example table")
        p.set_defaults(func=func)
        return p

    reports = [command("measures", cmd_measures, "stratum-specific and crude association measures")]
    p = command("fit", cmd_fit, "GLM fits: stratum estimates, interaction test, common estimate, profile CI")
    p.add_argument("--link", choices=[*(link.value for link in LinkFunction), "all"], default="all")
    p.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    reports.append(p)
    p = command("standardize", cmd_standardize, "standardized risks and measures for a standard distribution")
    p.add_argument("--weights", required=True,
                   help="'marginal', 'uniform', or comma-separated weights summing to 1")
    reports.append(p)
    p = command("collapse", cmd_collapse, "collapsibility verdict over the standardized hull")
    p.add_argument("--measure", choices=[measure.value for measure in Measure], default="or")
    p.add_argument("--grid-oracle", nargs="?", type=float, const=GRID_RESOLUTION, dest="grid_resolution",
                   metavar="RESOLUTION", help="verify the optimizer against a brute-force weight grid "
                   "of spacing RESOLUTION (default %(const)g)")
    reports.append(p)
    # each report command prints its report as text or JSON (see main)
    for p in reports:
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = command("plot", cmd_plot, "emit an SVG diagram", needs_table=False)
    p.add_argument("figure", choices=sorted(FIGURES))
    p.add_argument("-o", "--output", default="-", help="output path, or - for stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a report command returns its JSON report and its text lines, the
        # lines computed as they are printed; plot writes its own SVG
        if out := args.func(args):
            report, lines = out
            for line in [json.dumps(report, indent=2)] if args.format == "json" else lines:
                print(line)
        sys.stdout.flush()  # so that a failed write is caught below
        return 0
    except BrokenPipeError:
        # the reader closed stdout (``| head``) and wants no more: exit
        # quietly, with stdout on devnull so that the interpreter's flush at
        # exit has somewhere to write what is left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except TableParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except ConvergenceError as e:
        print(f"convergence error: {e} (iterations: {e.iterations}, last log-likelihood: {e.loglik})", file=sys.stderr)
        return 4
    except DomainError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # writing stdout or the -o file
        print(f"output error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
