"""Tracing from outside the program: spans and counts around the public
functions of rothman's modules, installed as module attributes.

Every binding of a wrapped function is replaced, in the module that
defines it and in every module that imported it by name, so a call made
by, say, ``lr_test_interaction`` to ``fit`` or by the extremizer to
``evaluate`` is seen with its caller as the enclosing span.  Functions
called in tight loops are counted, not timed, to keep the overhead down.
Nothing inside the program changes; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter, defaultdict

MODULES = ("tables", "measures", "standardize", "inference", "render", "cli")

# count-only targets: cheap functions called thousands of times per job
COUNTED = {
    "tables": {"risk", "exact_risk"},
    "measures": {
        "check_domain", "contour_y", "evaluate", "gradient", "in_domain",
        "is_straight", "is_straight_at", "null_value", "valid_x_interval",
    },
    "inference": {"chi2_sf", "link_for_measure", "measure_for_link"},
}
# private functions wrapped as well: the Newton solver is where the work is
PRIVATE = {"inference": {"_newton"}}


def _label(module: str, name: str, args, figure_of: dict) -> str:
    """Suffix that splits one function's spans by what the caller asked for."""
    if module == "inference" and name == "fit":
        spec = args[1]
        return f".{spec.link.value}.{'saturated' if spec.interaction else 'restricted'}"
    if module == "inference" and name in ("profile_ci", "profile_loglik", "lr_test_interaction"):
        return f".{args[1].value}"
    if module == "standardize" and name == "extremize_standardized":
        return ".k2" if len(args[0]) == 2 else (".kgt2" if len(args[0]) > 2 else ".k1")
    if module == "render" and name == "render_svg":
        return "." + figure_of.get(id(args[0]), "unknown")
    if module == "cli" and name == "main":
        return "." + args[0][0]
    return ""


class Tracer:
    """Spans ``[name, start_ns, end_ns, parent, root, job, ok]`` and counts
    ``(phase, name, enclosing span name) -> calls``, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.events: Counter = Counter()
        self.svg_bytes: dict[str, list[int]] = defaultdict(list)
        self.fit_keys: dict[int, list] = defaultdict(list)
        self.job = None
        self.phase = "job"
        self._origin: list[tuple[BaseException, str]] = []
        self._figure_of: dict[int, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"rothman.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("rothman")]
        for short, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(short, ()):
                    continue
                if name in COUNTED.get(short, ()):
                    wrapper = self._counter(f"{short}.{name}", fn)
                else:
                    wrapper = self._spanner(short, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        figures = mods["render"].FIGURES
        for key, fn in list(figures.items()):
            if isinstance(fn, types.FunctionType) and fn.__name__ != "<lambda>":
                self._restore.append((figures, key, fn))
                figures[key] = getattr(mods["render"], fn.__name__)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = fn
            else:
                setattr(target, attr, fn)
        self._restore.clear()

    def _enclosing(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else "none"

    def _counter(self, full: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.phase, full, self._enclosing())] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _spanner(self, short: str, name: str, fn):
        base = f"{short}.{name}"

        def wrapper(*args, **kwargs):
            full = base + _label(short, name, args, self._figure_of)
            parent = self.stack[-1] if self.stack else -1
            root = self.stack[0] if self.stack else -1
            idx = len(self.spans)
            span = [full, time.perf_counter_ns(), 0, parent, root, self.job, False]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not any(exc is seen for seen, _ in self._origin):
                    self._origin.append((exc, full))
                raise
            else:
                span[6] = True
                self._observe(short, name, args, result)
                return result
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, short: str, name: str, args, result) -> None:
        if short == "render" and name.startswith("figure_"):
            self._figure_of[id(result)] = name[len("figure_"):]
        if self.phase != "job":
            return
        if short == "inference" and name == "_newton":
            self.events["newton_iterations"] += result[3]
        elif short == "inference" and name == "fit":
            self.fit_keys[self.job].append((args[0], args[1]))
        elif short == "inference" and name == "profile_ci":
            self.events["profile_ci_truncated"] += int(result.lower_truncated) + int(result.upper_truncated)
        elif short == "render" and name == "render_svg":
            self.svg_bytes[self._figure_of.get(id(args[0]), "unknown")].append(len(result.encode()))

    # -- job scoping -------------------------------------------------------------

    def begin(self, job, phase: str = "job") -> None:
        """Open the root span of one job (phase "job") or of its checks."""
        self.job, self.phase = job, phase
        self._origin.clear()
        self._figure_of.clear()
        self.spans.append([phase, time.perf_counter_ns(), 0, -1, len(self.spans), job, True])
        self.stack = [len(self.spans) - 1]

    def end(self) -> None:
        self.spans[self.stack[0]][2] = time.perf_counter_ns()
        self.stack = []

    def escaped(self, exc: BaseException) -> None:
        """Record an exception that left the program, under the layer of the
        innermost wrapped function it passed through."""
        origin = next((name for seen, name in self._origin if seen is exc), "bench.none")
        self.events[("errors", origin.split(".")[0], type(exc).__name__)] += 1

    # -- derived numbers ------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the time covered by its children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own


def _mean_ms(durations: list[int]) -> float:
    return sum(durations) / len(durations) / 1e6 if durations else 0.0


def summarize(tr: Tracer, n_jobs: int) -> dict:
    """Per-layer metrics of a traced run: mean inclusive milliseconds per
    call of each timed function, work counts per job, and each layer's self
    time per job.  Spans under a job's checks count only where named so."""
    spans = tr.spans
    own = tr.self_times_ns()
    phase = [spans[s[4]][0] for s in spans]
    dur: dict[tuple[str, str], list[int]] = {}
    for i, s in enumerate(spans):
        if s[6] and s[3] >= 0:
            dur.setdefault((phase[i], s[0]), []).append(s[2] - s[1])
    job = {name: d for (ph, name), d in dur.items() if ph == "job"}
    m: dict[str, float] = {}

    def per_job(x: float) -> float:
        return x / n_jobs

    def calls(name, enclosing_prefix):
        return sum(n for (ph, f, enc), n in tr.counts.items()
                   if ph == "job" and f == name and enc.startswith(enclosing_prefix))

    def layer_of(i: int) -> str:
        return spans[i][0].split(".")[0]

    parse = job.get("tables.parse_table", [])
    m["tables.parse_table_ms"] = _mean_ms(parse)
    m["tables.parse_table_calls"] = per_job(len(parse))

    m["measures.evaluate_calls_from_standardize"] = per_job(calls("measures.evaluate", "standardize."))
    m["measures.gradient_calls_from_standardize"] = per_job(calls("measures.gradient", "standardize."))
    poly = job.get("measures.contour_polyline", [])
    m["measures.contour_polyline_ms"] = _mean_ms(poly)
    m["measures.contour_polyline_calls"] = per_job(len(poly))

    extremize = [n for n in job if n.startswith("standardize.extremize_standardized")]
    for tag in ("k2", "kgt2"):
        m[f"standardize.extremize_ms.{tag}"] = _mean_ms(job.get(f"standardize.extremize_standardized.{tag}", []))
    n_ext = sum(len(job[n]) for n in extremize)
    evals = calls("measures.evaluate", "standardize.extremize_standardized")
    m["standardize.evals_per_extremize"] = evals / n_ext if n_ext else 0.0
    m["standardize.collapsibility_verdict_ms"] = _mean_ms(job.get("standardize.collapsibility_verdict", []))
    geometry = ("standardize.is_confounded", "standardize.standardized_point", "standardize.standardized_hull")
    m["standardize.geometry_ms"] = per_job(sum(
        s[2] - s[1] for i, s in enumerate(spans)
        if phase[i] == "job" and s[0] in geometry and layer_of(s[3]) != "render"
    ) / 1e6)
    m["standardize.grid_extremize_ms"] = _mean_ms(dur.get(("check", "standardize.grid_extremize"), []))

    for name in sorted(job):
        if name.startswith("inference.fit."):
            m[f"inference.fit_ms.{name[len('inference.fit.'):]}"] = _mean_ms(job[name])
    m["inference.newton_iterations"] = per_job(tr.events["newton_iterations"])
    m["inference.fit_calls_per_job"] = per_job(sum(len(v) for v in tr.fit_keys.values()))
    m["inference.distinct_fits_per_job"] = per_job(sum(len(set(v)) for v in tr.fit_keys.values()))
    m["inference.lr_test_ms"] = _mean_ms([d for n, v in job.items() if n.startswith("inference.lr_test") for d in v])
    cis = {i for i, s in enumerate(spans) if phase[i] == "job" and s[6] and s[0].startswith("inference.profile_ci.")}
    for name in sorted(job):
        if name.startswith("inference.profile_ci."):
            m[f"inference.profile_ci_ms.{name.rsplit('.', 1)[1]}"] = _mean_ms(job[name])
    loglik = sum(1 for s in spans if s[3] in cis and s[0].startswith("inference.profile_loglik"))
    m["inference.profile_loglik_calls_per_ci"] = loglik / len(cis) if cis else 0.0
    m["inference.profile_ci_truncated"] = tr.events["profile_ci_truncated"]
    errors = {k: v for k, v in tr.events.items() if isinstance(k, tuple) and k[0] == "errors"}
    m["inference.errors"] = sum(v for k, v in errors.items() if k[1] == "inference")
    for (_, layer, exc), v in sorted(errors.items()):
        m[f"{layer}.errors.{exc}"] = v

    for name in sorted(job):
        if name.startswith("render.figure_"):
            m[f"render.figure_spec_ms.{name[len('render.figure_'):]}"] = _mean_ms(job[name])
        elif name.startswith("render.render_svg."):
            m[f"render.render_svg_ms.{name[len('render.render_svg.'):]}"] = _mean_ms(job[name])
    m["render.fit_calls"] = per_job(sum(
        1 for i, s in enumerate(spans)
        if phase[i] == "job" and s[0].startswith("inference.fit.") and layer_of(s[3]) == "render"
    ))
    for figure in ("modification", "modconf", "collapsible", "noncollapsible", "hull"):
        sizes = tr.svg_bytes.get(figure, [])
        m[f"render.svg_bytes.{figure}"] = sum(sizes) / len(sizes) if sizes else 0.0

    for name in sorted(job):
        if name.startswith("cli.main."):
            m[f"cli.subcommand_ms.{name[len('cli.main.'):]}"] = _mean_ms(job[name])
    for layer in MODULES + ("job",):
        m[f"{layer}.self_ms_per_job"] = per_job(sum(
            own[i] for i, s in enumerate(spans) if phase[i] == "job" and layer_of(i) == layer
        ) / 1e6)
    return m
