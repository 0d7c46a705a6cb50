"""In-memory span tracing around calls into pamber's modules.

The traced run replaces selected module attributes with wrappers that
record a span per call: name, start, end, parent span and the benchmark
operation it belongs to.  Wrappers are installed only for the traced
pass and restored afterwards.  A target that a later version of pamber
no longer has is skipped, so removing a call site never breaks tracing;
the skipped targets are reported.

A layer is the part of a span name before the first dot.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, NamedTuple

import benchstats


class Span(NamedTuple):
    sid: int
    parent: int
    op: int
    name: str
    start_ns: int
    end_ns: int
    ok: bool
    tag: object

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def _pattern_key(args, kwargs, result):
    pattern = args[0] if args else kwargs.get("pattern")
    return getattr(pattern, "index", pattern)


def _demod_arg(args, kwargs, result):
    demod = args[3] if len(args) > 3 else kwargs.get("demod", "abd")
    return str(demod).lower()


def _sample_count(args, kwargs, result):
    y = args[0] if args else kwargs.get("y")
    size = getattr(y, "size", None)
    return int(size) if size is not None else 1


def _bool_result(args, kwargs, result):
    return bool(result)


def _m_points(args, kwargs, result):
    return args[0] if args else kwargs.get("m_points")


def _sim_plan(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    return (config.demodulator, config.trials * len(config.snr_db_grid))


# (module, attribute, span name, tag function).  Several entries share a
# span name when one function is bound in more than one module, so calls
# across a layer boundary are caught whichever name the caller uses.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("pamber.constellation", "Labeling.__post_init__", "constellation.labeling_build", None),
    ("pamber.labeling_space", "labeling_census", "labeling_space.census", None),
    ("pamber.labeling_space", "is_bijective_set", "labeling_space.is_bijective_set", _bool_result),
    ("pamber.labeling_space", "labeling_coefficients", "analytic.labeling_coefficients", None),
    ("pamber.analytic", "labeling_coefficients", "analytic.labeling_coefficients", None),
    ("pamber.analytic", "pattern_coefficients", "analytic.pattern_coefficients", _pattern_key),
    ("pamber.pattern_classes", "pattern_coefficients", "analytic.pattern_coefficients", _pattern_key),
    ("pamber.pattern_classes", "enumerate_classes", "pattern_classes.enumerate_classes", _m_points),
    ("pamber.analytic", "pber_general", "analytic.pber_general", None),
    ("pamber.analytic", "labeling_ber", "analytic.labeling_ber", _demod_arg),
    ("pamber.analytic", "bd_thresholds", "thresholds.bd", None),
    ("pamber.thresholds", "bd_thresholds", "thresholds.bd", None),
    ("pamber.thresholds", "pattern_exact_llr", "demod.pattern_exact_llr", _sample_count),
    ("pamber.demod", "pattern_exact_llr", "demod.pattern_exact_llr", _sample_count),
    ("pamber.montecarlo", "simulate", "montecarlo.simulate", _sim_plan),
    # montecarlo reaches demod through its private kernels today, and
    # through the public per-labeling kernels once it calls those directly.
    ("pamber.montecarlo", "_exact_from_splits", "demod.exact_kernel", None),
    ("pamber.montecarlo", "_maxlog_from_splits", "demod.maxlog_kernel", None),
    ("pamber.montecarlo", "exact_llr", "demod.exact_llr", None),
    ("pamber.montecarlo", "maxlog_llr", "demod.maxlog_llr", None),
    ("pamber.montecarlo", "sd_decide", "demod.sd_decide", None),
)

# Generators are counted per item instead of spanned: a span around the
# call would close before any work is done.
COUNTED_GENERATORS = (
    ("pamber.pattern_classes", "pattern_indices", "pattern_classes.patterns_visited"),
)

LAYERS = (
    "constellation",
    "demod",
    "thresholds",
    "analytic",
    "pattern_classes",
    "labeling_space",
    "montecarlo",
)


class Tracer:
    """Collects spans and per-key counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.installed: list[str] = []
        self.skipped: list[str] = []

    def wrap(self, name: str, func, tag=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = perf_counter_ns()
            ok = False
            result = None
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                label = tag(args, kwargs, result) if (tag and ok) else None
                tracer.spans[sid] = Span(sid, parent, tracer.op, name, start, end, ok, label)

        return traced

    def count_items(self, counter: str, func):
        tracer = self

        @functools.wraps(func)
        def counted(*args, **kwargs):
            key = f"{counter}.M{_m_points(args, kwargs, None)}"
            for item in func(*args, **kwargs):
                tracer.counters[key] += 1
                yield item

        return counted

    def _patch(self, module_name: str, attr_path: str, make) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            owner = None
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.skipped.append(f"{module_name}.{attr_path}")
            return
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))
        self.installed.append(f"{module_name}.{attr_path}")

    def install(self) -> None:
        for module_name, attr_path, name, tag in TARGETS:
            self._patch(module_name, attr_path,
                        lambda f, n=name, t=tag: self.wrap(n, f, t))
        for module_name, attr_path, counter in COUNTED_GENERATORS:
            self._patch(module_name, attr_path,
                        lambda f, c=counter: self.count_items(c, f))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid,parent,op,name,start_ns,end_ns,ok,tag\n")
            for s in self.finished():
                tag = "" if s.tag is None else str(s.tag).replace(",", ";")
                fh.write(f"{s.sid},{s.parent},{s.op},{s.name},{s.start_ns},"
                         f"{s.end_ns},{int(s.ok)},{tag}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span in seconds, indexed like ``spans``."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns
    return [(s.end_ns - s.start_ns - child_ns[s.sid]) * 1e-9 for s in spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, mc_warnings: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A layer or call the pass did not exercise reads 0, and so does a
    percentile with too few samples under the percentile rule.
    """
    spans = tracer.finished()
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def durations(name, pred=None):
        return [spans[i].seconds for i in by_name[name] if pred is None or pred(spans[i])]

    def self_sum(name):
        return sum(selfs[i] for i in by_name[name])

    def pct(values, q, scale):
        if q == 0.5:
            return benchstats.median_or_zero(values) * scale
        value = benchstats.percentile(values, q)
        return 0.0 if value is None else value * scale

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            selfs[i] for i, s in enumerate(spans) if s.name.split(".", 1)[0] == layer
        )

    m16 = durations("pattern_classes.enumerate_classes", lambda s: s.tag == 16)
    out["pattern_classes.enumerate_s.M16"] = sum(m16)
    out["pattern_classes.patterns_visited.M16"] = tracer.counters.get(
        "pattern_classes.patterns_visited.M16", 0)

    coeff = [spans[i] for i in by_name["analytic.pattern_coefficients"]]
    distinct = len({s.tag for s in coeff if s.ok})
    out["analytic.pattern_coefficients.calls"] = len(coeff)
    out["analytic.pattern_coefficients.distinct"] = distinct
    out["analytic.pattern_coefficients.useful_ratio"] = _ratio(distinct, len(coeff))
    out["analytic.pattern_coefficients.self_s"] = self_sum("analytic.pattern_coefficients")

    bij = [spans[i] for i in by_name["labeling_space.is_bijective_set"]]
    accepted = sum(1 for s in bij if s.tag)
    out["labeling_space.candidates"] = len(bij)
    out["labeling_space.accepted"] = accepted
    out["labeling_space.accept_ratio"] = _ratio(accepted, len(bij))
    out["labeling_space.census.self_s"] = self_sum("labeling_space.census")

    builds = durations("constellation.labeling_build")
    out["constellation.labeling_build.calls"] = len(builds)
    out["constellation.labeling_build.us"] = _ratio(sum(builds), len(builds)) * 1e6

    bd_idx = by_name["thresholds.bd"]
    bd = [spans[i].seconds for i in bd_idx]
    out["thresholds.bd.calls"] = len(bd)
    out["thresholds.bd.failed"] = sum(1 for i in bd_idx if not spans[i].ok)
    out["thresholds.bd.multi_crossing_warnings"] = mc_warnings
    out["thresholds.bd.ms_p50"] = pct(bd, 0.5, 1e3)
    out["thresholds.bd.ms_p90"] = pct(bd, 0.9, 1e3)
    out["thresholds.bd.self_s"] = self_sum("thresholds.bd")

    bd_set = set(bd_idx)
    llr = [spans[i] for i in by_name["demod.pattern_exact_llr"]]
    from_solver = [s for s in llr if s.parent in bd_set]
    out["thresholds.llr_calls"] = len(from_solver)
    out["thresholds.llr_samples"] = sum(s.tag or 0 for s in from_solver)
    out["demod.pattern_exact_llr.us_per_call"] = (
        _ratio(sum(s.seconds for s in llr), len(llr)) * 1e6)

    out["analytic.pber_general.us_p50"] = pct(durations("analytic.pber_general"), 0.5, 1e6)
    out["analytic.labeling_ber_abd.us_p50"] = pct(
        durations("analytic.labeling_ber", lambda s: s.tag in ("abd", "sd")), 0.5, 1e6)

    for demod in ("sd", "abd", "bd"):
        sims = [spans[i] for i in by_name["montecarlo.simulate"]
                if spans[i].ok and spans[i].tag[0] == demod]
        symbols = sum(s.tag[1] for s in sims)
        out[f"montecarlo.simulate.ns_per_sym.{demod}"] = (
            _ratio(sum(s.seconds for s in sims), symbols) * 1e9)
    return {k: (float(v) if math.isfinite(v) else 0.0) for k, v in out.items()}


_RATIOS = {
    "analytic.pattern_coefficients.useful_ratio": (
        "analytic.pattern_coefficients.distinct", "analytic.pattern_coefficients.calls"),
    "labeling_space.accept_ratio": ("labeling_space.accepted", "labeling_space.candidates"),
}
_PER_CALL = ("_p50", "_p90", ".us", "_per_call", "ns_per_sym")


def merge_layer_metrics(parts: list[dict[str, float]]) -> dict[str, float]:
    """Combine the layer metrics of the tasks of one pass.

    Counts and times add up; ratios are recomputed from the summed
    counts; per-call figures come from the task that exercised the call
    (at most one task of a pass does).
    """
    out: dict[str, float] = {}
    for key in parts[0]:
        values = [p[key] for p in parts]
        per_call = any(marker in key for marker in _PER_CALL)
        out[key] = max(values) if per_call else sum(values)
    for key, (num, den) in _RATIOS.items():
        out[key] = _ratio(out[num], out[den])
    return out
