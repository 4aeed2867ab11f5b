"""Span tracing from outside the program.

During a traced repetition the benchmark replaces the module attributes
through which one mospa module calls another (for example
`mospa.estimation.point_cost_matrix`) with thin wrappers that record a span:
name, start, end, parent span and operation id.  Spans stay in memory and are
reduced to per-layer metrics when the repetition ends; nothing inside `src/`
changes.  A layer's self time is its span minus its direct children, so the
self times of one operation sum to the duration of its root span.

Private helpers (the transportation simplex, the alignment pass) are not
wrapped: their time shows as self time of the public caller.

tracemalloc slows allocation-heavy code several times over, so peak bytes
come from a separate memory repetition (`Tracer(memory=True)`) and the
per-layer times from repetitions traced without it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


# Spans that also record their tracemalloc peak (bytes above the traced
# memory at entry).  Nested peak windows are kept correct by folding the
# running peak into every open window before each reset.
_PEAK_SPANS = ("cli.run", "transport.solve")


def _cost_info(args, kwargs, result):
    rows, k = result.shape
    return {"rows": rows, "k": k, "dim": int(args[0].shape[1])}


def _assignment_name(args, kwargs):
    return "assignment.map" if kwargs.get("want_mappings", True) else "assignment.cost"


def _drawn(args, kwargs, result):
    return {"samples": len(result)}


def _samples_in(args, kwargs, result):
    # the first argument is the sample set or its (m, dim) points
    return {"samples": len(args[0])}


def _mmospa_info(args, kwargs, result):
    return {"samples": len(args[0]), "restarts": int(result.restarts_used)}


# (module, attribute, span name or naming function, info extractor)
WRAPS = (
    ("mospa.cli", "parse_scenario", "scenarios.parse", None),
    ("mospa.cli", "scenario_digest", "scenarios.digest", None),
    ("mospa.cli", "gm_sample", "measures.gm_sample", _drawn),
    ("mospa.transport", "gm_sample", "measures.gm_sample", _drawn),
    ("mospa.cli", "estimate_region_masses", "measures.region_masses", _samples_in),
    ("mospa.transport", "estimate_region_masses", "measures.region_masses", _samples_in),
    ("mospa.cli", "batch_optimal_permutations", _assignment_name, _samples_in),
    ("mospa.metrics", "batch_optimal_permutations", _assignment_name, _samples_in),
    ("mospa.estimation", "batch_optimal_permutations", _assignment_name, _samples_in),
    ("mospa.measures", "batch_region_ranks", "metrics.region_ranks", _samples_in),
    ("mospa.geometry", "batch_region_ranks", "metrics.region_ranks", _samples_in),
    ("mospa.cli", "mospa_mc", "estimation.mospa_mc", _samples_in),
    ("mospa.transport", "mospa_mc", "estimation.mospa_mc", _samples_in),
    ("mospa.cli", "mmospa_estimate", "estimation.mmospa", _mmospa_info),
    ("mospa.estimation", "point_cost_matrix", "quadform.point_cost_matrix", _cost_info),
    ("mospa.transport", "point_cost_matrix", "quadform.point_cost_matrix", _cost_info),
    ("mospa.geometry", "point_cost_matrix", "quadform.point_cost_matrix", _cost_info),
    ("mospa.cli", "verify_mospa_wasserstein", "transport.verify", None),
    ("mospa.transport", "solve_transport", "transport.solve", None),
    ("mospa.cli", "cells_match_regions", "geometry.cells_match", None),
    ("mospa.geometry", "power_costs", "geometry.power_costs", None),
)


class Tracer:
    """Collects spans while installed; `install`/`uninstall` bracket one repetition.

    With memory=True it also runs tracemalloc and records peak bytes for the
    spans named in _PEAK_SPANS.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._peaks: dict[int, list[int]] = {}  # span index -> [entry bytes, max peak]
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0

    # -- span bookkeeping -------------------------------------------------
    def _fold_peak(self):
        _, peak = tracemalloc.get_traced_memory()
        for window in self._peaks.values():
            window[1] = max(window[1], peak)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        if self.memory and name in _PEAK_SPANS:
            self._fold_peak()
            current, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            self._peaks[idx] = [current, current]
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, info: dict | None = None) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration
        if idx in self._peaks:
            self._fold_peak()
            entry, peak = self._peaks.pop(idx)
            span.info["peak_bytes"] = peak - entry
        if info:
            span.info.update(info)
        return span

    # -- attribute wrapping -----------------------------------------------
    def _wrapper(self, fn, name, info_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = self.open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, info_fn(args, kwargs, result)
                           if info_fn is not None and result is not None else None)
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        if self.memory:
            tracemalloc.start()
        for mod_name, attr, name, info_fn in WRAPS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrapper(original, name, info_fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        if self.memory:
            tracemalloc.stop()


# Per-layer metrics reported by a traced run: name -> unit.  Times are busy
# seconds per repetition of the workload's operation list; counts and bytes
# are per repetition and repeat exactly for a fixed seed.
LAYER_METRICS = {
    "measures.gm_sample.s": "s",
    "measures.gm_sample.us_per_sample": "us",
    "measures.region_masses.s": "s",
    "quadform.point_cost_matrix.calls": "count",
    "quadform.point_cost_matrix.s": "s",
    "quadform.point_cost_matrix.computed_bytes": "B",
    "assignment.map.samples": "count",
    "assignment.map.s": "s",
    "assignment.map.us_per_sample": "us",
    "assignment.cost.samples": "count",
    "assignment.cost.s": "s",
    "assignment.cost.us_per_sample": "us",
    "metrics.region_ranks.self_s": "s",
    "estimation.mospa_mc.s": "s",
    "estimation.mmospa.s": "s",
    "estimation.mmospa.self_s": "s",
    "estimation.mmospa.passes": "count",
    "estimation.mmospa.restarts": "count",
    "estimation.mmospa.us_per_sample_pass": "us",
    "transport.solve.s": "s",
    "transport.self_s": "s",
    "transport.sources": "count",
    "transport.sinks": "count",
    "transport.computed_cost_bytes": "B",
    "transport.peak_bytes": "B",
    "geometry.cells_match.s": "s",
    "geometry.self_s": "s",
    "geometry.power_costs.s": "s",
    "scenarios.parse.s": "s",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "op.peak_traced_bytes": "B",
    "trace.overhead_frac": "ratio",
}

# Metrics that must repeat exactly for a fixed seed and commit.  Peak bytes
# from tracemalloc move by a few kB between repetitions.
EXACT = {name for name, unit in LAYER_METRICS.items() if unit == "count"} | {
    "quadform.point_cost_matrix.computed_bytes",
    "transport.computed_cost_bytes",
    "cli.output_bytes",
}


def _per_unit(seconds, units):
    return seconds / units * 1e6 if units else 0.0


def peak_values(spans: list[Span]) -> dict[str, int]:
    """Peak-bytes metrics of one memory repetition."""
    def peak(name):
        return max((s.info.get("peak_bytes", 0) for s in spans if s.name == name), default=0)

    return {"transport.peak_bytes": peak("transport.solve"),
            "op.peak_traced_bytes": peak("cli.run")}


def layer_values(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, except the peak bytes of
    peak_values and trace.overhead_frac."""
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    samples: dict[str, int] = {}
    for s in spans:
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        layer = s.name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + s.self_s
        samples[s.name] = samples.get(s.name, 0) + s.info.get("samples", 0)

    kernel = [s for s in spans if s.name == "quadform.point_cost_matrix"]
    transport_cost = [s for s in kernel
                      if spans[s.parent].name.startswith("transport.")]
    mmospa_rows = sum(s.info["rows"] for s in kernel
                      if spans[s.parent].name == "estimation.mmospa")
    mmospa_samples = samples.get("estimation.mmospa", 0)
    passes = mmospa_rows // mmospa_samples if mmospa_samples else 0

    return {
        "measures.gm_sample.s": dur.get("measures.gm_sample", 0.0),
        "measures.gm_sample.us_per_sample": _per_unit(
            dur.get("measures.gm_sample", 0.0), samples.get("measures.gm_sample", 0)),
        "measures.region_masses.s": dur.get("measures.region_masses", 0.0),
        "quadform.point_cost_matrix.calls": len(kernel),
        "quadform.point_cost_matrix.s": dur.get("quadform.point_cost_matrix", 0.0),
        "quadform.point_cost_matrix.computed_bytes": sum(
            s.info["rows"] * s.info["k"] * s.info["dim"] * 8 for s in kernel),
        "assignment.map.samples": samples.get("assignment.map", 0),
        "assignment.map.s": dur.get("assignment.map", 0.0),
        "assignment.map.us_per_sample": _per_unit(
            dur.get("assignment.map", 0.0), samples.get("assignment.map", 0)),
        "assignment.cost.samples": samples.get("assignment.cost", 0),
        "assignment.cost.s": dur.get("assignment.cost", 0.0),
        "assignment.cost.us_per_sample": _per_unit(
            dur.get("assignment.cost", 0.0), samples.get("assignment.cost", 0)),
        "metrics.region_ranks.self_s": self_s.get("metrics.region_ranks", 0.0),
        "estimation.mospa_mc.s": dur.get("estimation.mospa_mc", 0.0),
        "estimation.mmospa.s": dur.get("estimation.mmospa", 0.0),
        "estimation.mmospa.self_s": self_s.get("estimation.mmospa", 0.0),
        "estimation.mmospa.passes": passes,
        "estimation.mmospa.restarts": sum(s.info.get("restarts", 0) for s in spans
                                          if s.name == "estimation.mmospa"),
        "estimation.mmospa.us_per_sample_pass": _per_unit(
            dur.get("estimation.mmospa", 0.0), passes * mmospa_samples),
        "transport.solve.s": dur.get("transport.solve", 0.0),
        "transport.self_s": self_s.get("transport", 0.0),
        "transport.sources": sum(s.info["rows"] for s in transport_cost),
        "transport.sinks": sum(s.info["k"] for s in transport_cost),
        "transport.computed_cost_bytes": sum(s.info["rows"] * s.info["k"] * 8
                                             for s in transport_cost),
        "geometry.cells_match.s": dur.get("geometry.cells_match", 0.0),
        "geometry.self_s": self_s.get("geometry", 0.0),
        "geometry.power_costs.s": dur.get("geometry.power_costs", 0.0),
        "scenarios.parse.s": dur.get("scenarios.parse", 0.0),
        "cli.run.s": dur.get("cli.run", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.output_bytes": output_bytes,
    }


def combine(reps: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each measured value over traced repetitions, exact counts
    from the first; also returns whether every exact count repeated."""
    out = {}
    repeat = True
    for name in reps[0]:
        values = [r[name] for r in reps]
        if name in EXACT:
            out[name] = values[0]
            repeat &= all(v == values[0] for v in values)
        else:
            out[name] = statistics.median(values)
    return out, repeat
