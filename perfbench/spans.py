"""Span recorder installed from the benchmark over majdyn's public functions.

A span is (name, start, end, parent, op).  Wrappers replace the module
attributes through which callers look functions up at call time: the CLI
calls ``harness.run_experiment`` and ``probkit.run_lemma_sweeps`` through
the module objects, the harness calls ``sample_gnp``, ``run``, ``census``
and the opinion samplers through names bound in its own namespace, and the
census calls ``majority_step`` through the name bound in ``opinions``.  The
benchmark's own ops call through ``graph``, ``dynamics`` and ``opinions``
module attributes, so the same wrappers see them.

Nothing inside ``src/`` is edited; uninstalling restores every attribute.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module name inside majdyn, attribute, span name).  An attribute may be
# the same function reached through another module; each site is wrapped
# so the span appears whichever path a caller takes.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "_run_trial", "harness.trial"),
    ("harness", "write_report", "harness.write_report"),
    ("harness", "sample_gnp", "graph.sample_gnp"),
    ("harness", "run", "dynamics.run"),
    ("harness", "census", "opinions.census"),
    ("harness", "sample_morning", "opinions.sample_morning"),
    ("harness", "apply_swing", "opinions.apply_swing"),
    ("opinions", "majority_step", "dynamics.majority_step"),
    ("probkit", "run_lemma_sweeps", "probkit.run_lemma_sweeps"),
    ("graph", "sample_gnp", "graph.sample_gnp"),
    ("graph", "save_graph", "graph.save_graph"),
    ("graph", "load_graph", "graph.load_graph"),
    ("dynamics", "run", "dynamics.run"),
    ("dynamics", "majority_step", "dynamics.majority_step"),
    ("opinions", "sample_uniform", "opinions.sample_uniform"),
)

# Work counts read off a span's arguments and result, at the boundary where
# the work happens.
_FACTS = {
    "graph.sample_gnp": lambda args, result: {"edges": result.edge_count, "n": args[0], "p": args[1]},
    "graph.save_graph": lambda args, result: {"bytes": os.path.getsize(args[1])},
    "dynamics.run": lambda args, result: {"days": len(result.days) - 1},
    "dynamics.majority_step": lambda args, result: {"n": args[0].n, "nnz": args[0].neighbors.size},
    "harness.write_report": lambda args, result: {"bytes": sum(os.path.getsize(p) for p in result)},
    "probkit.run_lemma_sweeps": lambda args, result: {"cases": sum(r.cases for r in result)},
}


class Recorder:
    """Keeps spans in memory; ``install`` wraps TARGETS, ``uninstall``
    restores them.  ``op`` tags every span with the op it belongs to."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        facts = _FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if facts is not None:
                span.extra.update(facts(args, result))
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"{self.package}.{mod_name}")
            original = getattr(module, attr)  # AttributeError: a target moved
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                     "op": s.op, **s.extra}
                    for s in self.spans
                ],
                fh,
            )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part covered by its direct children
    (children of one span never overlap: the program is single-threaded)."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def require(spans: list[Span], expected) -> None:
    """Fail loudly when an expected span recorded no call, so a refactor
    that changes an import path cannot silently drop a layer."""
    seen = {s.name for s in spans}
    missing = sorted(set(expected) - seen)
    if missing:
        raise RuntimeError(f"expected spans recorded zero calls: {', '.join(missing)}")


def sample_peak_mb(spans: list[Span], sample_gnp, seed: int) -> float:
    """tracemalloc peak, in MB, of one untimed ``sample_gnp`` call at the
    (n, p) of the first traced call.  Tracing allocations slows them, so it
    is kept out of every timed span.  0 when the workload never samples."""
    first = next((s for s in spans if s.name == "graph.sample_gnp"), None)
    if first is None:
        return 0.0
    gc.collect()
    tracemalloc.start()
    try:
        sample_gnp(first.extra["n"], first.extra["p"], seed)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# -- per-layer metrics ------------------------------------------------------

def _per_op(spans, ops, name, value=lambda s: s.duration) -> list[float]:
    """Per traced op, the sum of ``value`` over spans called ``name``."""
    totals = {op: 0.0 for op in ops}
    for s in spans:
        if s.name == name and s.op in totals:
            totals[s.op] += value(s)
    return list(totals.values())


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def step_bytes(n: int, nnz: int) -> int:
    """Bytes one matvec step moves, computed from array sizes: the int32
    CSR arrays (data, indices, indptr) read once, the int32 sign vector
    read once and the int32 sums written once.  Cache misses are ignored."""
    return 4 * nnz + 4 * nnz + 4 * (n + 1) + 4 * n + 4 * n


PER_LAYER = {
    # name: unit
    "setup.import_s": "s",
    "graph.sample_s": "s", "graph.sample_ns_per_edge": "ns", "graph.sample_peak_mb": "MB",
    "graph.edges": "count", "graph.save_s": "s", "graph.load_s": "s", "graph.dump_mb": "MB",
    "dynamics.step_s": "s", "dynamics.run_s": "s", "dynamics.days": "count",
    "dynamics.day_s": "s", "dynamics.step_mb_computed": "MB",
    "opinions.census_s": "s", "opinions.morning_s": "s", "opinions.swing_s": "s",
    "harness.experiment_s": "s", "harness.trial_s": "s", "harness.self_s": "s",
    "harness.report_s": "s", "harness.report_kb": "KB",
    "cli.self_s": "s",
    "probkit.sweeps_s": "s", "probkit.cases": "count", "probkit.case_us": "us",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], ops, import_s: float, overhead_s: float,
                  sample_peak_mb: float) -> dict[str, float]:
    """Per-layer values from the spans of the traced ops.  A ``*_s`` value
    is the median over ops of the seconds one op spent in that layer, except
    the per-call ``dynamics.step_s`` and ``harness.trial_s``; a layer the
    workload never calls reads 0."""
    selfs = self_times(spans)
    for s, t in zip(spans, selfs):
        s.extra["self"] = t

    def per_op(name, value=lambda s: s.duration):
        return _per_op(spans, ops, name, value)

    def fact(key):
        return lambda s: s.extra.get(key, 0)

    def self_time(s):
        return s.extra["self"]

    sample_s = per_op("graph.sample_gnp")
    edges = per_op("graph.sample_gnp", fact("edges"))
    run_s = per_op("dynamics.run")
    days = per_op("dynamics.run", fact("days"))
    sweeps_s = per_op("probkit.run_lemma_sweeps")
    cases = per_op("probkit.run_lemma_sweeps", fact("cases"))
    steps = [s for s in spans if s.name == "dynamics.majority_step"]
    return {
        "setup.import_s": import_s,
        "graph.sample_s": _median(sample_s),
        "graph.sample_ns_per_edge": _ratio(sum(sample_s), sum(edges), 1e9),
        "graph.sample_peak_mb": sample_peak_mb,
        "graph.edges": _median(edges),
        "graph.save_s": _median(per_op("graph.save_graph")),
        "graph.load_s": _median(per_op("graph.load_graph")),
        "graph.dump_mb": _median(per_op("graph.save_graph", fact("bytes"))) / 2**20,
        "dynamics.step_s": _median(s.duration for s in steps),
        "dynamics.run_s": _median(run_s),
        "dynamics.days": _median(days),
        "dynamics.day_s": _ratio(sum(run_s), sum(days)),
        "dynamics.step_mb_computed": _median(step_bytes(s.extra["n"], s.extra["nnz"]) for s in steps) / 2**20,
        "opinions.census_s": _median(per_op("opinions.census")),
        "opinions.morning_s": _median(per_op("opinions.sample_morning")),
        "opinions.swing_s": _median(per_op("opinions.apply_swing")),
        "harness.experiment_s": _median(per_op("harness.run_experiment")),
        "harness.trial_s": _median(s.duration for s in spans if s.name == "harness.trial"),
        "harness.self_s": _median(per_op("harness.run_experiment", self_time)),
        "harness.report_s": _median(per_op("harness.write_report")),
        "harness.report_kb": _median(per_op("harness.write_report", fact("bytes"))) / 1024,
        "cli.self_s": _median(per_op("cli.main", self_time)),
        "probkit.sweeps_s": _median(sweeps_s),
        "probkit.cases": _median(cases),
        "probkit.case_us": _ratio(sum(sweeps_s), sum(cases), 1e6),
        "trace.overhead_s": overhead_s,
    }
