"""Spans around the library's public functions, recorded from outside the library.

The library modules import each other's functions by name (`from .lattice
import norm`), so a call is intercepted by replacing the attribute the
caller looks up, e.g. `k3m20.representability.norm` rather than
`k3m20.lattice.norm`.  A target that a later version of the library no
longer has is skipped, and its layer then reads zero.

Spans are kept in memory as [name, parent index, start ns, end ns, ns spent
in aggregated children] and written out at the end.  Per-vector calls
(`norm`) are too many for one span each: they are counted and timed in
total, and their time is charged to the enclosing span so that its self
time excludes them.  Process-pool workers inherit the wrappers by fork but
are not traced: the pool's work shows as one `classify_range` span.
"""

from __future__ import annotations

import functools
import importlib
import os
from contextlib import contextmanager
from time import perf_counter_ns

# layer name -> the (module, attribute) pairs its callers look it up by
SPANNED = {
    "polarizations.classify_range": [("k3m20.cli", "classify_range")],
    "polarizations.classify": [("k3m20.cli", "classify"), ("k3m20.polarizations", "classify")],
    "polarizations.model_verdict": [("k3m20.cli", "model_verdict")],
    "representability.enumerate_solutions": [("k3m20.polarizations", "enumerate_solutions")],
    "kernels.solutions_array": [("k3m20.kernels", "solutions_array")],
    "isometries.orbit": [("k3m20.polarizations", "orbit")],
    "lattice.divisibility": [("k3m20.polarizations", "divisibility")],
    "lattice.orthogonal_complement": [("k3m20.polarizations", "orthogonal_complement")],
    "binary_forms.from_gram": [("k3m20.polarizations", "from_gram")],
    "binary_forms.canonical": [("k3m20.polarizations", "canonical")],
    "polarizations.index_from": [("k3m20.polarizations", "index_from")],
    "polarizations.div_feasible": [("k3m20.polarizations", "div_feasible")],
}
AGGREGATED = {
    "lattice.norm": [("k3m20.representability", "norm")],
}
# counters read off a layer's return value
RESULT_COUNTS = {
    "representability.enumerate_solutions": ("representability.vectors", len),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregated = {name: [0, 0] for name in AGGREGATED}  # name -> [calls, ns]
        self.counts = {counter: 0 for counter, _ in RESULT_COUNTS.values()}
        self.enabled = False
        self._originals: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, perf_counter_ns(), 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter_ns()
        self.stack.pop()

    def _spanned(self, name: str, fn):
        counter, measure = RESULT_COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter:
                self.counts[counter] += measure(result)
            return result

        return wrapper

    def _aggregate(self, name: str, fn):
        acc = self.aggregated[name]
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            if not self.enabled:
                return fn(*args)
            t0 = perf_counter_ns()
            result = fn(*args)
            dt = perf_counter_ns() - t0
            acc[0] += 1
            acc[1] += dt
            if stack:
                spans[stack[-1]][4] += dt
            return result

        return wrapper

    def install(self) -> None:
        for targets, make in ((SPANNED, self._spanned), (AGGREGATED, self._aggregate)):
            for name, sites in targets.items():
                wrapped = {}  # one wrapper per original function
                for modname, attr in sites:
                    module = importlib.import_module(modname)
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = make(name, fn)
                    self._originals.append((module, attr, fn))
                    setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def snapshot(self) -> tuple[int, dict, dict]:
        """Position to summarise from later: (span count, aggregates, counters)."""
        return len(self.spans), {k: v[:] for k, v in self.aggregated.items()}, dict(self.counts)

    def summary(self, since: tuple[int, dict, dict]) -> dict:
        """Calls, total and self seconds per layer for the spans after `since`."""
        first, agg0, counts0 = since
        spans = self.spans
        child_ns = [0] * (len(spans) - first)
        for rec in spans[first:]:
            if rec[1] >= first:
                child_ns[rec[1] - first] += rec[3] - rec[2]
        out: dict[str, float] = {}
        for i, (name, _, start, end, agg_ns) in enumerate(spans[first:]):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start) / 1e9
            self_ns = end - start - child_ns[i] - agg_ns
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_ns / 1e9
        for name, (calls, ns) in self.aggregated.items():
            out[name + ".calls"] = calls - agg0[name][0]
            out[name + ".s"] = (ns - agg0[name][1]) / 1e9
        for counter, value in self.counts.items():
            out[counter] = value - counts0[counter]
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "parent", "start_ns", "end_ns", "aggregated_child_ns"],
            "spans": self.spans,
            "aggregated": {k: {"calls": c, "ns": ns} for k, (c, ns) in self.aggregated.items()},
            "counts": self.counts,
        }

