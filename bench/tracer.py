"""In-memory span recorder for the traced benchmark runs.

A span records a name, its start and end on the system-wide monotonic
clock (so spans from the runner and its child processes line up), the id
of the span that caused it and the run id shared by every process of one
traced run. Counters are read at the same boundaries and stored on the
span as deltas. Spans stay in memory until `dump` writes them out.

`install` wraps curvelab's public entry points by replacing module and
class attributes at run time; nothing inside the package is changed, and
untraced runs never import this module.
"""

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Tracer:
    def __init__(self, run_id: str, prefix: str, parent: str = None):
        self.run_id = run_id
        self.prefix = prefix
        self.spans = []
        self.counters = {}
        self._stack = [parent] if parent else []
        self._next = 0

    def add(self, counter: str, n: int = 1):
        self.counters[counter] = self.counters.get(counter, 0) + n

    def reserve(self) -> str:
        """A fresh span id; callers may take one before recording the span
        so that child processes can name it as their parent."""
        self._next += 1
        return f"{self.prefix}.{self._next}"

    def record(self, name, start, end, parent=None, span_id=None, **attrs) -> str:
        """Store a finished span (parent: the innermost open span unless
        given); returns its id."""
        span_id = span_id or self.reserve()
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end, "parent": parent,
            "run": self.run_id, "counters": {}, "attrs": attrs,
        })
        return span_id

    @contextmanager
    def span(self, name):
        span_id, start = self.reserve(), clock()
        before = dict(self.counters)
        attrs = {}
        self._stack.append(span_id)
        try:
            yield
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            self.record(name, start, clock(), span_id=span_id, **attrs)
            self.spans[-1]["counters"] = {
                k: v - before.get(k, 0)
                for k, v in self.counters.items()
                if v != before.get(k, 0)
            }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# wrapping curvelab's public entry points


def _install(owner, attr, wrapper):
    """Replace owner.attr by wrapper. For a module, every curvelab module
    attribute bound to the original changes too: cli.py and fitter.py
    import names directly, so patching the defining module alone would
    miss their calls."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("curvelab") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _span(tracer, owner, attr, name, before=None, after=None):
    """Record a span per call; `after(args, result, before(args))` may add
    counters at the same boundary."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            snapshot = before(args) if before else None
            result = original(*args, **kwargs)
            if after:
                after(args, result, snapshot)
            return result

    _install(owner, attr, wrapper)


def _count(tracer, owner, attr, counter, amount=lambda args: 1):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.add(counter, amount(args))
        return original(*args, **kwargs)

    _install(owner, attr, wrapper)


def install(tracer):
    """Wrap the public calls a workload makes; call once per process."""
    from curvelab import catalog, fitter, jets, oracles, series, severi

    def memo_counts(args):
        store = args[0].store
        return store.computed, store.hits

    def memo_delta(args, result, before):
        store = args[0].store
        tracer.add("severi.states_computed", store.computed - before[0])
        tracer.add("severi.memo_hits", store.hits - before[1])

    def table_size(args):
        return len(args[0].table)

    def cache_file(saving):
        def after(args, result, size_before):
            store, path = args[0], args[1]
            tracer.add("severi.cache_bytes", os.path.getsize(path))
            tracer.add("severi.cache_lines",
                       len(store.table) - (0 if saving else size_before))
        return after

    def series_size(args, result, before):
        tracer.add("series.coeffs", len(result.coeffs))

    _span(tracer, catalog, "load_catalog", "catalog.load_catalog")
    _span(tracer, jets, "germ_report", "jets.germ_report")
    _count(tracer, jets, "ideal_in_jets", "jets.ideal_builds")
    _count(tracer, jets.JetSubspace, "insert", "jets.rows_inserted")
    for method in ("severi_p2", "severi_quadric"):
        _span(tracer, severi.SeveriEngine, method, f"severi.{method}", memo_counts, memo_delta)
    _span(tracer, severi.MemoStore, "load", "severi.cache_load", table_size, cache_file(False))
    _span(tracer, severi.MemoStore, "save", "severi.cache_save", table_size, cache_file(True))
    _span(tracer, fitter, "fit_nodes", "fitter.fit_nodes")
    _span(tracer, fitter, "threshold_scan", "fitter.threshold_scan")
    _span(tracer, series, "assemble_series", "series.assemble_series", after=series_size)
    _span(tracer, series, "exp_series", "series.exp_series")
    _span(tracer, series, "log_series", "series.log_series")
    _span(tracer, oracles, "floor_diagram_oracle", "oracles.floor_diagram_oracle")
    _span(tracer, oracles, "pencil_discriminant_oracle", "oracles.pencil_discriminant_oracle")
    # Private helpers give two counters the public API does not expose.
    tracer.counters.update({"catalog.entries_validated": 0, "fitter.equations": 0})
    _count(tracer, catalog, "_validate", "catalog.entries_validated")
    _count(tracer, fitter, "_solve_linear4", "fitter.equations", lambda args: len(args[0]))


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def descendants(spans, root_id) -> list:
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out, todo = [], [root_id]
    while todo:
        for s in by_parent.get(todo.pop(), ()):
            out.append(s)
            todo.append(s["id"])
    return out
