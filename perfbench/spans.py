"""In-memory span tracing of tokzip's public functions, and per-layer metrics.

The tracer wraps each traced function at every place it is looked up: the
modules import names directly (``from .density import compute_density``), so
``tokzip.pipeline.compute_density`` is replaced as well as
``tokzip.density.compute_density``. Nothing in ``src/`` is edited; the
originals are put back when tracing ends.
"""

import functools
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict, namedtuple

import numpy as np

# module -> public functions timed from outside.  `errors` does no work.
TRACED = {
    "tensorfile": ("read_tensor", "write_tensor"),
    "bundle_io": ("load_bundle", "write_results", "load_results"),
    "core": ("similarity_matrix", "normalize_rows", "check_attention_vector"),
    "density": ("compute_density",),
    "selection": ("select_tokens", "global_select", "local_select", "merge_indices"),
    "aggregation": ("aggregate",),
    "pipeline": ("compress_subimage", "compress_document"),
    "harness": ("baseline_select",),
    "masks": ("render_masks", "write_pgm"),
    "cli": ("main",),
}

# Spans whose tracemalloc peak is taken in the memory probe.
MEMORY_SPANS = ("density.compute_density", "aggregation.aggregate")

MIB = float(1 << 20)

Span = namedtuple("Span", "sid name start end parent doc counts")


def _counts(name, args, result):
    """Work done by one call, recorded where the call happens."""
    if name == "tensorfile.read_tensor":
        return {"bytes": result.nbytes}
    if name == "tensorfile.write_tensor":
        return {"bytes": np.asarray(args[1]).size * 4}
    if name == "core.similarity_matrix":
        return {"entries": result.size}
    if name == "selection.local_select":
        return {"draws": len(result)}
    if name == "aggregation.aggregate":
        return {"rows": result.shape[0], "n": np.shape(args[0])[0]}
    if name == "masks.write_pgm":
        return {"bytes": os.path.getsize(args[0])}
    return None


class Tracer:
    """Records one span per call of a traced function while installed.

    `doc` is set by the caller before each document; with memory=True the
    MEMORY_SPANS also record their tracemalloc peak (slow: probe use only).
    """

    def __init__(self, memory=False):
        self.spans = []
        self.doc = None
        self.memory = memory
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        measure_memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled in on return
            self._stack.append(sid)
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                peak = None
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans[sid] = Span(sid, name, start, end, parent, self.doc, None)
            counts = _counts(name, args, result)
            if peak is not None:
                counts = dict(counts or {}, peak_bytes=peak)
            if counts:
                self.spans[sid] = self.spans[sid]._replace(counts=counts)
            return result

        return traced

    def __enter__(self):
        owners = {name: importlib.import_module(f"tokzip.{name}") for name in TRACED}
        modules = [m for key, m in sys.modules.items()
                   if key == "tokzip" or key.startswith("tokzip.")]
        for mod_name, fn_names in TRACED.items():
            owner = owners[mod_name]
            for fn_name in fn_names:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False


def union_ns(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times_ns(spans):
    """sid -> span duration minus the part of it covered by its direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - union_ns(children[s.sid]) for s in spans}


def layer_metrics(names, spans, doc_windows, probe_spans=(), docs_per_s=None):
    """Per-document values of the per-layer metrics `names`.

    A name is ``<module>.<function>.<stat>`` with stat one of ms, self_ms,
    calls, mb, entries, draws, rows and peak_mb, or one of the derived
    ratios handled below. `doc_windows` maps each traced document id to its
    (start_ns, end_ns) as the benchmark timed it; `probe_spans` come from a
    memory-probe run; `docs_per_s` is (untraced, traced).
    """
    n_docs = len(doc_windows)
    selfs = self_times_ns(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(span_name, key):
        return sum((s.counts or {}).get(key, 0) for s in by_name[span_name])

    def value(metric):
        if metric == "aggregation.sim_useful_ratio":
            aggregates = {s.sid for s in by_name["aggregation.aggregate"]}
            computed = sum(s.counts["entries"] for s in by_name["core.similarity_matrix"]
                           if s.parent in aggregates)
            useful = sum(s.counts["rows"] * s.counts["n"] for s in by_name["aggregation.aggregate"])
            return useful / computed if computed else 0.0
        if metric == "trace.overhead_ratio":
            untraced, traced = docs_per_s
            return (untraced - traced) / untraced
        if metric == "trace.uncovered_ratio":
            wall = sum(end - start for start, end in doc_windows.values())
            covered = sum(union_ns([(s.start, s.end) for s in spans
                                    if s.parent is None and s.doc == doc]) for doc in doc_windows)
            return 1.0 - covered / wall
        span_name, stat = metric.rsplit(".", 1)
        if stat == "ms":
            return sum(s.end - s.start for s in by_name[span_name]) / 1e6 / n_docs
        if stat == "self_ms":
            return sum(selfs[s.sid] for s in by_name[span_name]) / 1e6 / n_docs
        if stat == "calls":
            return len(by_name[span_name]) / n_docs
        if stat == "mb":
            return total(span_name, "bytes") / MIB / n_docs
        if stat in ("entries", "draws", "rows"):
            return total(span_name, stat) / n_docs
        if stat == "peak_mb":
            return max((s.counts["peak_bytes"] for s in probe_spans if s.name == span_name),
                       default=0) / MIB
        raise ValueError(f"no rule computes per-layer metric {metric!r}")

    return {metric: value(metric) for metric in names}
