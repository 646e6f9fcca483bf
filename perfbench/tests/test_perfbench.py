"""Tests of the benchmark itself: generator, density bands, tracing arithmetic."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tokzip  # noqa: E402
from tokzip import SyntheticSpec, compute_density, generate  # noqa: E402

import docgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

TENSORS = ("y_last", "keys_low", "attn_low", "keys_deep", "attn_deep")


def test_generator_is_deterministic_per_seed():
    a, b, c = (docgen.make_document("doc576", seed) for seed in (7, 7, 8))
    for x, y in zip(a, b):
        assert x.image_id == y.image_id and x.is_global == y.is_global
        for name in TENSORS:
            assert np.array_equal(getattr(x, name), getattr(y, name))
    assert not np.array_equal(a[0].keys_low, c[0].keys_low)


@pytest.mark.parametrize("kind, check", [
    ("blank2304", lambda d: np.mean(d) <= 0.25),
    ("text2304", lambda d: np.mean(d) >= 0.8),
    ("doc576", lambda d: max(d) >= 0.8 and min(d) <= 0.25),
])
def test_realized_density_in_band(kind, check):
    doc = docgen.make_document(kind, 0)
    crops = [b for b in doc if not b.is_global]
    density = [compute_density(b.keys_low).density for b in crops]
    assert check(density), density
    assert doc[-1].is_global and len(crops) == len(docgen.KINDS[kind][2])
    # Every crop has a background cluster, and density is exact by construction.
    for d, target in zip(density, docgen.KINDS[kind][2]):
        assert d < 1.0
        assert abs(d - target) <= docgen.DENSITY_JITTER + 1.0 / crops[0].n_tokens


def test_self_time_on_hand_built_tree():
    # root [0, 100] has children a [10, 40] and b [30, 60], which overlap on [30, 40];
    # a has a child c [15, 20]. A grandchild does not count against the root.
    tree = [
        Span(0, "m.root", 0, 100, None, 0, None),
        Span(1, "m.a", 10, 40, 0, 0, None),
        Span(2, "m.b", 30, 60, 0, 0, None),
        Span(3, "m.c", 15, 20, 1, 0, None),
    ]
    assert spans.self_times_ns(tree) == {0: 50, 1: 25, 2: 30, 3: 5}
    got = spans.layer_metrics(["m.root.self_ms", "m.a.ms", "m.a.calls", "trace.uncovered_ratio"],
                              tree, {0: (0, 125)})
    assert got == pytest.approx({"m.root.self_ms": 50e-6, "m.a.ms": 30e-6, "m.a.calls": 1.0,
                                 "trace.uncovered_ratio": 0.2})


def test_union_of_intervals():
    assert spans.union_ns([(5, 8), (0, 3), (2, 4), (7, 10)]) == 4 + 5
    assert spans.union_ns([]) == 0


def test_tracer_wraps_where_names_are_looked_up_and_restores():
    bundle = generate(SyntheticSpec(n_tokens=16, dim=24, redundancy_fraction=0.5, seed=3))
    original = tokzip.pipeline.compute_density
    tracer = spans.Tracer()
    with tracer:
        tracer.doc = 0
        tokzip.pipeline.compress_document([bundle])
    assert tokzip.pipeline.compute_density is original
    names = [s.name for s in tracer.spans]
    # compress_subimage calls compute_density through pipeline's own import.
    parent = {s.sid: s.name for s in tracer.spans}
    density = [s for s in tracer.spans if s.name == "density.compute_density"]
    assert len(density) == 1 and parent[density[0].parent] == "pipeline.compress_subimage"
    assert names.count("core.similarity_matrix") == 2
    assert all(s.doc == 0 and s.end >= s.start for s in tracer.spans)


def test_tail_needs_ten_samples_beyond():
    value, percentile, beyond = run.tail(list(range(25, 0, -1)))
    assert (value, percentile, beyond) == (15, 60.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
