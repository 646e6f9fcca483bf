import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokzip.core
from tokzip import AggregationConfig, aggregate, normalize_rows, similarity_matrix
from tokzip.aggregation import SUM_ROWS
from tokzip.core import BLOCK_ROWS, CosineKeys
from tokzip.errors import (
    DimensionMismatchError,
    EmptyRetentionError,
    NeighborCountExceedsTokensError,
    NonFiniteValueError,
)
from tokzip.harness import oracle_aggregate


def test_knn_zero_is_identity(rng):
    y = rng.standard_normal((6, 4))
    keys = rng.standard_normal((6, 4))
    attn = rng.uniform(0.1, 1, 6)
    out = aggregate(y, keys, attn, [0, 2, 5], AggregationConfig(knn_k=0))
    np.testing.assert_allclose(out, y[[0, 2, 5]], atol=1e-12)


def test_identical_tokens_stay_fixed(rng):
    v = rng.standard_normal(4)
    y = np.tile(v, (5, 1))
    keys = np.tile(rng.standard_normal(4) + 1.0, (5, 1))
    attn = rng.uniform(0.1, 1, 5)
    out = aggregate(y, keys, attn, [1, 3], AggregationConfig(knn_k=2))
    np.testing.assert_allclose(out, np.tile(v, (2, 1)), atol=1e-9)


def test_matches_exhaustive_oracle(rng):
    y = rng.standard_normal((5, 3))
    keys = rng.standard_normal((5, 3))
    attn = rng.uniform(0.1, 1, 5)
    retained = [0, 2, 4]
    got = aggregate(y, keys, attn, retained, AggregationConfig(knn_k=2))
    want = oracle_aggregate(y, keys, attn, retained, 2, include_self=True)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_literal_mode_matches_oracle(rng):
    y = rng.standard_normal((7, 3))
    keys = rng.standard_normal((7, 3))
    attn = rng.uniform(0.1, 1, 7)
    cfg = AggregationConfig(knn_k=3, include_self=False)
    got = aggregate(y, keys, attn, [1, 5], cfg)
    want = oracle_aggregate(y, keys, attn, [1, 5], 3, include_self=False)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_empty_retention_rejected(rng):
    with pytest.raises(EmptyRetentionError):
        aggregate(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
                  np.ones(4), [])


def test_too_many_neighbors_rejected(rng):
    with pytest.raises(NeighborCountExceedsTokensError):
        aggregate(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
                  np.ones(4), [0], AggregationConfig(knn_k=4))


def test_bool_mask_rejected(rng):
    # cast to integers, the mask would be read as rows [1, 0, 1, 0] and merge 4 rows
    with pytest.raises(IndexError):
        aggregate(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
                  np.ones(4), np.array([True, False, True, False]))


@pytest.mark.parametrize("n_tokens,n_keys,n_attn", [(12, 10, 12), (10, 12, 12), (12, 12, 10),
                                                    (10, 12, 10)])
def test_row_counts_must_agree(rng, n_tokens, n_keys, n_attn):
    with pytest.raises(DimensionMismatchError, match="rows"):
        aggregate(rng.standard_normal((n_tokens, 4)), rng.standard_normal((n_keys, 4)),
                  rng.uniform(0.1, 1, n_attn), np.arange(10))


def test_convex_hull_bound(rng):
    y = rng.standard_normal((10, 4))
    keys = rng.standard_normal((10, 4))
    attn = rng.uniform(0.1, 1, 10)
    out = aggregate(y, keys, attn, list(range(10)), AggregationConfig(knn_k=3))
    assert np.abs(out).max() <= np.abs(y).max() + 1e-12


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=40, deadline=None)
def test_permutation_consistency(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    y = rng.standard_normal((n, 3))
    keys = rng.standard_normal((n, 3))
    attn = rng.uniform(0.1, 1, n)
    retained = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    # break similarity ties by perturbing, so tie-breaking order cannot differ
    cfg = AggregationConfig(knn_k=2)
    base = aggregate(y, keys, attn, retained, cfg)

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    permuted = aggregate(y[perm], keys[perm], attn[perm], np.sort(inv[retained]), cfg)
    # rows of `permuted` are ordered by sorted permuted indices; map back
    order = np.argsort(inv[retained])
    np.testing.assert_allclose(permuted, base[order], atol=1e-9)


def test_deterministic(rng):
    y = rng.standard_normal((8, 3))
    keys = rng.standard_normal((8, 3))
    attn = rng.uniform(0.1, 1, 8)
    a = aggregate(y, keys, attn, [0, 3], AggregationConfig())
    b = aggregate(y, keys, attn, [0, 3], AggregationConfig())
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Exactness of the blocked kernel against the per-row reference
# ---------------------------------------------------------------------------

SIZES = [1, SUM_ROWS - 1, SUM_ROWS, SUM_ROWS + 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
         2 * BLOCK_ROWS + 3]


def per_row_reference(tokens, keys, attn, retained, knn_k, include_self=True, normalize=True):
    """One stable argsort per retained row over the full N x N similarities.

    Returns (groups, tokens): the knn_k neighbors of each row, most similar
    first, and the weighted group sums.
    """
    y = np.asarray(tokens, dtype=np.float64)
    sim = similarity_matrix(normalize_rows(keys))
    groups, rows = [], []
    for l in retained:
        sims = sim[l].copy()
        sims[l] = -np.inf
        neighbors = np.argsort(-sims, kind="stable")[:knn_k]
        group = np.concatenate([[l], neighbors]) if include_self else neighbors
        w = attn[group]
        if normalize:
            total = w.sum()
            w = w / total if total > 0 else np.full(group.size, 1.0 / group.size)
        groups.append(neighbors)
        rows.append(w @ y[group])
    return np.array(groups, dtype=np.intp).reshape(len(retained), knn_k), np.vstack(rows)


@pytest.mark.parametrize("kind", ["distinct", "duplicated"])
@pytest.mark.parametrize("n,n_ret", [(n, r) for n in SIZES for r in SIZES if r <= n])
def test_blocked_matches_per_row_reference(n, n_ret, kind, lattice_keys):
    # "duplicated" keys tie exactly, at the k-th place too; "distinct" ones do not tie.
    rng = np.random.default_rng(n * 1000 + n_ret)
    d = 16
    y = rng.standard_normal((n, d))
    keys = lattice_keys(rng, n, d) if kind == "duplicated" else rng.standard_normal((n, d))
    attn = rng.uniform(0.01, 1.0, n)
    retained = np.sort(rng.choice(n, size=n_ret, replace=False))
    knn_k = min(3, n - 1)

    want_groups, want = per_row_reference(y, keys, attn, retained, knn_k)
    np.testing.assert_array_equal(CosineKeys(keys).nearest(retained, knn_k), want_groups)
    got = aggregate(y, keys, attn, retained, AggregationConfig(knn_k=knn_k))
    np.testing.assert_array_equal(got, want)

    # Rows on both sides of each block boundary, against the brute-force oracle.
    probe = sorted({0, SUM_ROWS - 1, SUM_ROWS, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS,
                    n_ret - 1} & set(range(n_ret)))
    oracle = oracle_aggregate(y, keys, attn, retained[probe], knn_k)
    np.testing.assert_allclose(got[probe], oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "cfg,n_ret,kind",
    [(AggregationConfig(knn_k=0), BLOCK_ROWS + 1, "duplicated"),
     (AggregationConfig(knn_k=5, include_self=False), BLOCK_ROWS + 1, "duplicated"),
     (AggregationConfig(knn_k=4, normalize_weights=False), BLOCK_ROWS + 1, "duplicated"),
     (AggregationConfig(knn_k=40), BLOCK_ROWS + 1, "duplicated"),
     # Every row retained and knn_k = n - 1, so the last row block has fewer
     # columns than knn_k + 1; distinct keys leave most rows to the float32 top.
     (AggregationConfig(knn_k=2 * BLOCK_ROWS + 2), 2 * BLOCK_ROWS + 3, "distinct")],
    ids=["k0", "no_self", "unnormalized", "k40", "k_all"],
)
def test_blocked_config_variants(cfg, n_ret, kind, lattice_keys):
    rng = np.random.default_rng(5)
    n, d = 2 * BLOCK_ROWS + 3, 16
    y = rng.standard_normal((n, d))
    keys = lattice_keys(rng, n, d) if kind == "duplicated" else rng.standard_normal((n, d))
    attn = rng.uniform(0.01, 1.0, n)
    retained = np.sort(rng.choice(n, size=n_ret, replace=False))
    _, want = per_row_reference(y, keys, attn, retained, cfg.knn_k, cfg.include_self,
                                cfg.normalize_weights)
    np.testing.assert_array_equal(aggregate(y, keys, attn, retained, cfg), want)


def test_nearest_answers_rows_in_the_callers_order(lattice_keys):
    rng = np.random.default_rng(8)
    n, d = 2 * BLOCK_ROWS + 3, 16
    keys = lattice_keys(rng, n, d)
    rows = rng.permutation(n)[: BLOCK_ROWS + 7]
    rows[-1] = rows[3]
    want, _ = per_row_reference(np.zeros((n, 1)), keys, np.ones(n), rows, 3)
    np.testing.assert_array_equal(CosineKeys(keys).nearest(rows, 3), want)
    for bad in ([-1], [n], [0.5], np.arange(n) % 2 == 0):
        with pytest.raises(IndexError):
            CosineKeys(keys).nearest(bad, 3)


@pytest.mark.parametrize("block_rows", [1, 7, 256])
def test_nearest_does_not_depend_on_the_blocks(block_rows, lattice_keys, monkeypatch):
    # Lattice copies tie at the k-th place, so rows reach _settle. At BLOCK_ROWS=1
    # every earlier column of a row arrives by hand-off: its threshold is the running top's.
    rng = np.random.default_rng(block_rows)
    n = 2 * BLOCK_ROWS + 3
    keys = lattice_keys(rng, n)
    rows = rng.permutation(n)[: BLOCK_ROWS + 7]
    rows[-1] = rows[3]
    settled = []

    def recording(self, open_rows, *args, _real=CosineKeys._settle):
        settled.append(open_rows.size)
        return _real(self, open_rows, *args)

    monkeypatch.setattr(CosineKeys, "_settle", recording)
    monkeypatch.setattr(tokzip.core, "BLOCK_ROWS", block_rows)
    for asked in (np.arange(n), rows):
        want, _ = per_row_reference(np.zeros((n, 1)), keys, np.ones(n), asked, 3)
        np.testing.assert_array_equal(CosineKeys(keys).nearest(asked, 3), want)
    assert sum(settled) > n


@pytest.mark.parametrize("decision", ["nearest", "peer_counts"])
def test_nearest_takes_each_retained_pair_once(decision, monkeypatch):
    entries = []

    def counting(a, b=None, _real=tokzip.core.similarity_matrix):
        sim = _real(a, b)
        entries.append(sim.size)
        return sim

    monkeypatch.setattr(tokzip.core, "similarity_matrix", counting)
    n = 4 * BLOCK_ROWS
    keys = np.random.default_rng(9).standard_normal((n, 64))
    if decision == "nearest":
        CosineKeys(keys).nearest(np.arange(n), 3)
    else:
        CosineKeys(keys).peer_counts(0.5)
    assert sum(entries) < n * n * 2 / 3  # every row against all N would take n * n


@pytest.mark.parametrize("clustered", [False, True])
def test_capped_peer_counts_skip_pairs_of_decided_rows(clustered, monkeypatch):
    entries = []

    def counting(a, b=None, _real=tokzip.core.similarity_matrix):
        sim = _real(a, b)
        entries.append(sim.size)
        return sim

    monkeypatch.setattr(tokzip.core, "similarity_matrix", counting)
    n = 4 * BLOCK_ROWS
    rng = np.random.default_rng(9)
    keys = rng.standard_normal((n, 64))
    if clustered:  # 90% of the rows in two tight clusters, so past the first block most are decided
        near = rng.random(n) < 0.9
        keys[near] = rng.standard_normal((2, 64))[rng.integers(0, 2, near.sum())] + 0.1 * keys[near]
    ck = CosineKeys(keys)
    ck.peer_counts(0.5)
    exact = sum(entries)
    entries.clear()
    ck.peer_counts(0.5, cap=51)
    if clustered:  # the first block, never skipped, is 40% of the walk
        assert sum(entries) <= exact / 2
    else:  # no row reaches cap: the same walk
        assert sum(entries) == exact


def test_group_sums_gather_little_beyond_the_output():
    # A 576 x 1024 float32 crop with every row retained: gathering a 256-row
    # block's groups at once takes about 12 MiB beyond the output.
    rng = np.random.default_rng(12)
    n, d = 576, 1024
    y = rng.standard_normal((n, d)).astype(np.float32)
    keys = rng.standard_normal((n, d)).astype(np.float32)
    attn = rng.uniform(0.1, 1.0, n)
    prepared = CosineKeys(keys)
    tracemalloc.start()
    try:
        out = aggregate(y, prepared, attn, np.arange(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 6 * 2**20


def test_float32_group_sum_beyond_float32_is_refused(rng):
    # Unnormalized weights of 1e38 on tokens of at least 1: each sum of four exceeds 3.4e38.
    n = 12
    y = np.abs(rng.standard_normal((n, 4))) + 1.0
    keys = rng.standard_normal((n, 4))
    attn = np.full(n, 1e38)
    cfg = AggregationConfig(normalize_weights=False)
    got = aggregate(y, keys, attn, np.arange(n), cfg)
    assert got.dtype == np.float64 and np.isfinite(got).all() and got.min() > 3.4e38
    with pytest.raises(NonFiniteValueError, match="float32 range"):
        aggregate(y.astype(np.float32), keys, attn, np.arange(n), cfg)


def test_all_zero_group_weights_average_uniformly(lattice_keys):
    rng = np.random.default_rng(6)
    n, d = BLOCK_ROWS + 1, 8
    y = rng.standard_normal((n, d))
    keys = lattice_keys(rng, n, d)
    # Only copies of row 0 carry attention, so many groups weigh zero in total.
    attn = np.where((keys == keys[0]).all(axis=1), 1.0, 0.0)
    retained = np.arange(n)
    _, want = per_row_reference(y, keys, attn, retained, 3)
    got = aggregate(y, keys, attn, retained, AggregationConfig(knn_k=3))
    np.testing.assert_array_equal(got, want)
    zero = np.flatnonzero(attn == 0)
    groups = np.concatenate([zero[:, None], CosineKeys(keys).nearest(zero, 3)], axis=1)
    isolated = (attn[groups] == 0).all(axis=1)
    assert isolated.any()
    np.testing.assert_allclose(got[zero[isolated]], y[groups[isolated]].mean(axis=1),
                               rtol=0, atol=1e-12)


def test_empty_group_rejected(rng):
    with pytest.raises(ValueError):
        aggregate(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)), np.ones(4), [0],
                  AggregationConfig(knn_k=0, include_self=False))
