import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokzip.core
from tokzip import DensityConfig, compute_density, normalize_rows, similarity_matrix
from tokzip.core import BLOCK_ROWS, CosineKeys
from tokzip.errors import ZeroRowError
from tokzip.harness import oracle_density


def test_clone_cluster_example():
    keys = [[1, 0], [1, 0], [1, 0], [0, 1]]
    rep = compute_density(keys, DensityConfig(alpha=0.7, limit_k=1))
    assert rep.n_redundant == 3
    assert rep.redundancy == 0.75
    assert rep.density == 0.25
    assert rep.redundant_mask.tolist() == [True, True, True, False]


def test_orthogonal_rows_all_unique():
    rep = compute_density(np.eye(4), DensityConfig(alpha=0.5, limit_k=0))
    assert rep.n_redundant == 0
    assert rep.density == 1.0


def test_matches_naive_oracle(rng):
    keys = rng.standard_normal((32, 8))
    cfg = DensityConfig(alpha=0.7, limit_k=3)
    rep = compute_density(keys, cfg)
    n_red, mask = oracle_density(keys, 0.7, 3)
    assert rep.n_redundant == n_red
    assert np.array_equal(rep.redundant_mask, mask)


def test_shipped_defaults():
    cfg = DensityConfig()
    assert cfg.alpha == 0.7
    assert cfg.limit_k == 50
    assert cfg.count_self is False


def test_count_self_inflates_counts():
    keys = [[1, 0], [1, 0], [0, 1]]
    strict = compute_density(keys, DensityConfig(alpha=0.7, limit_k=1, count_self=False))
    literal = compute_density(keys, DensityConfig(alpha=0.7, limit_k=1, count_self=True))
    # with self counted, the two clones reach n_i = 2 > 1
    assert strict.n_redundant == 0
    assert literal.n_redundant == 2


def test_zero_row_propagates():
    with pytest.raises(ZeroRowError):
        compute_density([[1.0, 0.0], [0.0, 0.0]])


def test_invalid_config():
    with pytest.raises(ValueError):
        DensityConfig(alpha=1.5)
    with pytest.raises(ValueError):
        DensityConfig(limit_k=-1)


@given(st.integers(min_value=0, max_value=100))
@settings(max_examples=40)
def test_monotone_in_alpha(seed):
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((20, 6))
    counts = [
        compute_density(keys, DensityConfig(alpha=a, limit_k=2)).n_redundant
        for a in (0.2, 0.5, 0.8)
    ]
    assert counts == sorted(counts, reverse=True)


@given(st.integers(min_value=0, max_value=100))
@settings(max_examples=40)
def test_monotone_in_limit_k(seed):
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((20, 6))
    counts = [
        compute_density(keys, DensityConfig(alpha=0.5, limit_k=k)).n_redundant
        for k in (0, 2, 5)
    ]
    assert counts == sorted(counts, reverse=True)


@given(st.integers(min_value=0, max_value=100))
@settings(max_examples=40)
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((15, 5))
    perm = rng.permutation(15)
    cfg = DensityConfig(alpha=0.6, limit_k=1)
    base = compute_density(keys, cfg)
    permuted = compute_density(keys[perm], cfg)
    assert permuted.redundancy == base.redundancy
    assert permuted.density == base.density
    assert np.array_equal(permuted.redundant_mask, base.redundant_mask[perm])


def test_cluster_construction_density(clone_bundle, clone_density_cfg):
    # 12 clones among 16 tokens, limit_k=3 < 11: exactly the clones are redundant
    rep = compute_density(clone_bundle.keys_low, clone_density_cfg)
    assert rep.n_redundant == 12
    assert rep.density == 0.25
    assert rep.redundant_mask[:12].all() and not rep.redundant_mask[12:].any()


# ---------------------------------------------------------------------------
# Exactness of the blocked kernel against the full-matrix reference
# ---------------------------------------------------------------------------

SIZES = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]


def full_matrix_peer_counts(keys, alpha, count_self):
    """Peer counts from the whole N x N similarity matrix at once."""
    kn = normalize_rows(keys)
    similar = similarity_matrix(kn) > alpha
    if not count_self:
        np.fill_diagonal(similar, False)
    return similar.sum(axis=1)


@pytest.mark.parametrize("count_self", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_blocked_counts_match_full_matrix_and_oracle(n, count_self, lattice_keys):
    rng = np.random.default_rng(n)
    keys = lattice_keys(rng, n)
    counts = full_matrix_peer_counts(keys, 0.5, count_self)
    np.testing.assert_array_equal(CosineKeys(keys).peer_counts(0.5, count_self), counts)
    # The masks at every limit_k a token sits on pin down every peer count.
    for limit_k in np.unique(counts):
        rep = compute_density(keys, DensityConfig(alpha=0.5, limit_k=int(limit_k),
                                                  count_self=count_self))
        np.testing.assert_array_equal(rep.redundant_mask, counts > limit_k)
    limit_k = int(np.median(counts))
    rep = compute_density(keys, DensityConfig(alpha=0.5, limit_k=limit_k, count_self=count_self))
    n_red, mask = oracle_density(keys, 0.5, limit_k, count_self)
    assert rep.n_redundant == n_red
    np.testing.assert_array_equal(rep.redundant_mask, mask)


def test_blocked_counts_on_gaussian_keys(rng):
    keys = rng.standard_normal((2 * BLOCK_ROWS + 3, 6))
    counts = full_matrix_peer_counts(keys, 0.6, False)
    for limit_k in np.unique(counts):
        rep = compute_density(keys, DensityConfig(alpha=0.6, limit_k=int(limit_k)))
        np.testing.assert_array_equal(rep.redundant_mask, counts > limit_k)


# ---------------------------------------------------------------------------
# Capped counts: min(count, cap), whatever the blocks and the row order
# ---------------------------------------------------------------------------


def clustered_lattice_keys(rng, lattice_keys):
    """3 * BLOCK_ROWS lattice rows: copies of at most 8 rows, a mix, then rows with few copies.

    Each of the first block's rows has many copies there, so cap=4 decides
    most of the second block, three quarters copies too, when it starts: that
    block gathers. The last block's rows have about 8 copies each, most in
    that block, so it does not.
    """
    copies = lattice_keys(rng, 64)[rng.integers(0, 64, size=7 * BLOCK_ROWS // 4)]
    fresh = lattice_keys(rng, 5 * BLOCK_ROWS // 4)
    middle = rng.permutation(np.vstack([copies[BLOCK_ROWS:], fresh[: BLOCK_ROWS // 4]]))
    return np.vstack([copies[:BLOCK_ROWS], middle, fresh[BLOCK_ROWS // 4 :]])


@pytest.mark.parametrize("count_self", [False, True])
@pytest.mark.parametrize("block_rows", [1, 7, 256])
def test_capped_counts_do_not_depend_on_the_blocks(block_rows, count_self, lattice_keys,
                                                   monkeypatch):
    keys = clustered_lattice_keys(np.random.default_rng(block_rows), lattice_keys)
    counts = full_matrix_peer_counts(keys, 0.5, count_self)
    monkeypatch.setattr(tokzip.core, "BLOCK_ROWS", block_rows)
    for cap in (1, 4, 9):
        got = CosineKeys(keys).peer_counts(0.5, count_self, cap)
        np.testing.assert_array_equal(got, np.minimum(counts, cap))


@pytest.mark.parametrize("count_self", [False, True])
def test_cap_beyond_int64_counts_exactly(count_self, lattice_keys):
    keys = CosineKeys(clustered_lattice_keys(np.random.default_rng(5), lattice_keys))
    want = full_matrix_peer_counts(keys.keys, 0.5, count_self)
    for cap in (None, len(want) + 1, 2**63, 2**70):
        np.testing.assert_array_equal(keys.peer_counts(0.5, count_self, cap), want)
    rep = compute_density(keys, DensityConfig(alpha=0.5, limit_k=2**70, count_self=count_self))
    assert rep.density == 1.0


@pytest.mark.parametrize("count_self", [False, True])
def test_capped_counts_follow_a_row_permutation(count_self, lattice_keys):
    rng = np.random.default_rng(3)
    keys = clustered_lattice_keys(rng, lattice_keys)
    perm = rng.permutation(len(keys))
    want = np.minimum(full_matrix_peer_counts(keys, 0.5, count_self), 4)
    np.testing.assert_array_equal(CosineKeys(keys[perm]).peer_counts(0.5, count_self, 4),
                                  want[perm])


@pytest.mark.parametrize("count_self", [False, True])
def test_capped_counts_gather_only_mostly_decided_blocks(count_self, lattice_keys, monkeypatch):
    keys = clustered_lattice_keys(np.random.default_rng(4), lattice_keys)
    want = np.minimum(full_matrix_peer_counts(keys, 0.5, count_self), 4)
    shapes = []

    def recording(a, b=None, _real=tokzip.core.similarity_matrix):
        shapes.append((len(a), len(b)))
        return _real(a, b)

    monkeypatch.setattr(tokzip.core, "similarity_matrix", recording)
    np.testing.assert_array_equal(CosineKeys(keys).peer_counts(0.5, count_self, 4), want)
    n = len(keys)
    assert (BLOCK_ROWS, n) in shapes  # the first block: nothing is decided yet
    assert (BLOCK_ROWS, n - BLOCK_ROWS) not in shapes  # the second gathers
    assert any(a < BLOCK_ROWS and b == n - BLOCK_ROWS for a, b in shapes)
    assert (BLOCK_ROWS, n - 2 * BLOCK_ROWS) in shapes  # the third does not


@pytest.mark.parametrize("count_self", [False, True])
def test_capped_counts_reach_later_rows_through_decided_rows(count_self, lattice_keys):
    # On the lattice, cos(a, b) = cos(b, c) = 3/4 but cos(a, c) = 1/2, not above alpha.
    # Five copies of a in the first block decide the second block's 200 copies
    # of b when it starts, so that block gathers. The third block's copies of c
    # have no similar row before it but those decided copies of b.
    a, b, c = (np.isin(np.arange(16), s).astype(float) for s in ([0, 1, 2, 3], [0, 1, 2, 4],
                                                                 [0, 1, 4, 5]))
    rng = np.random.default_rng(8)
    # The other rows lie on the other 10 columns, at cosine 0 to a, b and c.
    keys = np.hstack([np.zeros((3 * BLOCK_ROWS, 6)), lattice_keys(rng, 3 * BLOCK_ROWS, 10)])
    keys[:5], keys[BLOCK_ROWS : BLOCK_ROWS + 200], keys[-3:] = a, b, c
    want = np.minimum(full_matrix_peer_counts(keys, 0.5, count_self), 4)
    assert (want[-3:] == 4).all()
    np.testing.assert_array_equal(CosineKeys(keys).peer_counts(0.5, count_self, 4), want)
