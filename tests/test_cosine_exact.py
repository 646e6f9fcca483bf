"""Decisions on the exact cosine: the float32 filter, its bound and the exact tiers."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokzip import (
    DensityConfig,
    SubImageBundle,
    aggregate,
    compress_document,
    compute_density,
    normalize_rows,
    write_bundle,
)
from tokzip.core import CosineKeys, similarity_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


def exact_gram(keys):
    """Exact dot products of all pairs of rows, as fractions."""
    ints = [[int(Fraction(x) * 2**1074) for x in row] for row in np.asarray(keys).tolist()]
    return [[Fraction(sum(map(mul, a, b)), 2**2148) for b in ints] for a in ints]


def sign_square(x):
    return x * abs(x)


def cosine_compare(gram, i, j, t):
    """Sign of cos(row i, row j) - t, exactly: sign(a.b) (a.b)^2 against sign(t) t^2 |a|^2 |b|^2."""
    lhs = sign_square(gram[i][j])
    rhs = sign_square(Fraction(t)) * gram[i][i] * gram[j][j]
    return (lhs > rhs) - (lhs < rhs)


def copied_gaussian_keys(n=577, d=1000, seed=583):
    """Gaussian rows, a third of them copied over other rows."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
    src = rng.choice(n, size=n // 3, replace=False)
    dst = rng.choice(np.setdiff1d(np.arange(n), src), size=n // 3, replace=False)
    keys[dst] = keys[src]
    return keys


def test_copies_follow_the_lowest_index_rule():
    keys = copied_gaussian_keys()
    n, knn_k = keys.shape[0], 3
    groups = CosineKeys(keys).nearest(np.arange(n), knn_k)
    # Reference: copies share one column of similarities, so they tie exactly
    # and a stable sort puts the lowest index first. Distinct Gaussian rows at
    # D=1000 are far further apart than float64 rounding.
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    kn = normalize_rows(keys)
    sim = (kn @ kn[first].T)[:, inverse.ravel()]
    np.fill_diagonal(sim, -np.inf)
    want = np.argsort(-sim, axis=1, kind="stable")[:, :knn_k]
    np.testing.assert_array_equal(groups, want)


def _tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# Runs the CLI on argv, then prints the BLAS thread count before the run and the count
# each compress_subimage call ran under: 1 in a run that started with 2 means it pooled.
BLAS_PROBE = """
import sys, tokzip.cli, tokzip.pipeline, tokzip.workers
blas, real, seen = tokzip.workers.openblas_threads(), tokzip.pipeline.compress_subimage, []
get = blas[0] if blas else lambda: 0
tokzip.pipeline.compress_subimage = lambda *args: seen.append(get()) or real(*args)
before = get()
code = tokzip.cli.main(sys.argv[1:])
print(before, *seen)
sys.exit(code)
"""


def test_compress_tree_is_the_same_under_one_and_two_blas_threads(tmp_path):
    keys = copied_gaussian_keys()
    n, d = keys.shape
    rng = np.random.default_rng(1)
    bundles = [
        SubImageBundle(
            y_last=rng.standard_normal((n, d)),
            keys_low=keys,
            attn_low=np.full(n, 1.0 / n),
            keys_deep=keys,
            attn_deep=rng.uniform(0.1, 1.0, n),
            grid_shape=(1, n),
            image_id=f"crop{i}",
        )
        for i in range(2)
    ]
    manifest = write_bundle(tmp_path / "in", bundles)
    digests, probes = set(), {}
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE, "compress", "--manifest",
                               str(manifest), "--out", str(out)], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        digests.add(_tree_digest(out))
        probes[threads] = done.stdout.splitlines()[-1].split()
    assert len(digests) == 1
    if probes["2"][0] != "2":
        pytest.skip(f"numpy's OpenBLAS was not found or not at 2 threads: {probes['2'][0]}")
    assert probes["2"] == ["2", "1", "1"]  # pooled, with BLAS pinned to one thread
    assert probes["1"] == ["1", "1", "1"]  # serial


@st.composite
def near_alpha(draw, partners):
    """(alpha, keys): row 0, and `partners` rows at cosines to it within a few ulps of alpha."""
    alpha = draw(st.floats(min_value=-0.99, max_value=0.99))
    d = draw(st.integers(min_value=2, max_value=64))
    rows = [np.eye(1, d)[0]]
    for _ in range(partners):
        b = np.zeros(d)
        b[0], b[1] = alpha, np.sqrt(1.0 - alpha * alpha)
        for t in (0, 1):  # nudge each entry by a few ulps either way
            b[t] += draw(st.integers(min_value=-4, max_value=4)) * np.spacing(b[t])
        rows.append(b)
    keys = np.vstack(rows) * 2.0 ** np.array(
        draw(st.lists(st.integers(-30, 30), min_size=partners + 1, max_size=partners + 1))
    )[:, None]
    if draw(st.booleans()):  # turn the rows over every dimension
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        keys = keys @ np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
    return alpha, keys


@given(near_alpha(partners=1))
@settings(max_examples=150, deadline=None)
def test_cosines_near_alpha_are_decided_exactly(case):
    alpha, keys = case
    rep = compute_density(keys, DensityConfig(alpha=alpha, limit_k=0))
    above = cosine_compare(exact_gram(keys), 0, 1, alpha) > 0
    assert rep.redundant_mask.tolist() == [above, above]


@given(near_alpha(partners=2))
@settings(max_examples=100, deadline=None)
def test_near_tied_neighbors_are_ordered_exactly(case):
    # Rows 1 and 2 have cosines to row 0 that differ by a few ulps at most.
    _, keys = case
    first, second = CosineKeys(keys).nearest([0], 2)[0].tolist()
    gram = exact_gram(keys)
    # For one row the cosine orders as sign(a.b) (a.b)^2 / |b|^2.
    lhs = sign_square(gram[0][first]) * gram[second][second]
    rhs = sign_square(gram[0][second]) * gram[first][first]
    assert lhs > rhs or (lhs == rhs and first < second)


def mixed_magnitude_rows(rng, n, d):
    """Rows whose entries span 1e-30 to 1e30, with norms the key-row rule accepts."""
    keys = rng.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** rng.uniform(-30, 30, size=(n, d))
    keys[:, 0] = np.where(np.abs(keys[:, 0]) < 1.0, 1.0, keys[:, 0])
    return keys


@pytest.mark.parametrize("kind", ["wide", "float32"])
def test_exact_value_matches_the_reference(kind):
    rng = np.random.default_rng(31)
    if kind == "wide":  # 5e-324 to 1e300, past where a row's squared norm overflows
        keys = mixed_magnitude_rows(rng, 4, 8)
        keys[1] *= 1e100
        wide = np.array([5e-324, -1e300, 2.5e-310, 1e-200, 3.0, -7e296, 0.0, -0.0])
        keys = np.vstack([keys, wide, np.roll(wide, 3) * -0.5, wide[::-1]])
    else:  # float32 rows, one with a subnormal and one near the float32 maximum
        keys = rng.standard_normal((4, 8)).astype(np.float32)
        keys[0, :2] = [1e-45, 3e38]
    ck = CosineKeys(keys)
    i, j = (a.ravel() for a in np.indices((len(keys), len(keys))))
    gram = exact_gram(keys)
    want = [sign_square(gram[a][b]) / (gram[a][a] * gram[b][b]) for a, b in zip(i, j)]
    assert ck._exact(i, j) == want


def test_signed_zero_copies_tie_without_the_exact_value(monkeypatch):
    keys = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    ck = CosineKeys(keys)
    monkeypatch.setattr(CosineKeys, "_exact", lambda *args: pytest.fail("copies tie as they are"))
    assert ck._exact_order(0, np.array([3, 2, 1])).tolist() == [1, 2, 3]


@pytest.mark.parametrize("d,row4", [
    *(pytest.param(d, "huge", id=str(d)) for d in (1, 3, 1024, 4096)),
    # float32 keys: row 4 near ZERO_NORM_EPS, all norms below 2^100 (the float32 multiply),
    # or row 4 at the top of the float32 range (the float64 reciprocal, cast when stored)
    *(pytest.param(d, kind, id=f"{kind}-{d}")
      for kind in ("float32_tiny", "float32_big") for d in (1, 3, 1024))])
def test_filter_and_recheck_stay_within_their_bounds(d, row4):
    rng = np.random.default_rng(d)
    n = 5 if d >= 1024 else 12
    keys = mixed_magnitude_rows(rng, n, d)
    if row4 != "huge":  # entries from 1e-38 to 1e22
        keys = (keys * 1e-8).astype(np.float32)
    keys[1] = keys[0] * 3.0  # cosine exactly 1
    keys[2] = -keys[0]  # cosine exactly -1
    if d > 1:
        keys[3] = np.where(np.arange(d) % 2, keys[0], 0.0)  # row 0 in part
        keys[3, 0] = keys[0, 0]
    if row4 == "huge":
        keys[4] *= 1e270  # beyond float32, so keys are not cast before scaling; squares overflow
    elif row4 == "float32_tiny":
        keys[4] *= 1.5e-12 / np.linalg.norm(keys[4].astype(np.float64))
    else:
        keys[4] *= 3e38 / np.abs(keys[4]).max()
    ck = CosineKeys(keys)
    if row4 != "huge":
        assert (ck.norms.max() < 2.0**100) == (row4 == "float32_tiny")
        assert ck.norms.min() < 2e-12 if row4 == "float32_tiny" else ck.norms.max() >= 3e38
    unit = ck._unit_rows()
    sim = similarity_matrix(unit, unit)
    assert sim.dtype == np.float32
    i, j = np.triu_indices(n)
    cos64 = ck.cosines(i, j)
    gram = exact_gram(keys)
    for t in range(i.size):
        for value, eps in ((float(sim[i[t], j[t]]), ck.eps), (float(cos64[t]), ck.eps64)):
            assert cosine_compare(gram, i[t], j[t], Fraction(value) + Fraction(eps)) <= 0
            assert cosine_compare(gram, i[t], j[t], Fraction(value) - Fraction(eps)) >= 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prepared_keys_decide_as_the_bare_array(dtype, lattice_keys):
    # Lattice cosines sit exactly on alpha = 0.5 and copies tie, so the exact tiers run.
    rng = np.random.default_rng(17)
    keys = lattice_keys(rng, 300).astype(dtype)
    tokens = rng.standard_normal((300, 16)).astype(dtype)
    attn = rng.uniform(0.1, 1.0, 300)
    retained = np.arange(0, 300, 3)
    cfg = DensityConfig(alpha=0.5, limit_k=3)
    mask = compute_density(keys, cfg).redundant_mask
    merged = aggregate(tokens, keys, attn, retained)
    prepared = CosineKeys(keys)
    assert compute_density(prepared, cfg).redundant_mask.tolist() == mask.tolist()
    assert aggregate(tokens, prepared, attn, retained).tobytes() == merged.tobytes()


@pytest.mark.parametrize("kind", ["copies", "lattice"])
def test_float32_bundle_compresses_as_its_float64_upcast(kind, lattice_keys, monkeypatch):
    # Both key sets reach the exact tiers: copies tie in the k-NN order, and
    # lattice cosines sit exactly on alpha = 0.5.
    rng = np.random.default_rng(5)
    keys = copied_gaussian_keys() if kind == "copies" else lattice_keys(rng, 300)
    cfg = DensityConfig() if kind == "copies" else DensityConfig(alpha=0.5, limit_k=3)
    n, d = keys.shape
    crop = SubImageBundle(
        y_last=rng.standard_normal((n, d)).astype(np.float32),
        keys_low=keys.astype(np.float32),
        attn_low=rng.uniform(0.1, 1.0, n),
        keys_deep=keys[::-1].astype(np.float32),
        attn_deep=rng.uniform(0.1, 1.0, n),
        grid_shape=(1, n),
    )
    document = [crop, dataclasses.replace(crop, is_global=True, image_id="global")]
    upcast = [dataclasses.replace(b, **{name: getattr(b, name).astype(np.float64)
                                        for name in ("y_last", "keys_low", "keys_deep")})
              for b in document]
    exact_tier = []
    for name in ("_exceeds", "_exact_order"):
        def counting(self, *args, _real=getattr(CosineKeys, name), _name=name):
            exact_tier.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(CosineKeys, name, counting)
    got = compress_document(document, cfg)
    assert set(exact_tier) == ({"_exact_order"} if kind == "copies" else
                               {"_exceeds", "_exact_order"})
    for a, b in zip(got, compress_document(upcast, cfg)):
        assert a.compressed_tokens.dtype == np.float32 and b.compressed_tokens.dtype == np.float64
        assert a.compressed_tokens.tobytes() == b.compressed_tokens.astype(np.float32).tobytes()
        assert a.retained_indices.tolist() == b.retained_indices.tolist()
        assert a.branch_provenance == b.branch_provenance
        assert (a.density_report is None) == (b.density_report is None)
        if a.density_report is not None:
            assert a.density_report.redundant_mask.tolist() == b.density_report.redundant_mask.tolist()
