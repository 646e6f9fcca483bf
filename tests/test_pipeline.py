import dataclasses

import numpy as np
import pytest

import tokzip.core
from tokzip import (
    AggregationConfig,
    DensityConfig,
    SelectionConfig,
    SelectionResult,
    SyntheticSpec,
    aggregate,
    compress_document,
    compress_subimage,
    corpus_stats,
    generate,
    local_select,
)
from tokzip.core import CosineKeys
from tokzip.errors import (
    EmptyCorpusError,
    InsufficientSupportError,
    MultipleGlobalImagesError,
    NeighborCountExceedsTokensError,
    TokzipError,
)
from tokzip.harness import oracle_aggregate, oracle_density, oracle_global_select


def _uniform_bundle(n=9, dim=12, seed=0):
    return generate(SyntheticSpec(n_tokens=n, dim=dim, redundancy_fraction=0.0, seed=seed))


def test_all_orthogonal_keeps_everything():
    bundle = _uniform_bundle()
    res = compress_subimage(bundle, DensityConfig(alpha=0.7, limit_k=0))
    assert res.density_report.density == 1.0
    assert res.retained_indices.tolist() == list(range(9))
    assert res.ratio == 1.0
    # aggregation smooths but the row count is unchanged
    assert res.compressed_tokens.shape == bundle.y_last.shape


def test_key_norms_are_computed_once_per_matrix(monkeypatch):
    calls = []

    def counting(keys, name="key", _real=tokzip.core.key_row_norms):
        calls.append(name)
        return _real(keys, name)

    monkeypatch.setattr(tokzip.core, "key_row_norms", counting)
    bundle = generate(SyntheticSpec(n_tokens=64, dim=80, redundancy_fraction=0.5, seed=3))
    assert len(calls) == 2  # the bundle's check, once per key matrix
    compress_subimage(bundle)
    assert len(calls) == 2  # the stages use the CosineKeys the check prepared
    for keys, matrix in ((bundle.cosine_low, bundle.keys_low),
                         (bundle.cosine_deep, bundle.keys_deep)):
        assert isinstance(keys, CosineKeys) and keys.keys is matrix
        # the unit rows were built inside each decision and dropped on return
        arrays = {name for name, v in vars(keys).items() if isinstance(v, np.ndarray)}
        assert arrays == {"keys", "norms"}


def test_float64_global_image_is_shared_not_copied():
    g = dataclasses.replace(_uniform_bundle(), is_global=True)
    for dtype in (np.float64, np.float32):
        gd = dataclasses.replace(g, y_last=g.y_last.astype(dtype))
        res = compress_document([gd])[0]
        assert res.is_global_passthrough and res.compressed_tokens.dtype == dtype
        assert np.shares_memory(res.compressed_tokens, gd.y_last)


def test_global_image_passes_through_compress_subimage():
    bundle = dataclasses.replace(_uniform_bundle(), is_global=True)
    res = compress_subimage(bundle)
    assert res.is_global_passthrough and res.density_report is None
    assert res.compressed_tokens is bundle.y_last and np.shares_memory(res.compressed_tokens,
                                                                      bundle.y_last)
    assert res.retained_indices.tolist() == list(range(bundle.n_tokens))
    assert res.branch_provenance == [] and res.ratio == 1.0


def test_bundle_keeps_the_arrays_it_checked():
    bundle = _uniform_bundle()
    for dtype in (np.float32, np.float64):
        y, keys = bundle.y_last.astype(dtype), bundle.keys_low.astype(dtype)
        b = dataclasses.replace(bundle, y_last=y, keys_low=keys,
                                attn_low=bundle.attn_low.astype(dtype), grid_shape=[3, 3],
                                crop_position=[1, 2])
        assert b.y_last is y and b.keys_low is keys and b.cosine_low.keys is keys
        assert b.attn_low.dtype == np.float64 and b.attn_deep.dtype == np.float64
        assert b.grid_shape == (3, 3) and b.crop_position == (1, 2)


def test_bundle_built_from_lists_compresses():
    bundle = _uniform_bundle()
    lists = dataclasses.replace(bundle, **{name: getattr(bundle, name).tolist() for name in (
        "y_last", "keys_low", "attn_low", "keys_deep", "attn_deep")}, grid_shape=[3, 3])
    assert lists.n_tokens == bundle.n_tokens
    want, got = compress_subimage(bundle), compress_subimage(lists)
    assert got.retained_indices.tolist() == want.retained_indices.tolist()
    assert np.array_equal(got.compressed_tokens, want.compressed_tokens)


def test_stage_error_keeps_its_type_and_names_the_sub_image():
    bundle = dataclasses.replace(_uniform_bundle(), image_id="crop1")

    def select(*_):
        raise InsufficientSupportError(5, 2)

    with pytest.raises(InsufficientSupportError, match="^crop1: cannot sample 5 tokens") as exc:
        compress_subimage(bundle, select=select)
    assert (exc.value.requested, exc.value.available) == (5, 2)
    with pytest.raises(NeighborCountExceedsTokensError, match="^crop1: knn_k=9"):
        compress_subimage(bundle, agg_cfg=AggregationConfig(knn_k=9))


CONFIG_FIELDS = [(cls, f.name) for cls in (DensityConfig, SelectionConfig, AggregationConfig)
                 for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls,name", CONFIG_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in CONFIG_FIELDS])
def test_config_refuses_mistyped_fields(cls, name):
    kind = type(getattr(cls(), name))
    bad = ["0.7", None] + (["no", 1] if kind is bool else [True]) + ([2.5] if kind is int else [])
    for value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            cls(**{name: value})


def test_config_takes_numpy_scalars():
    cfg = SelectionConfig(seed=np.int64(5), min_retained=np.int32(2), iqr_factor=np.float64(2))
    rng = np.random.default_rng(0)
    attn = rng.random(30)
    want = local_select(attn, 7, SelectionConfig(seed=5))
    assert np.array_equal(local_select(attn, 7, cfg), want)
    bundle = _uniform_bundle()
    got = compress_subimage(bundle, DensityConfig(alpha=np.float64(0.5), limit_k=np.int64(0)),
                            cfg, AggregationConfig(knn_k=np.int64(2)))
    want = compress_subimage(bundle, DensityConfig(alpha=0.5, limit_k=0),
                             SelectionConfig(seed=5, min_retained=2, iqr_factor=2.0),
                             AggregationConfig(knn_k=2))
    assert np.array_equal(got.retained_indices, want.retained_indices)
    assert np.array_equal(got.compressed_tokens, want.compressed_tokens)


def test_branch_tags_and_counts():
    sel = SelectionResult(global_indices=np.array([1, 4]), local_indices=np.array([4, 7]),
                          merged_indices=np.array([0, 1, 4, 7]))
    res = compress_subimage(_uniform_bundle(), select=lambda *_: sel)
    assert res.branch_provenance == ["fallback", "global", "both", "local"]
    assert res.provenance_counts() == {"fallback": 1, "global": 1, "local": 1, "both": 1}
    assert res.ratio == 4 / 9


def test_result_rows_follow_the_select_steps_order():
    bundle = generate(SyntheticSpec(n_tokens=12, dim=16, redundancy_fraction=0.5, seed=3))
    sel = SelectionResult(global_indices=np.array([9]), local_indices=np.array([2]),
                          merged_indices=np.array([9, 2]))
    res = compress_subimage(bundle, select=lambda *_: sel)
    assert res.retained_indices.tolist() == [9, 2]
    assert res.branch_provenance == ["global", "local"]
    for row, index in zip(res.compressed_tokens, (9, 2)):
        alone = aggregate(bundle.y_last, bundle.cosine_deep, bundle.attn_deep, [index])
        assert row.tobytes() == alone[0].tobytes()


class TestHandTrace:
    """Step-by-step trace of the full pipeline on the 75%-clone bundle.

    Every stage is recomputed here with independent oracle code (plus a
    replication of the local branch's sampling rounds on the same seeded
    generator), and the final values are also frozen as literals.
    """

    SEED = 1

    def _trace(self, bundle, alpha, limit_k, knn_k):
        n = bundle.n_tokens
        n_red, mask = oracle_density(bundle.keys_low, alpha, limit_k)
        d = 1 - n_red / n
        gi = oracle_global_select(bundle.attn_deep)
        m = int(np.floor(d * n + 0.5))
        # rounds on an identically seeded generator: draw the count still
        # needed with replacement, keep every new index, zero the kept weights
        rng = np.random.default_rng(self.SEED)
        weights = np.asarray(bundle.attn_low, dtype=np.float64).copy()
        drawn = set()
        while len(drawn) < m:
            cum = np.cumsum(weights)
            last = int(np.flatnonzero(weights)[-1])
            for u in rng.random(m - len(drawn)) * cum[-1]:
                drawn.add(min(int(np.searchsorted(cum, u, side="right")), last))
            weights[sorted(drawn)] = 0.0
        merged = sorted(set(gi) | set(drawn))
        y_prime = oracle_aggregate(
            bundle.y_last, bundle.keys_deep, bundle.attn_deep, merged, knn_k
        )
        return d, gi, sorted(drawn), merged, y_prime

    def test_pipeline_matches_trace(self, clone_bundle, clone_density_cfg):
        res = compress_subimage(
            clone_bundle,
            clone_density_cfg,
            SelectionConfig(seed=self.SEED),
            AggregationConfig(knn_k=3),
        )
        d, gi, drawn, merged, y_prime = self._trace(
            clone_bundle, clone_density_cfg.alpha, clone_density_cfg.limit_k, 3
        )
        assert res.density_report.density == d == 0.25
        kept_by = dict(zip(res.retained_indices.tolist(), res.branch_provenance))
        assert [i for i, t in kept_by.items() if t in ("global", "both")] == gi
        assert [i for i, t in kept_by.items() if t in ("local", "both")] == drawn
        assert res.retained_indices.tolist() == merged
        np.testing.assert_allclose(res.compressed_tokens, y_prime, atol=1e-9)
        assert res.ratio == len(merged) / 16

    def test_frozen_golden_values(self, clone_bundle, clone_density_cfg):
        res = compress_subimage(
            clone_bundle, clone_density_cfg, SelectionConfig(seed=self.SEED)
        )
        assert res.retained_indices.tolist() == [12, 13, 14, 15]
        assert res.ratio == 0.25
        assert res.branch_provenance == ["both", "both", "both", "both"]


class TestCompressDocument:
    def test_single_global_passthrough(self):
        g = dataclasses.replace(_uniform_bundle(), is_global=True)
        results = compress_document([g])
        assert len(results) == 1
        assert results[0].is_global_passthrough
        np.testing.assert_array_equal(results[0].compressed_tokens, g.y_last)
        assert results[0].ratio == 1.0

    def test_identical_bundles_identical_results(self):
        bundle = generate(SyntheticSpec(n_tokens=12, dim=16, redundancy_fraction=0.5, seed=3))
        bundles = [dataclasses.replace(bundle, image_id=f"crop_{i}") for i in range(4)]
        cfg = SelectionConfig(seed=5)
        results = compress_document(bundles, DensityConfig(alpha=0.7, limit_k=2), cfg)
        first = results[0]
        for res in results[1:]:
            assert res.retained_indices.tolist() == first.retained_indices.tolist()
            assert np.array_equal(res.compressed_tokens, first.compressed_tokens)

    def test_multiple_globals_rejected(self):
        a = dataclasses.replace(_uniform_bundle(seed=1), is_global=True)
        b = dataclasses.replace(_uniform_bundle(seed=2), is_global=True)
        with pytest.raises(MultipleGlobalImagesError, match="^subimage 1 is a second global image$"):
            compress_document([a, b])

    def test_repeated_image_id_rejected(self):
        a = _uniform_bundle(seed=1)
        with pytest.raises(TokzipError, match="^subimage 1: image_id 'synthetic_1' repeats"):
            compress_document([a, dataclasses.replace(a, attn_low=a.attn_low[::-1])])

    def test_ratios_decrease_with_redundancy(self):
        dcfg = DensityConfig(alpha=0.7, limit_k=3)
        bundles = [
            generate(SyntheticSpec(n_tokens=40, dim=48, redundancy_fraction=rho, seed=9))
            for rho in (0.2, 0.5, 0.8)
        ]
        bundles = [dataclasses.replace(b, image_id=f"crop_{i}") for i, b in enumerate(bundles)]
        results = compress_document(bundles, dcfg, SelectionConfig(seed=0))
        ratios = [r.ratio for r in results]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_order_preserved_and_counts_bounded(self):
        g = dataclasses.replace(_uniform_bundle(seed=4), is_global=True)
        bundles = [
            generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=0.5, seed=s))
            for s in (1, 2)
        ]
        results = compress_document([bundles[0], g, bundles[1]],
                                    DensityConfig(alpha=0.7, limit_k=2))
        assert [r.is_global_passthrough for r in results] == [False, True, False]
        for r in results:
            assert r.retained_indices.size <= r.n_original


class TestCorpusStats:
    def test_single_result(self):
        stats = corpus_stats([0.5])
        s = stats["datasets"]["all"]
        assert s["q1"] == s["median"] == s["q3"] == 0.5
        assert sum(s["histogram"]) == 1
        assert s["histogram"][10] == 1  # 0.5 lands in bin [0.50, 0.55)

    def test_quartiles(self):
        stats = corpus_stats([0.1, 0.2, 0.3, 0.4, 0.5])
        s = stats["datasets"]["all"]
        assert s["median"] == pytest.approx(0.3)
        assert s["q1"] == pytest.approx(0.2)
        assert s["q3"] == pytest.approx(0.4)

    def test_labels_partition(self):
        stats = corpus_stats([0.1, 0.9, 0.2, 0.8], ["a", "b", "a", "b"])
        assert stats["datasets"]["a"]["mean"] == pytest.approx(0.15)
        assert stats["datasets"]["b"]["mean"] == pytest.approx(0.85)

    def test_histogram_sums_to_count(self):
        s = corpus_stats(np.linspace(0.01, 1.0, 37))["datasets"]["all"]
        assert sum(s["histogram"]) == 37

    def test_histogram_matches_per_value_binning(self):
        ratios = np.linspace(0.0, 1.0, 201)  # every bin edge, and 1.0 in the last bin
        want = [0] * 20
        for x in ratios:
            want[min(int(x / 0.05), 19)] += 1
        assert corpus_stats(ratios)["datasets"]["all"]["histogram"] == want

    def test_empty_rejected(self):
        with pytest.raises(EmptyCorpusError):
            corpus_stats([])

    @pytest.mark.parametrize("bad", [-0.3, 1.7, np.nan])
    def test_ratio_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="position 1"):
            corpus_stats([0.5, bad])
