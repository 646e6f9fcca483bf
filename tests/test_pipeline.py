import dataclasses

import numpy as np
import pytest

from tokzip import (
    AggregationConfig,
    DensityConfig,
    SelectionConfig,
    SelectionResult,
    SyntheticSpec,
    compress_document,
    compress_subimage,
    corpus_stats,
    generate,
)
from tokzip.errors import (
    EmptyCorpusError,
    GlobalImageRejectedError,
    MultipleGlobalImagesError,
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


def test_global_image_rejected():
    bundle = dataclasses.replace(_uniform_bundle(), is_global=True)
    with pytest.raises(GlobalImageRejectedError):
        compress_subimage(bundle)


def test_branch_tags_and_counts():
    sel = SelectionResult(global_indices=np.array([1, 4]), local_indices=np.array([4, 7]),
                          merged_indices=np.array([0, 1, 4, 7]))
    res = compress_subimage(_uniform_bundle(), select=lambda *_: sel)
    assert res.branch_provenance == ["fallback", "global", "both", "local"]
    assert res.provenance_counts() == {"fallback": 1, "global": 1, "local": 1, "both": 1}
    assert res.ratio == 4 / 9


class TestHandTrace:
    """Step-by-step trace of the full pipeline on the 75%-clone bundle.

    Every stage is recomputed here with independent oracle code (plus a
    replication of the sequential sampling draws on the same seeded
    generator), and the final values are also frozen as literals.
    """

    SEED = 1

    def _trace(self, bundle, alpha, limit_k, knn_k):
        n = bundle.n_tokens
        n_red, mask = oracle_density(bundle.keys_low, alpha, limit_k)
        d = 1 - n_red / n
        gi = oracle_global_select(bundle.attn_deep)
        m = int(np.floor(d * n + 0.5))
        # sequential renormalized draws on an identically seeded generator
        rng = np.random.default_rng(self.SEED)
        weights = np.asarray(bundle.attn_low, dtype=np.float64).copy()
        drawn = []
        for _ in range(m):
            cum = np.cumsum(weights)
            u = rng.random() * cum[-1]
            idx = int(np.searchsorted(cum, u, side="right"))
            drawn.append(min(idx, n - 1))
            weights[drawn[-1]] = 0.0
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
        bundles = [
            generate(SyntheticSpec(n_tokens=12, dim=16, redundancy_fraction=0.5, seed=3))
            for _ in range(4)
        ]
        cfg = SelectionConfig(seed=5)
        results = compress_document(bundles, DensityConfig(alpha=0.7, limit_k=2), cfg)
        first = results[0]
        for res in results[1:]:
            assert res.retained_indices.tolist() == first.retained_indices.tolist()
            assert np.array_equal(res.compressed_tokens, first.compressed_tokens)

    def test_multiple_globals_rejected(self):
        a = dataclasses.replace(_uniform_bundle(seed=1), is_global=True)
        b = dataclasses.replace(_uniform_bundle(seed=2), is_global=True)
        with pytest.raises(MultipleGlobalImagesError):
            compress_document([a, b])

    def test_ratios_decrease_with_redundancy(self):
        dcfg = DensityConfig(alpha=0.7, limit_k=3)
        bundles = [
            generate(SyntheticSpec(n_tokens=40, dim=48, redundancy_fraction=rho, seed=9))
            for rho in (0.2, 0.5, 0.8)
        ]
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
