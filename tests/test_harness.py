import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tokzip.core
import tokzip.harness
from tokzip import (
    DensityConfig,
    SelectionConfig,
    SyntheticSpec,
    baseline_select,
    compress_subimage,
    compute_density,
    generate,
    global_select,
    local_sample_count,
)
from tokzip.errors import InfeasibleSpecError
from tokzip.aggregation import AggregationConfig, aggregate
from tokzip.harness import (TIE_KNN_KEYS, chi2_sf, oracle_aggregate, oracle_density,
                            tie_keys_7_10, uniform_subset_chisquare)


class TestGenerate:
    def test_zero_redundancy_full_density(self):
        b = generate(SyntheticSpec(n_tokens=12, dim=16, redundancy_fraction=0.0, seed=0))
        rep = compute_density(b.keys_low, DensityConfig(alpha=0.7, limit_k=0))
        assert rep.density == 1.0

    def test_clone_cluster_density(self):
        b = generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=0.75, seed=0))
        rep = compute_density(b.keys_low, DensityConfig(alpha=0.7, limit_k=3))
        assert rep.density == 0.25

    def test_within_cluster_similarity(self):
        b = generate(SyntheticSpec(n_tokens=20, dim=24, redundancy_fraction=0.5, seed=2))
        k = np.asarray(b.keys_low)
        kn = k / np.linalg.norm(k, axis=1, keepdims=True)
        clones = kn[:10]
        sims = clones @ clones.T
        assert sims[np.triu_indices(10, 1)].min() > 0.99
        uniques = kn[10:]
        cross = uniques @ uniques.T
        np.fill_diagonal(cross, 0.0)
        assert np.abs(cross).max() < 0.1

    def test_outlier_profile_hits_global_select(self):
        b = generate(SyntheticSpec(n_tokens=30, dim=36, redundancy_fraction=0.5,
                                   attention_profile="outliers", outlier_count=2, seed=3))
        # boosted indices are the first two unique tokens
        assert global_select(b.attn_deep).tolist() == [15, 16]

    def test_infeasible_dim(self):
        with pytest.raises(InfeasibleSpecError):
            generate(SyntheticSpec(n_tokens=10, dim=4, redundancy_fraction=0.0))

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n_tokens=10, dim=14, redundancy_fraction=0.4, seed=5)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.keys_low, b.keys_low)
        assert np.array_equal(a.y_last, b.y_last)

    def test_realized_density_equals_construction(self):
        # large single clusters so the shipped limit_k=50 still catches them
        for seed in range(5):
            for rho in (0.2, 0.5, 0.9):
                n = 576
                b = generate(SyntheticSpec(n_tokens=n, dim=n + 1,
                                           redundancy_fraction=rho, seed=seed))
                rep = compute_density(b.keys_low, DensityConfig())
                assert rep.n_redundant == round(rho * n)


def _density(bundle, cfg=DensityConfig()):
    return compute_density(bundle.keys_low, cfg).density


class TestBaselines:
    def _bundle(self, seed=0):
        return generate(SyntheticSpec(n_tokens=24, dim=30, redundancy_fraction=0.5, seed=seed))

    def test_fixed_ratio_one_keeps_all(self):
        b = self._bundle()
        sel = baseline_select("fixed", b.attn_deep, b.attn_low, _density(b), ratio=1.0)
        assert sel.merged_indices.tolist() == list(range(24))

    def test_uniform_full_m_keeps_all(self):
        b = generate(SyntheticSpec(n_tokens=12, dim=16, redundancy_fraction=0.0, seed=1))
        sel = baseline_select("uniform", b.attn_deep, b.attn_low,
                              _density(b, DensityConfig(alpha=0.7, limit_k=0)))
        assert sel.merged_indices.tolist() == list(range(12))

    def test_random_size_matches_adaptive_m(self):
        b = self._bundle()
        dcfg = DensityConfig(alpha=0.7, limit_k=3)
        sel = baseline_select("random", b.attn_deep, b.attn_low, _density(b, dcfg),
                              SelectionConfig(seed=4))
        d = compute_density(b.keys_low, dcfg).density
        assert sel.merged_indices.size == round(d * 24)
        assert len(set(sel.merged_indices.tolist())) == sel.merged_indices.size

    def test_fixed_half_within_one_token(self):
        b = self._bundle()
        sel = baseline_select("fixed", b.attn_deep, b.attn_low, _density(b), ratio=0.5)
        assert abs(sel.merged_indices.size - 0.5 * 24) <= 1

    def test_unknown_method(self):
        b = self._bundle()
        with pytest.raises(ValueError):
            baseline_select("bogus", b.attn_deep, b.attn_low, _density(b))

    def test_uniform_keeps_exactly_m_evenly_spaced(self):
        n = 576
        attn = np.full(n, 1.0 / n)
        for d in np.linspace(0.0, 1.0, 401).tolist() + [0.9]:
            m = local_sample_count(d, n)
            kept = baseline_select("uniform", attn, attn, d).merged_indices
            assert kept.size == max(m, 1), d  # d=0 keeps the one fallback token
            if m:
                assert kept.tolist() == [i * n // m for i in range(m)], d
        assert kept.size == 518  # d=0.9

    @pytest.mark.parametrize("method,ratio", [("random", None), ("uniform", None), ("fixed", 0.0)])
    def test_empty_choice_gets_the_merge_fallback(self, method, ratio):
        # 16 clones: every token is redundant, so d=0 and the adaptive m is 0
        b = generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=1.0,
                                   attention_profile="concentrated", seed=2))
        dcfg = DensityConfig(alpha=0.7, limit_k=3)
        adaptive = compress_subimage(b, dcfg)
        assert adaptive.density_report.density == 0.0
        res = compress_subimage(b, dcfg, select=functools.partial(baseline_select, method,
                                                                  ratio=ratio))
        assert res.retained_indices.tolist() == adaptive.retained_indices.tolist()
        assert res.retained_indices.size == 1 and res.branch_provenance == ["fallback"]


class TestOracles:
    def test_density_oracle_takes_rows_whose_squares_overflow(self):
        keys = np.array([[1e300, 1e300], [1.0, 1.0]])
        n, mask = oracle_density(keys, 0.5, 0)
        assert (n, mask.tolist()) == (2, [True, True])
        want = compute_density(keys, DensityConfig(alpha=0.5, limit_k=0)).redundant_mask
        assert mask.tolist() == want.tolist()

    def test_aggregation_oracle_is_scale_free(self, rng):
        y, keys, attn = rng.standard_normal((12, 4)), rng.standard_normal((12, 6)), rng.random(12)
        scaled = keys.copy()
        scaled[5] *= 2.0**1000  # its squares overflow float64
        want = oracle_aggregate(y, keys, attn, [0, 5, 9], 3)
        np.testing.assert_array_equal(oracle_aggregate(y, scaled, attn, [0, 5, 9], 3), want)

    def test_oracles_call_nothing_they_check(self, rng, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("an oracle called the code it checks")

        for name in ("_exact", "_exceeds", "cosines"):
            monkeypatch.setattr(tokzip.core.CosineKeys, name, boom)
        for module in (tokzip.core, tokzip.harness):
            for name in ("CosineKeys", "key_row_norms", "similarity_matrix"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, boom)
        y, keys, attn = rng.standard_normal((20, 4)), rng.standard_normal((20, 6)), rng.random(20)
        oracle_density(keys, 0.2, 1)
        oracle_aggregate(y, keys, attn, [1, 7], 2)
        # The ties below take the oracles' exact paths.
        assert oracle_density(tie_keys_7_10(), 0.7, 58)[0] == 60
        y, keys = rng.standard_normal((12, 4)), np.array(TIE_KNN_KEYS, dtype=np.float64)
        oracle_aggregate(y, keys, rng.random(12), [0], 5)

    @pytest.mark.parametrize("count_self", [False, True])
    def test_density_oracle_decides_the_7_10_tie(self, count_self):
        # Every cosine is exactly 7/10, above the double alpha = 0.7; a float64
        # product rounds some of them to it or below.
        keys = tie_keys_7_10()
        cfg = DensityConfig(alpha=0.7, limit_k=58, count_self=count_self)
        n, mask = oracle_density(keys, 0.7, 58, count_self)
        assert (n, mask.all()) == (60, True)
        np.testing.assert_array_equal(mask, compute_density(keys, cfg).redundant_mask)

    @pytest.mark.parametrize("seed", range(5))
    def test_aggregation_oracle_decides_the_cosine_0_tie(self, seed):
        # Rows 6 and 9 have cosine exactly 0 with row 0; row 6, the lower index,
        # is its 5th neighbour.
        rng = np.random.default_rng(seed)
        keys = np.array(TIE_KNN_KEYS, dtype=np.float64)
        y, attn = rng.standard_normal((12, 4)), rng.uniform(0.01, 1.0, size=12)
        group = [0, 2, 8, 5, 7, 6]  # row 0 itself, then its 5 neighbours
        want = attn[group] @ y[group] / attn[group].sum()
        got = oracle_aggregate(y, keys, attn, [0], 5)
        np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-12)
        lib = aggregate(y, keys, attn, [0], AggregationConfig(knn_k=5))
        np.testing.assert_allclose(got, lib, rtol=0, atol=1e-12)

    def test_aggregation_oracle_keeps_the_callers_order(self, rng):
        y, keys, attn = rng.standard_normal((20, 4)), rng.standard_normal((20, 6)), rng.random(20)
        got = oracle_aggregate(y, keys, attn, [9, 2, 14], 3)
        want = aggregate(y, keys, attn, [9, 2, 14], AggregationConfig(knn_k=3))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_exact_comparisons_only_inside_the_margin(self, rng, monkeypatch):
        pairs = []

        def counting(keys, i, j, rows):
            pairs.append(len(i))
            return exact(keys, i, j, rows)

        exact = tokzip.harness._exact_cosines
        monkeypatch.setattr(tokzip.harness, "_exact_cosines", counting)
        keys = rng.standard_normal((64, 16))
        _, mask = oracle_density(keys, 0.3, 2)
        np.testing.assert_array_equal(
            mask, compute_density(keys, DensityConfig(alpha=0.3, limit_k=2)).redundant_mask)
        assert sum(pairs) == 0
        oracle_density(tie_keys_7_10(), 0.7, 58)
        assert sum(pairs) == 60 * 59  # every pair but a row with itself, each way


class TestChi2Sf:
    @pytest.mark.parametrize("df", [*range(1, 61), 99, 499, 2000])
    def test_matches_scipy(self, df):
        from scipy import stats

        assert chi2_sf(0, df) == 1.0
        for x in np.linspace(0.0, 3 * df + 60, 241):
            want = float(stats.chi2.sf(x, df))
            if want > 1e-12:
                assert abs(chi2_sf(x, df) - want) <= 1e-9 * want, (x, df)

    def test_negative_x(self):
        assert chi2_sf(-1.0, 3) == 1.0

    def test_selftest_subset_values(self):
        chi2, p = uniform_subset_chisquare(5, 2, 50_000, seed=404)
        assert chi2 == pytest.approx(6.3812, abs=1e-12)
        assert abs(p - 0.7012426390301577) <= 1e-12


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, tokzip, tokzip.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
