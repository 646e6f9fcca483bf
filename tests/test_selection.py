import itertools
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokzip import (
    SelectionConfig,
    global_select,
    local_sample_count,
    local_select,
    merge_indices,
    select_tokens,
)
from tokzip.errors import EmptyInputError, InsufficientSupportError, NonFiniteValueError
from tokzip.harness import IQR_TIES, chi2_sf, oracle_global_select


class TestGlobalSelect:
    def test_all_equal_gives_empty(self):
        assert global_select(np.full(8, 0.125)).size == 0

    def test_single_spike(self):
        assert global_select([1, 1, 1, 1, 1, 1, 1, 10]).tolist() == [7]

    def test_matches_fence_oracle(self, rng):
        scores = rng.uniform(0, 1, size=64)
        assert global_select(scores).tolist() == oracle_global_select(scores)

    def test_scale_invariance(self, rng):
        scores = rng.uniform(0, 1, size=40)
        base = global_select(scores).tolist()
        for c in (0.001, 3.0, 1e6):
            assert global_select(scores * c).tolist() == base

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            global_select([])

    @pytest.mark.parametrize("scores,want", IQR_TIES)
    def test_the_fence_is_exact(self, scores, want):
        # The exact fence and its float64 evaluation fall on either side of a score.
        assert global_select(scores).tolist() == want
        assert oracle_global_select(scores) == want

    def test_a_fence_beyond_the_float_range_keeps_nothing(self):
        scores = [1.0, 2.0, 3.0, 4.0, 1e308]  # iqr_factor * (Q3 - Q1) is twice the largest double
        cfg = SelectionConfig(iqr_factor=sys.float_info.max)
        assert global_select(scores, cfg).tolist() == []
        assert oracle_global_select(scores, sys.float_info.max) == []
        assert global_select(scores).tolist() == oracle_global_select(scores) == [4]


@pytest.mark.parametrize("iqr_factor", [0.0, -1.0, float("nan"), float("inf")])
def test_iqr_factor_must_be_finite_and_positive(iqr_factor):
    with pytest.raises(ValueError, match="iqr_factor"):
        SelectionConfig(iqr_factor=iqr_factor)


class TestLocalSampleCount:
    @pytest.mark.parametrize(
        "d,n,expected",
        [(0.25, 4, 1), (0.0, 100, 0), (1 / 3, 576, 192), (1.0, 10, 10), (0.5, 3, 2)],
    )
    def test_rounding(self, d, n, expected):
        assert local_sample_count(d, n) == expected

    def test_half_rounds_away_from_zero(self):
        assert local_sample_count(0.5, 5) == 3  # 2.5 -> 3

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            local_sample_count(1.2, 4)
        with pytest.raises(ValueError):
            local_sample_count(0.5, 0)


class TestLocalSelect:
    def test_degenerate_distribution(self):
        assert local_select([0, 0, 1, 0], 1).tolist() == [2]

    def test_m_zero(self):
        assert local_select([0.3, 0.7], 0).size == 0

    def test_insufficient_support(self):
        with pytest.raises(InsufficientSupportError):
            local_select([0.0, 1.0, 0.0], 2)

    def test_no_duplicates_and_exact_size(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            attn = rng.uniform(0.01, 1, size=n)
            m = int(rng.integers(0, n + 1))
            j = local_select(attn, m, SelectionConfig(seed=int(rng.integers(1 << 31))))
            assert j.size == m
            assert len(set(j.tolist())) == m

    def test_seed_determinism(self):
        attn = [0.5, 0.1, 0.2, 0.2]
        a = local_select(attn, 2, SelectionConfig(seed=42))
        b = local_select(attn, 2, SelectionConfig(seed=42))
        assert a.tolist() == b.tolist()

    def test_zero_probability_never_sampled(self, rng):
        attn = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        for seed in range(200):
            j = local_select(attn, 2, SelectionConfig(seed=seed))
            assert set(j.tolist()) == {1, 3}

    def test_first_draw_frequency(self):
        from tokzip.harness import first_draw_frequency

        freq = first_draw_frequency([0.7, 0.2, 0.1], 0, 20_000, seed=3)
        assert freq == pytest.approx(0.7, abs=0.02)

    def test_total_beyond_float64_is_refused(self):
        # An inf cumsum would clamp every draw to the last index.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused without a numpy overflow warning first
            with pytest.raises(NonFiniteValueError, match="attn_low sums past the float64 range"):
                local_select([1e308, 1e308, 1.0], 1, SelectionConfig(seed=0))

    def test_subnormal_total_draws_no_zero_score_or_duplicate(self):
        # u = rng.random() * cum[-1] can round up to a subnormal cum[-1]
        for seed in range(200):
            cfg = SelectionConfig(seed=seed)
            assert local_select([5e-324, 0.0], 1, cfg).tolist() == [0]
            assert local_select([5e-324, 0.0, 5e-324], 2, cfg).tolist() == [0, 2]

    def test_full_support_over_wide_range(self):
        attn = np.array([1e-300, 1e300, 3.0, 0.0, 1e-150, 5e-324, 1e150, 2e-10])
        positive = np.flatnonzero(attn).tolist()
        for seed in range(50):
            assert local_select(attn, len(positive), SelectionConfig(seed=seed)).tolist() == positive

    def test_first_draw_is_the_single_draw(self):
        w = np.array([0.31, 0.07, 0.22, 0.05, 0.35])
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cum = np.cumsum(w)
            first = int(np.searchsorted(cum, rng.random() * cum[-1], "right"))
            assert local_select(w, 1, SelectionConfig(seed=seed)).tolist() == [first]
            assert first in local_select(w, 3, SelectionConfig(seed=seed)).tolist()

    def test_weighted_subsets_follow_successive_sampling(self):
        w = [0.4, 0.25, 0.15, 0.12, 0.08]
        exact = {}
        for order in itertools.permutations(range(5), 3):
            p, left = Fraction(1), sum(map(Fraction, w))
            for i in order:
                p *= Fraction(w[i]) / left
                left -= Fraction(w[i])
            key = tuple(sorted(order))
            exact[key] = exact.get(key, 0) + p
        assert sum(exact.values()) == 1
        trials = 60_000
        rng = np.random.default_rng(12)
        counts = Counter(tuple(local_select(w, 3, rng=rng).tolist()) for _ in range(trials))
        assert set(counts) <= set(exact)
        expected = {s: float(p) * trials for s, p in exact.items()}
        chi2 = sum((counts[s] - e) ** 2 / e for s, e in expected.items())
        assert chi2_sf(chi2, len(exact) - 1) > 0.001


class TestMergeIndices:
    def test_union(self):
        out = merge_indices([3, 1], [1, 5], attn_low=np.ones(6))
        assert out.tolist() == [1, 3, 5]

    def test_fallback_picks_argmax(self):
        out = merge_indices([], [], attn_low=[0.1, 0.9], cfg=SelectionConfig(min_retained=1))
        assert out.tolist() == [1]

    def test_fallback_tie_breaks_low_index(self):
        out = merge_indices([], [], attn_low=[0.5, 0.5, 0.5], cfg=SelectionConfig(min_retained=2))
        assert out.tolist() == [0, 1]

    def test_full_retention(self):
        n = 10
        out = merge_indices(list(range(n)), [2, 4], attn_low=np.ones(n))
        assert out.tolist() == list(range(n))


def test_select_tokens_determinism(rng):
    attn_deep = rng.uniform(0, 1, 20)
    attn_low = rng.uniform(0.01, 1, 20)
    cfg = SelectionConfig(seed=11)
    a = select_tokens(attn_deep, attn_low, 0.4, cfg)
    b = select_tokens(attn_deep, attn_low, 0.4, cfg)
    assert a.merged_indices.tolist() == b.merged_indices.tolist()
    assert a.global_indices.tolist() == b.global_indices.tolist()
    assert a.local_indices.tolist() == b.local_indices.tolist()


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=50, deadline=None)
def test_merged_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    attn_deep = rng.uniform(0, 1, n)
    attn_low = rng.uniform(0.01, 1, n)
    d = float(rng.uniform(0, 1))
    res = select_tokens(attn_deep, attn_low, d, SelectionConfig(seed=seed))
    merged = res.merged_indices
    assert merged.size >= 1
    assert np.all((0 <= merged) & (merged < n))
    assert np.array_equal(merged, np.unique(merged))
    assert set(merged.tolist()) >= set(res.global_indices.tolist()) | set(res.local_indices.tolist())
