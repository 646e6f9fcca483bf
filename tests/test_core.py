import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokzip import normalize_rows, quantile, similarity_matrix
from tokzip.errors import DimensionMismatchError, EmptyInputError, ZeroRowError


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows([[3.0, 4.0]])
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_already_unit(self):
        out = normalize_rows([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]])

    def test_random_rows_become_unit(self, rng):
        k = rng.standard_normal((8, 16))
        norms = np.linalg.norm(normalize_rows(k), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowError) as exc:
            normalize_rows([[1.0, 0.0], [0.0, 0.0]])
        assert exc.value.index == 1

    def test_idempotent(self, rng):
        k = rng.standard_normal((5, 7))
        once = normalize_rows(k)
        np.testing.assert_allclose(normalize_rows(once), once, atol=1e-6)

    @pytest.mark.filterwarnings("error")  # one fault, one error: no overflow warning first
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_norm_rejected(self, rng, bad):
        k = rng.standard_normal((5, 4))
        k[3, 1] = bad  # 1e200 squared overflows, so its norm is inf
        with pytest.raises(DimensionMismatchError, match="key row 3"):
            normalize_rows(k)


class TestSimilarityMatrix:
    def test_orthogonal_pair(self):
        s = similarity_matrix([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(s, np.eye(2))

    def test_identical_pair(self):
        s = similarity_matrix([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(s, np.ones((2, 2)))

    def test_matches_double_loop_oracle(self, rng):
        k = normalize_rows(rng.standard_normal((6, 4)))
        s = similarity_matrix(k)
        for i in range(6):
            for j in range(6):
                expect = sum(k[i][t] * k[j][t] for t in range(4))
                assert abs(s[i][j] - expect) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            similarity_matrix(np.empty((0, 4)))
        with pytest.raises(DimensionMismatchError):
            similarity_matrix(np.ones((2, 4)), np.empty((0, 4)))

    def test_second_operand(self, rng):
        a = normalize_rows(rng.standard_normal((3, 5)))
        b = normalize_rows(rng.standard_normal((7, 5)))
        np.testing.assert_array_equal(similarity_matrix(a, b), a @ b.T)
        np.testing.assert_array_equal(similarity_matrix(a, a), similarity_matrix(a))
        with pytest.raises(DimensionMismatchError):
            similarity_matrix(a, b[:, :4])

    def test_normalized_similarity_invariants(self, rng):
        k = rng.standard_normal((10, 6))
        s = similarity_matrix(normalize_rows(k))
        np.testing.assert_allclose(s, s.T, atol=1e-5)
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-5)
        assert np.all(s >= -1 - 1e-5) and np.all(s <= 1 + 1e-5)


class TestQuantile:
    def test_midpoint_even(self):
        assert quantile([1, 2, 3, 4], 0.5) == 2.5

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 1.0])
    def test_singleton(self, q):
        assert quantile([5], q) == 5

    def test_flat_tail(self):
        # p = 0.75 * 7 = 5.25 lands between two equal order statistics
        assert quantile([1, 1, 1, 1, 1, 1, 1, 10], 0.75) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            quantile([], 0.5)

    def _oracle(self, values, q):
        v = sorted(values)
        p = q * (len(v) - 1)
        lo, hi = int(np.floor(p)), int(np.ceil(p))
        return v[lo] + (p - lo) * (v[hi] - v[lo])

    def test_exhaustive_small_cases(self):
        # every list of length <= 4 over digits 0..9 would be 10^4 lists; sample
        # the full length<=2 space plus all 3-digit combos, at several q values
        lists = [[a] for a in range(10)]
        lists += [[a, b] for a in range(10) for b in range(10)]
        lists += [list(t) for t in itertools.combinations_with_replacement(range(10), 3)]
        for values in lists:
            for q in (0.0, 0.25, 0.4, 0.5, 0.75, 1.0):
                assert quantile(values, q) == pytest.approx(self._oracle(values, q), abs=1e-12)

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_q_and_matches_oracle(self, values, q1, q2):
        lo, hi = sorted((q1, q2))
        assert quantile(values, lo) <= quantile(values, hi)
        assert quantile(values, q1) == pytest.approx(self._oracle(values, q1), abs=1e-9)
