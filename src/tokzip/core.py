"""Shared numerical kernels: row normalization, cosine similarity, quantiles.

Every keep/drop decision is defined on the exact cosine of two key rows as
given, a·b / (|a| |b|), so no decision depends on BLAS rounding, kernel or
thread count. Both decisions are CosineKeys methods that walk the same upper
block triangle: `peer_counts` (density's `cosine > alpha`) and `nearest`
(aggregation's k-NN order). Each decides in three tiers: a float32 GEMM of
unit rows with a rigorous error bound, a float64 recheck of the few entries
the bound leaves open, and the exact sign(cos) cos^2, a fraction, for the rest.
"""

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import (DimensionMismatchError, EmptyInputError, NeighborCountExceedsTokensError,
                     NonFiniteValueError, ZeroRowError)

# Row norms below this are treated as zero.
ZERO_NORM_EPS = 1e-12

# Rows per block in the O(N^2) kernels (density, aggregation): a block's
# similarities take BLOCK_ROWS x N float32, whatever N is.
BLOCK_ROWS = 256


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float array without copying when already compliant.

    float32 stays float32, the precision of tensors at rest; the exact
    tiers and aggregate upcast only the rows they gather. Others become float64.
    """
    arr = np.asarray(a)
    arr = arr.astype(np.float32 if arr.dtype == np.float32 else np.float64, copy=False)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def as_vector(a, name="vector"):
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got ndim={arr.ndim}")
    return arr


def check_finite(arr, name="array"):
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(np.ravel(arr)))[0])
        raise NonFiniteValueError(f"{name} contains a non-finite value at flat index {bad}")


def check_attention_vector(scores, name="attention"):
    """Validate a CLS->patch attention vector: finite, nonnegative, not all zero, finite sum."""
    v = as_vector(scores, name)
    if v.size == 0:
        raise EmptyInputError(f"{name} is empty")
    check_finite(v, name)
    if np.any(v < 0):
        bad = int(np.flatnonzero(v < 0)[0])
        raise DimensionMismatchError(f"{name} has a negative entry at index {bad}")
    if not np.any(v > 0):
        raise EmptyInputError(f"{name} has no positive entry")
    with np.errstate(over="ignore"):  # inf on overflow; a finite sum keeps every cumsum finite
        if not np.isfinite(v.sum()):
            raise NonFiniteValueError(f"{name} sums past the float64 range")
    return v


def key_row_norms(keys, name="key"):
    """Row norms of a key matrix, each finite and at least ZERO_NORM_EPS: the key-row rule.

    One einsum sums the squares in float64, casting float32 keys as it reads
    them, so they give their float64 upcast's norms without a copy. A row
    whose squares overflow is scaled by a power of two before squaring and
    its norm scaled back, so only a norm beyond float64 overflows. The
    scaling is exact except for entries below 2^-1022 times the row's
    largest, whose squares vanish beside its square anyway. A NaN or inf entry, or a norm beyond float64,
    raises NonFiniteValueError. A zero key has no direction, so cosine
    similarity against it is undefined: ZeroRowError.
    """
    k = as_matrix(keys, name)
    if k.shape[0] == 0:
        raise DimensionMismatchError(f"{name} matrix has no rows")
    with np.errstate(over="ignore"):  # an overflowed norm is inf, refused below
        norms = np.sqrt(np.einsum("ij,ij->i", k, k, dtype=np.float64))
        over = np.flatnonzero(norms == np.inf)
        if over.size:
            block = k[over].astype(np.float64)
            _, e = np.frexp(np.abs(block).max(axis=1))  # inf entries keep e = 0, and norm inf
            block = np.ldexp(block, -e[:, None])
            norms[over] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", block, block)), e)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise NonFiniteValueError(f"{name} row {int(bad[0])} has a non-finite norm")
    small = np.flatnonzero(norms < ZERO_NORM_EPS)
    if small.size:
        raise ZeroRowError(int(small[0]), name)
    return norms


def normalize_rows(keys):
    """Scale every row of a key matrix to unit Euclidean norm (rows as key_row_norms checks)."""
    k = as_matrix(keys)
    return k / key_row_norms(k)[:, None]


def similarity_matrix(a, b=None):
    """Cosine similarities of unit-normalized rows: S = A B^T, with B = A by default.

    float32 operands stay float32 (the filter GEMM of CosineKeys); any other
    input is computed in float64. It is the only GEMM entry point.
    """
    a = as_matrix(a)
    b = a if b is None else as_matrix(b)
    if a.size == 0 or b.size == 0:
        raise DimensionMismatchError("cannot build a similarity matrix from an empty matrix")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(f"row lengths differ: {a.shape[1]} vs {b.shape[1]}")
    return a @ b.T


# Unit roundoff, and the smallest normal number: one operation that underflows,
# flushed to zero or not, is off by less than that.
_ROUNDOFF = {"float32": (2.0**-24, 2.0**-126), "float64": (2.0**-53, 2.0**-1022)}


def _gamma(n, u):
    """gamma_n = n u / (1 - n u), the relative error of n roundings of roundoff u."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


def cosine_error_bound(d, precision):
    """Bound eps on |computed similarity - exact cosine| of two key rows of length d.

    precision "float32" is the filter: float32 unit rows from
    CosineKeys._unit_rows, multiplied by a float32 GEMM. "float64" is the
    recheck: unit rows divided and their dot product taken in float64
    (CosineKeys.cosines).

    Derivation, with u = 2^-53 and a row a whose norm is at least
    ZERO_NORM_EPS. The float64 norm (a sum of d squares in any order, then a
    square root) is |a| (1 + theta_a) with |theta_a| <= theta = gamma_{d+1}
    plus the underflow of squares, 4 d 2^-1022 / ZERO_NORM_EPS^2 (a row that
    key_row_norms scales by a power of two has a scaled norm of at least 1/2,
    so its scaling's and squares' underflow fit in that term). A computed
    unit entry is v_t = a_t / |a| (1 + rho_t) + eta_t. The recheck divides
    by the norm: one rounding, r = u. The filter multiplies by the norm's
    float64 reciprocal, at least 2^-1024 since the norm is finite, so it is
    off by a relative r = 4u at most, subnormal or not; then it either casts
    the reciprocal to float32 and multiplies in float32, or multiplies in
    float64 and casts the product: two more roundings, each of roundoff at
    most u_c = 2^-24 (u_c = 0 in the recheck). These give |rho_t| <= rho =
    (r + (1 + r) u_c (2 + u_c) + theta) / (1 - theta), and underflow gives
    |eta_t| <= eta = 2 tiny, with tiny the smallest normal of the precision.
    With delta = rho + eta sqrt(d), and sum |a_t| / |a| <= sqrt(d), the exact
    dot product of two computed unit rows is within (1 + delta)^2 - 1 of the
    exact cosine, and sum |v_t w_t| <= (1 + delta)^2. A dot product of length d
    in any summation order, with or without FMA, adds gamma_d (1 + delta)^2
    for rounding and d eta for products and sums that underflow. So

        eps = (2 delta + delta^2) (1 + gamma_d) + gamma_d + d eta,

    with gamma_d at the precision's roundoff: about 6.1e-5 in float32 and
    3.4e-13 in float64 at d = 1024. It is rounded up by a relative 2^-20,
    far more than the float64 rounding of evaluating it, of alpha +- eps,
    and of the differences it is compared with. From d = 2^24 in float32 it
    is inf, and the filter decides nothing.
    """
    u_gemm, tiny = _ROUNDOFF[precision]
    u = _ROUNDOFF["float64"][0]
    r, u_c = (4 * u, u_gemm) if precision == "float32" else (u, 0.0)
    theta = _gamma(d + 1, u) + 4 * d * _ROUNDOFF["float64"][1] / ZERO_NORM_EPS**2
    rho = (r + (1 + r) * u_c * (2 + u_c) + theta) / (1.0 - theta)
    eta = 2 * tiny
    delta = rho + eta * math.sqrt(d)
    gamma = _gamma(d, u_gemm)
    return ((2 * delta + delta * delta) * (1 + gamma) + gamma + d * eta) * (1 + 2.0**-20)


class CosineKeys:
    """Key rows prepared for decisions on their exact cosines: `peer_counts` and `nearest`.

    keys:  the rows as given, float32 or float64; the exact tiers upcast
           only the rows they gather
    norms: their float64 norms, key_row_norms(keys, name)
    eps:   cosine_error_bound in float32: a float32 similarity of two unit
           rows is within eps of their exact cosine
    eps64: the same bound for `cosines`

    Each decision builds its float32 unit rows inside the call and drops them
    (_unit_rows). float64 keys are scaled in float64, then cast, so entries
    beyond 3.4e38, which overflow float32, still give their unit rows.
    """

    def __init__(self, keys, name="key"):
        self.keys = as_matrix(keys, name)
        self.norms = key_row_norms(self.keys, name)
        self.eps = cosine_error_bound(self.keys.shape[1], "float32")
        self.eps64 = cosine_error_bound(self.keys.shape[1], "float64")

    def _unit_rows(self, order=None):
        """The unit rows keys[order], all rows by default: each key times its norm's reciprocal.

        float32 keys whose norms are all below 2^100 multiply in float32 by the
        reciprocals cast to float32, which are normal numbers; other keys
        multiply in float64 and are cast when stored.
        """
        inv = 1.0 / self.norms
        if self.keys.dtype == np.float32 and self.norms.max() < 2.0**100:
            inv = inv.astype(np.float32)
        unit = np.empty((len(self.keys if order is None else order), self.keys.shape[1]), np.float32)
        for lo in range(0, len(unit), BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS) if order is None else order[lo : lo + BLOCK_ROWS]
            np.multiply(self.keys[rows], inv[rows, None], out=unit[lo : lo + BLOCK_ROWS],
                        casting="same_kind")
        return unit

    def peer_counts(self, alpha, count_self=False, cap=None):
        """Per row, how many rows have an exact cosine above alpha with it, at most cap.

        count_self counts the row itself among them; cap=None, or any cap above N, counts exactly.
        A float32 similarity more than eps from alpha decides its entry; the
        thresholds are stepped one float32 ulp outward, since a float32 array
        compares with a Python float in float32 (NEP 50). _exceeds decides
        the rest. The walk is nearest's: each block of rows against itself
        and every later row, its counts going to its rows and, transposed,
        to the later columns.

        A row whose count has reached cap when its block starts is decided.
        Once half a block's rows are decided, only its undecided rows are
        multiplied with the block and every later row, and its decided rows
        with the later rows still below cap only: a pair of rows that have
        both reached cap is skipped. A row below cap is never decided, so it gets every pair, and
        every other row reaches cap: min(count, cap) depends neither on
        BLOCK_ROWS nor on the order of the rows.
        """
        n = self.keys.shape[0]
        cap = n + 1 if cap is None else min(cap, n + 1)
        counts, ids, unit = np.zeros(n, dtype=np.intp), np.arange(n), self._unit_rows()
        above = np.nextafter(np.float32(alpha + self.eps), np.float32(np.inf))
        below = np.nextafter(np.float32(alpha - self.eps), np.float32(-np.inf))

        def similar(a, b):  # rows a against rows b, each a slice or an index array
            sim = similarity_matrix(unit[a], unit[b])
            out = sim > above
            still = (sim >= below) ^ out
            if still.any():  # np.nonzero scans the whole block; most blocks need no recheck
                r, c = np.nonzero(still)
                out[r, c] = self._exceeds(ids[a][r], ids[b][c], alpha)
            return out

        for lo in range(0, n, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, n)
            done = lo + np.flatnonzero(counts[lo:hi] >= cap)
            gather = 2 * done.size >= hi - lo
            rows = np.setdiff1d(ids[lo:hi], done, assume_unique=True) if gather else slice(lo, hi)
            if ids[rows].size:
                sim = similar(rows, slice(lo, n))
                if not count_self:
                    sim[np.arange(len(sim)), ids[rows] - lo] = False
                counts[rows] += np.count_nonzero(sim, axis=1)
                counts[hi:] += np.count_nonzero(sim[:, hi - lo :], axis=0)
            later = hi + np.flatnonzero(counts[hi:] < cap) if gather else ids[:0]
            if later.size:
                counts[later] += np.count_nonzero(similar(done, later), axis=0)
        return np.minimum(counts, cap)

    def nearest(self, rows, knn_k):
        """Each row's knn_k most similar other rows, most similar first.

        Returns a len(rows) x knn_k index array in (exact cosine desc, index
        asc) order, so a tie at the cut goes to the lowest index. Rows may
        come in any order and repeat; any but integers in [0, N) raise IndexError.

        Each pair of the R distinct rows is multiplied once: with unit rows
        built those R first, each block of them is taken with itself and all
        later rows, handing later ones among the R their columns, transposed.
        Each row keeps a running float32 top knn_k + 1, whole once its block
        is done. The top decides a row when each value is more than 2 eps
        above the next: every value is within eps of its exact cosine,
        whichever row of the pair computed it, and every other row is at most
        the (knn_k + 1)-th. Any other row goes to _settle with its top's
        knn_k-th value and its full row in the walk's order: the earlier
        columns computed again, then the block's. Besides the unit rows, the
        working set is that top and two BLOCK_ROWS x N blocks.
        """
        n = self.keys.shape[0]
        rows = np.asarray(rows)
        if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n):
            raise IndexError(f"rows must be integers in [0, {n})")
        rows = rows.astype(np.intp, copy=False)
        if knn_k >= n:
            raise NeighborCountExceedsTokensError(f"knn_k={knn_k} but only {n - 1} neighbors exist")
        want, back = np.unique(rows, return_inverse=True)
        if knn_k == 0 or want.size == 0:
            return np.empty((rows.size, knn_k), dtype=np.intp)
        r = want.size
        order = np.concatenate([want, np.setdiff1d(np.arange(n), want, assume_unique=True)])
        unit = self._unit_rows(order)
        top_v, top_i = np.full((r, knn_k + 1), -np.inf, np.float32), np.zeros((r, knn_k + 1), np.intp)
        groups = np.empty((r, knn_k), dtype=np.intp)
        for lo in range(0, r, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, r)
            sim = similarity_matrix(unit[lo:hi], unit[lo:])
            np.fill_diagonal(sim, -np.inf)  # neighbors are other rows
            _keep_top(top_v[hi:], top_i[hi:], np.ascontiguousarray(sim[:, hi - lo : r - lo].T), lo)
            _keep_top(top_v[lo:hi], top_i[lo:hi], sim, lo)
            groups[lo:hi] = order[top_i[lo:hi, :knn_k]]
            gaps = np.diff(top_v[lo:hi].astype(np.float64))
            still = np.flatnonzero((gaps >= -2 * self.eps).any(axis=1))
            if still.size:
                full = sim[still] if lo == 0 else np.hstack([
                    similarity_matrix(unit[:lo], unit[lo + still]).T, sim[still]])
                groups[lo + still] = self._settle(want[lo + still], full, order,
                                                  top_v[lo + still, knn_k - 1], knn_k)
        return groups[back]

    def _settle(self, rows, sim, order, kth, knn_k):
        """The groups of `rows`, from their float32 similarities `sim` to rows `order`.

        A row's own entry in `sim` is -inf. kth is its running top's knn_k-th
        value, within eps of its exact knn_k-th cosine whichever GEMM gave it;
        so its exact top knn_k is among the candidates no more than 2 eps below
        kth, sorted by float64 cosine; a run of them each within 2 eps64 of the
        next is put in order by _exact_order.
        """
        r, cand = np.nonzero(sim >= kth.astype(np.float64)[:, None] - 2 * self.eps)  # in float64
        cand = order[cand]
        cos = self.cosines(rows[r], cand)
        by = np.lexsort((cand, -cos, r))
        r, cand, cos = r[by], cand[by], cos[by]
        rank = np.arange(r.size) - np.searchsorted(r, r)  # place within the row
        starts = rank == 0
        starts[1:] |= cos[:-1] - cos[1:] > 2 * self.eps64
        lo = np.flatnonzero(starts)
        hi = np.append(lo[1:], r.size)
        open_runs = (hi - lo > 1) & (rank[lo] < knn_k)
        for a, b in zip(lo[open_runs], hi[open_runs]):
            cand[a:b] = self._exact_order(rows[r[a]], cand[a:b])
        return cand[rank < knn_k].reshape(rows.size, knn_k)

    def cosines(self, i, j):
        """float64 cosines of the row pairs (i[t], j[t]), each within eps64 of exact.

        Dividing by the float64 norms upcasts float32 rows, exactly.
        """
        a = self.keys[i] / self.norms[i, None]
        b = self.keys[j] / self.norms[j, None]
        return np.einsum("ij,ij->i", a, b)

    def _exceeds(self, i, j, alpha):
        """Exact `cosine > alpha` for the row pairs (i[t], j[t]).

        `cosines` decides the pairs more than eps64 from alpha; the rest
        compare _exact with sign(alpha) alpha^2, which orders as the cosine.
        """
        cos = self.cosines(i, j)
        out = cos > alpha
        still = np.flatnonzero(~(np.abs(cos - alpha) > self.eps64))
        a = Fraction(float(alpha))
        bar = a * abs(a)
        out[still] = [x > bar for x in self._exact(i[still], j[still])]
        return out

    def _exact_order(self, row, cols):
        """The array `cols` ordered by (exact cosine with `row` desc, index asc)."""
        if (self.keys[cols] == self.keys[cols[0]]).all():  # copies tie (-0.0 == 0.0 too)
            return np.sort(cols)
        exact = self._exact(np.full(cols.size, row), cols)
        return cols[sorted(range(cols.size), key=lambda t: (-exact[t], cols[t]))]

    def _exact(self, i, j):
        """sign(cos) cos^2 of each row pair (i[t], j[t]), exactly, as a Fraction.

        Each distinct row becomes Python integers once: its entries' ratios (float32
        too, exactly, through .tolist()) scaled by their largest denominator, a power
        of two, so the cosines are unchanged. The key-row rule keeps denominators > 0.
        """
        ints, squares = {}, {}
        for r in np.union1d(i, j).tolist():
            ratios = [x.as_integer_ratio() for x in self.keys[r].tolist()]
            scale = max(q for _, q in ratios)
            ints[r] = [p * (scale // q) for p, q in ratios]
            squares[r] = sum(map(mul, ints[r], ints[r]))
        dots = [(sum(map(mul, ints[a], ints[b])), a, b) for a, b in zip(i.tolist(), j.tolist())]
        return [Fraction(x * abs(x), squares[a] * squares[b]) for x, a, b in dots]


def _keep_top(top_v, top_i, sim, first):
    """Merge each row's largest in `sim` (columns numbered from `first`) into its top, desc."""
    at = np.arange(len(sim))
    v, i = np.empty(top_v.shape, dtype=np.float32), np.empty(top_i.shape, dtype=np.intp)
    for s in range(top_v.shape[1]):  # past sim's width, a round picks -inf
        i[:, s] = sim.argmax(axis=1)
        v[:, s] = sim[at, i[:, s]]
        sim[at, i[:, s]] = -np.inf
    for s in reversed(range(top_v.shape[1])):  # sim as it was
        sim[at, i[:, s]] = v[:, s]
    v, i = np.concatenate([top_v, v], axis=1), np.concatenate([top_i, i + first], axis=1)
    pick = np.argsort(-v, axis=1, kind="stable")[:, : top_v.shape[1]]
    top_v[:], top_i[:] = np.take_along_axis(v, pick, axis=1), np.take_along_axis(i, pick, axis=1)


def quantile(values, q):
    """Linear-interpolation quantile on sorted order statistics.

    Position p = q * (n - 1); the result interpolates between the two
    bracketing order statistics. This is the continuous "type 7" convention;
    it is the one fixed choice recorded in configuration metadata.
    """
    v = as_vector(values)
    if v.size == 0:
        raise EmptyInputError("quantile of an empty list")
    check_finite(v, "quantile input")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return float(np.quantile(v, q))
