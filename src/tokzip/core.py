"""Shared numerical kernels: row normalization, cosine similarity, quantiles.

All math runs in float64 internally even though tensors on disk are float32;
the N x N similarity products are where float32 accumulation error would bite.
"""

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, NonFiniteValueError, ZeroRowError

# Row norms below this are treated as zero.
ZERO_NORM_EPS = 1e-12

# Rows per block in the O(N^2) kernels (density, aggregation): a block's
# similarities take BLOCK_ROWS x N float64, whatever N is.
BLOCK_ROWS = 256


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float64 array without copying when already compliant."""
    arr = np.asarray(a, dtype=np.float64)
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
    """Validate a CLS->patch attention vector: finite, nonnegative, not all zero."""
    v = as_vector(scores, name)
    if v.size == 0:
        raise EmptyInputError(f"{name} is empty")
    check_finite(v, name)
    if np.any(v < 0):
        bad = int(np.flatnonzero(v < 0)[0])
        raise DimensionMismatchError(f"{name} has a negative entry at index {bad}")
    if not np.any(v > 0):
        raise EmptyInputError(f"{name} has no positive entry")
    return v


def key_row_norms(keys, name="key"):
    """Row norms of a key matrix, each finite and at least ZERO_NORM_EPS: the key-row rule.

    A NaN or inf entry, or an overflow, raises NonFiniteValueError. A zero key
    has no direction, so cosine similarity against it is undefined: ZeroRowError.
    """
    k = as_matrix(keys, name)
    if k.shape[0] == 0:
        raise DimensionMismatchError(f"{name} matrix has no rows")
    with np.errstate(over="ignore"):  # an overflowed norm is inf, refused below
        norms = np.linalg.norm(k, axis=1)
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
    """Cosine similarities of unit-normalized rows: S = A B^T, with B = A by default."""
    a = as_matrix(a)
    b = a if b is None else as_matrix(b)
    if a.size == 0 or b.size == 0:
        raise DimensionMismatchError("cannot build a similarity matrix from an empty matrix")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(f"row lengths differ: {a.shape[1]} vs {b.shape[1]}")
    return a @ b.T


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
