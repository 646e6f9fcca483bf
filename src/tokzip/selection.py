"""Dual-branch token selection.

Global branch: keep upper IQR outliers of the deep-layer CLS attention.
Local branch: sample without replacement from the low-layer CLS attention,
with the sample count set by the sub-image's information density.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import check_attention_vector
from .errors import InsufficientSupportError, check_field, is_number

CONFIG_RULES = {
    "iqr_factor": (lambda v: is_number(v) and 0 < v <= sys.float_info.max, "a finite number > 0"),
    "min_retained": (lambda v: is_number(v, numbers.Integral) and v >= 1, "an integer >= 1"),
    "seed": (lambda v: is_number(v, numbers.Integral) and v >= 0, "an integer >= 0"),
}


@dataclass(frozen=True)
class SelectionConfig:
    iqr_factor: float = 1.5
    min_retained: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in CONFIG_RULES:
            check_field(CONFIG_RULES, name, getattr(self, name), error=ValueError)


@dataclass(frozen=True)
class SelectionResult:
    """Index sets from both branches plus their sorted, deduplicated union."""

    global_indices: np.ndarray
    local_indices: np.ndarray
    merged_indices: np.ndarray


def global_select(attn_deep, cfg=SelectionConfig()):
    """Indices whose deep-layer attention exceeds the IQR upper fence.

    Fence = Q3 + iqr_factor * (Q3 - Q1), decided exactly (_upper_fence). Only
    upper outliers are kept; tokens below the lower fence carry no global
    information worth preserving.
    """
    scores = check_attention_vector(attn_deep, "attn_deep")
    return np.flatnonzero(scores > _upper_fence(scores, cfg.iqr_factor))


def _upper_fence(scores, iqr_factor):
    """The largest double <= Q3 + iqr_factor (Q3 - Q1), for a score array as checked.

    The quartiles interpolate between the sorted scores at p = q (n - 1)
    (type 7, as core.quantile); they and the fence are Fractions of the
    float scores and of iqr_factor as a double. A double exceeds the fence
    exactly when it exceeds the value returned, so the comparison stays one
    vectorised `scores > t`. A fence beyond the float range gives the
    largest double, which no finite score exceeds.
    """
    v = np.sort(scores)

    def q(p):
        lo = math.floor(p)
        low = Fraction(v[lo])
        return low + (p - lo) * (Fraction(v[min(lo + 1, v.size - 1)]) - low)

    q1, q3 = q(Fraction(v.size - 1, 4)), q(Fraction(3 * (v.size - 1), 4))
    fence = q3 + Fraction(float(iqr_factor)) * (q3 - q1)
    if fence >= sys.float_info.max:
        return sys.float_info.max
    t = float(fence)
    return t if t <= fence else math.nextafter(t, -math.inf)


def local_sample_count(density, n_tokens):
    """Discretize the sampling ratio: m = round(density * N), half away from zero."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be >= 1, got {n_tokens}")
    m = math.floor(density * n_tokens + 0.5)
    return min(max(m, 0), n_tokens)


def local_select(attn_low, m, cfg=SelectionConfig(), rng=None):
    """Sample m distinct indices without replacement, weighted by attention.

    Successive sampling, drawn in rounds: each round draws the number still
    needed, with replacement, from the remaining scores (one cumsum, one
    rng.random(k), one searchsorted), keeps each index drawn and zeroes its
    score. A with-replacement draw that misses the kept set has the law of
    the next sequential renormalized draw, so each remaining score is the
    selection probability verbatim, and every round keeps its first draw.
    Zero-score tokens are never drawn; if fewer than m scores are positive
    the call fails rather than padding silently.

    Deterministic for a fixed cfg.seed (when rng is not supplied). Returns a
    sorted index array.
    """
    scores = check_attention_vector(attn_low, "attn_low")
    n = scores.size
    if not 0 <= m <= n:
        raise ValueError(f"m must be in [0, {n}], got {m}")
    if m == 0:
        return np.empty(0, dtype=np.intp)
    support = int(np.count_nonzero(scores > 0))
    if support < m:
        raise InsufficientSupportError(m, support)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    weights = scores.copy()
    kept = []
    need = m
    while need:
        cum = np.cumsum(weights)
        drawn = np.searchsorted(cum, rng.random(need) * cum[-1], side="right")
        # A subnormal total can round u up to cum[-1]; such a draw takes the
        # last index still in play, never a zero-score or kept one.
        new = np.unique(np.minimum(drawn, np.flatnonzero(weights)[-1]))
        weights[new] = 0.0
        kept.append(new)
        need -= new.size
    return np.sort(np.concatenate(kept))


def merge_indices(global_indices, local_indices, attn_low, cfg=SelectionConfig()):
    """Union both branches, deduplicate and sort.

    If the union is smaller than cfg.min_retained, the highest-attention
    tokens (ties broken by lowest index) are added so downstream consumers
    never see an empty token sequence.
    """
    merged = np.union1d(
        np.asarray(global_indices, dtype=np.intp),
        np.asarray(local_indices, dtype=np.intp),
    )
    scores = check_attention_vector(attn_low, "attn_low")
    want = min(cfg.min_retained, scores.size)
    if merged.size < want:
        # Stable argsort on negated scores ranks by score desc, then index asc.
        by_score = np.argsort(-scores, kind="stable")
        extra = by_score[~np.isin(by_score, merged)][: want - merged.size]
        merged = np.sort(np.concatenate([merged, extra]))
    return merged


def select_tokens(attn_deep, attn_low, density, cfg=SelectionConfig()):
    """Run both branches and merge; the pipeline's default selection step."""
    gi = global_select(attn_deep, cfg)
    m = local_sample_count(density, np.size(attn_low))
    li = local_select(attn_low, m, cfg)
    merged = merge_indices(gi, li, attn_low, cfg)
    return SelectionResult(global_indices=gi, local_indices=li, merged_indices=merged)
