"""Token aggregation: retained tokens absorb their nearest neighbors.

Each retained token is grouped with its knn_k most similar tokens (cosine
similarity of deep-layer attention keys, ordered exactly by
core.CosineKeys.nearest) and replaced by the attention-weighted sum of the
group, so unretained content is folded in rather than dropped.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .core import CosineKeys, as_matrix, check_attention_vector
from .errors import (DimensionMismatchError, EmptyRetentionError, NonFiniteValueError,
                     check_field, is_number)

# Rows per group-sum block: one block's float64 gather, SUM_ROWS x
# (knn_k + 1) x D, is 0.5 MiB at knn_k = 3 and D = 1024.
SUM_ROWS = 16

CONFIG_RULES = {
    "knn_k": (lambda v: is_number(v, numbers.Integral) and v >= 0, "an integer >= 0"),
    "include_self": (lambda v: type(v) is bool, "a bool"),
    "normalize_weights": (lambda v: type(v) is bool, "a bool"),
}


@dataclass(frozen=True)
class AggregationConfig:
    """knn_k counts neighbors, not counting the retained token itself.

    include_self=True adds the retained token to its own group; excluding it
    (the literal neighbor-only reading) replaces a retained token purely by
    its neighbors, which discards exactly the content selection tried to
    keep, so inclusion is the default. normalize_weights rescales the group's
    attention weights to sum to one, keeping outputs on the input scale.
    """

    knn_k: int = 3
    include_self: bool = True
    normalize_weights: bool = True

    def __post_init__(self):
        for name in CONFIG_RULES:
            check_field(CONFIG_RULES, name, getattr(self, name), error=ValueError)
        if self.knn_k == 0 and not self.include_self:
            raise ValueError("empty aggregation group: knn_k=0 with include_self=False")


def aggregate(tokens, keys_deep, attn_deep, retained, cfg=AggregationConfig()):
    """Weighted-sum merge of each retained token's neighbor group.

    Returns a |retained| x D matrix, row i for retained[i], in the caller's order.
    Neighbors are drawn from all N tokens; groups may overlap. Ties in
    similarity break toward the lowest index. `keys_deep` is a key matrix,
    or the CosineKeys prepared from one. `retained` holds integers: nearest
    refuses others with IndexError, so a bool mask is not read as indices.

    One CosineKeys.nearest call per sub-image finds every group, taking
    each retained pair's similarity once; the groups and their weights are
    built for all retained rows at once, R x (knn_k + 1) each, and summed in
    blocks of SUM_ROWS rows. Besides the R x D output, the working set is
    that of `nearest` (the N x D float32 unit keys, its R x (knn_k + 1)
    running top and two BLOCK_ROWS x N blocks of similarities), then a
    SUM_ROWS x (knn_k + 1) x D float64 gather of group tokens.
    The output has the tokens' dtype, each float32 sum rounded once from
    float64; a sum beyond the float32 range raises NonFiniteValueError.
    """
    y = as_matrix(tokens)
    weights_full = check_attention_vector(attn_deep, "attn_deep")
    n = y.shape[0]
    retained = np.asarray(retained)
    if retained.size == 0:
        raise EmptyRetentionError("retained index set is empty")
    keys = keys_deep if isinstance(keys_deep, CosineKeys) else CosineKeys(keys_deep)
    if keys.keys.shape[0] != n or weights_full.size != n:
        raise DimensionMismatchError(f"tokens, keys_deep and attn_deep have {n}, "
                                     f"{keys.keys.shape[0]} and {weights_full.size} rows")

    # The output outlives the unit rows that `nearest` builds, so it is
    # allocated first: the other order raises the process's peak RSS.
    out = np.empty((retained.size, y.shape[1]), dtype=y.dtype)
    groups = keys.nearest(retained, cfg.knn_k)
    if cfg.include_self:
        groups = np.concatenate([retained[:, None], groups], axis=1)
    w = weights_full[groups]
    if cfg.normalize_weights:
        total = w.sum(axis=1, keepdims=True)
        w = np.divide(w, total, out=np.full(w.shape, 1.0 / w.shape[1]), where=total > 0)
    # Batched matmul reproduces a per-row `w @ y[group]` bit for bit; einsum does not.
    # Small blocks keep the gather small: a gather of many MiB goes back to the
    # kernel when freed, and the next document faults its pages in again.
    # A float32 sum past the float32 range would otherwise be stored as inf, silently.
    with np.errstate(over="raise" if y.dtype == np.float32 else None):
        try:
            for lo in range(0, retained.size, SUM_ROWS):
                blk = slice(lo, lo + SUM_ROWS)
                np.matmul(w[blk, None, :], y[groups[blk]].astype(np.float64, copy=False),
                          out=out[blk, None, :])
        except FloatingPointError:
            raise NonFiniteValueError("a group sum exceeds the float32 range") from None
    return out
