"""Token aggregation: retained tokens absorb their nearest neighbors.

Each retained token is grouped with its knn_k most similar tokens (cosine
similarity of deep-layer attention keys, ordered exactly by
core.CosineKeys.nearest) and replaced by the attention-weighted sum of the
group, so unretained content is folded in rather than dropped.
"""

from dataclasses import dataclass

import numpy as np

from .core import BLOCK_ROWS, CosineKeys, as_matrix, check_attention_vector
from .errors import DimensionMismatchError, EmptyRetentionError


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
        if self.knn_k < 0:
            raise ValueError(f"knn_k must be >= 0, got {self.knn_k}")
        if self.knn_k == 0 and not self.include_self:
            raise ValueError("empty aggregation group: knn_k=0 with include_self=False")


def aggregate(tokens, keys_deep, attn_deep, retained, cfg=AggregationConfig()):
    """Weighted-sum merge of each retained token's neighbor group.

    Returns a |retained| x D matrix, rows ordered by ascending retained index.
    Neighbors are drawn from all N tokens; groups may overlap. Ties in
    similarity break toward the lowest index. `keys_deep` is a key matrix,
    or the CosineKeys prepared from one. `retained` holds integers: nearest
    refuses others with IndexError, so a bool mask is not read as indices.

    One CosineKeys.nearest call per sub-image finds every group, taking
    each retained pair's similarity once; groups are summed in blocks of at
    most BLOCK_ROWS. Besides the R x D output and the N x D float32 unit
    keys, the working set is the R x (knn_k + 1) running top of `nearest`
    and two BLOCK_ROWS x N blocks of similarities, then a
    BLOCK_ROWS x (knn_k + 1) x D float64 gather of group tokens.
    float32 tokens stay float32 until they are gathered; the upcast is
    exact, so the output is that of their float64 upcast, bit for bit.
    """
    y = as_matrix(tokens)
    weights_full = check_attention_vector(attn_deep, "attn_deep")
    n = y.shape[0]
    retained = np.sort(np.asarray(retained))
    if retained.size == 0:
        raise EmptyRetentionError("retained index set is empty")
    keys = keys_deep if isinstance(keys_deep, CosineKeys) else CosineKeys(keys_deep)
    if keys.keys.shape[0] != n or weights_full.size != n:
        raise DimensionMismatchError(f"tokens, keys_deep and attn_deep have {n}, "
                                     f"{keys.keys.shape[0]} and {weights_full.size} rows")

    # The output outlives the unit rows that `nearest` builds, so it is
    # allocated first: the other order raises the process's peak RSS.
    out = np.empty((retained.size, y.shape[1]), dtype=np.float64)
    neighbors = keys.nearest(retained, cfg.knn_k)
    for lo in range(0, retained.size, BLOCK_ROWS):
        rows, groups = retained[lo : lo + BLOCK_ROWS], neighbors[lo : lo + BLOCK_ROWS]
        if cfg.include_self:
            groups = np.concatenate([rows[:, None], groups], axis=1)
        w = weights_full[groups]
        if cfg.normalize_weights:
            total = w.sum(axis=1, keepdims=True)
            w = np.divide(w, total, out=np.full(w.shape, 1.0 / w.shape[1]), where=total > 0)
        # Batched matmul reproduces a per-row `w @ y[group]` bit for bit; einsum does not.
        # The gather is a temporary, so it is freed before the next block's.
        out[lo : lo + rows.size] = np.matmul(
            w[:, None, :], y[groups].astype(np.float64, copy=False))[:, 0, :]
    return out
