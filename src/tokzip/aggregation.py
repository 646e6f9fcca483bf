"""Token aggregation: retained tokens absorb their nearest neighbors.

Each retained token is grouped with its knn_k most similar tokens (cosine
similarity of deep-layer attention keys) and replaced by the attention-
weighted sum of the group, so unretained content is folded in rather than
dropped.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_ROWS,
    as_matrix,
    check_attention_vector,
    normalize_rows,
    similarity_matrix,
)
from .errors import EmptyRetentionError, NeighborCountExceedsTokensError


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


def neighbor_groups(keys_normalized, rows, knn_k):
    """Each row's knn_k most similar other tokens, most similar first.

    Returns a len(rows) x knn_k index array. Order is (similarity desc,
    index asc), so a tie at the cut goes to the lowest index. Similarities
    are taken against all N tokens; the caller bounds len(rows), which sets
    the len(rows) x N working set.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if knn_k == 0:
        return np.empty((rows.size, 0), dtype=np.intp)
    sim = similarity_matrix(keys_normalized[rows], keys_normalized)
    sim[np.arange(rows.size), rows] = -np.inf  # neighbors are other tokens
    cut = sim.shape[1] - knn_k
    top = np.argpartition(sim, cut, axis=1)[:, cut:]
    kth = np.take_along_axis(sim, top[:, :1], axis=1)
    top.sort(axis=1)
    top_sims = np.take_along_axis(sim, top, axis=1)
    groups = np.take_along_axis(top, np.argsort(-top_sims, axis=1, kind="stable"), axis=1)
    # Where more than knn_k values reach the k-th largest, argpartition kept an
    # arbitrary part of the tie; rank those rows in full to keep the lowest indices.
    for r in np.flatnonzero(np.count_nonzero(sim >= kth, axis=1) > knn_k):
        groups[r] = np.argsort(-sim[r], kind="stable")[:knn_k]
    return groups


def aggregate(tokens, keys_deep, attn_deep, retained, cfg=AggregationConfig()):
    """Weighted-sum merge of each retained token's neighbor group.

    Returns a |retained| x D matrix, rows ordered by ascending retained index.
    Neighbors are drawn from all N tokens; groups may overlap. Ties in
    similarity break toward the lowest index.

    Retained rows are processed in blocks of at most BLOCK_ROWS: only the
    R x N similarities of retained rows are computed. Besides the N x D keys
    and the R x D output, the working set is O(BLOCK_ROWS * N) similarities
    plus a BLOCK_ROWS x (knn_k + 1) x D gather of group tokens.
    """
    y = as_matrix(tokens)
    weights_full = check_attention_vector(attn_deep, "attn_deep")
    n = y.shape[0]
    retained = np.sort(np.asarray(retained, dtype=np.intp))
    if retained.size == 0:
        raise EmptyRetentionError("retained index set is empty")
    if retained[0] < 0 or retained[-1] >= n:
        raise IndexError(f"retained indices out of range [0, {n})")
    if cfg.knn_k > n - 1:
        raise NeighborCountExceedsTokensError(
            f"knn_k={cfg.knn_k} but only {n - 1} candidate neighbors exist"
        )

    kn = normalize_rows(keys_deep)
    out = np.empty((retained.size, y.shape[1]), dtype=np.float64)
    for lo in range(0, retained.size, BLOCK_ROWS):
        rows = retained[lo : lo + BLOCK_ROWS]
        groups = neighbor_groups(kn, rows, cfg.knn_k)
        if cfg.include_self:
            groups = np.concatenate([rows[:, None], groups], axis=1)
        w = weights_full[groups]
        if cfg.normalize_weights:
            total = w.sum(axis=1, keepdims=True)
            w = np.divide(w, total, out=np.full(w.shape, 1.0 / w.shape[1]), where=total > 0)
        # Batched matmul reproduces a per-row `w @ y[group]` bit for bit; einsum does not.
        out[lo : lo + rows.size] = np.matmul(w[:, None, :], y[groups])[:, 0, :]
    return out
