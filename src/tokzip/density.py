"""Information-density calculation from patch-patch key similarity.

A token counts as redundant when strictly more than ``limit_k`` other tokens
have cosine similarity strictly above ``alpha`` with it; core.CosineKeys
decides each similarity exactly. The density of a sub-image is the fraction
of non-redundant tokens and later doubles as its local-branch sampling ratio.
"""

from dataclasses import dataclass

import numpy as np

from .core import BLOCK_ROWS, CosineKeys


@dataclass(frozen=True)
class DensityConfig:
    """Similarity threshold and peer-count limit for redundancy detection.

    count_self toggles whether a token's own (always 1.0) self-similarity is
    counted among its similar peers. The shipped default excludes it: a token
    being similar to itself says nothing about repetitiveness. Setting it to
    True reproduces the literal j=1..N inner-loop count.
    """

    alpha: float = 0.7
    limit_k: int = 50
    count_self: bool = False

    def __post_init__(self):
        if not -1.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (-1, 1), got {self.alpha}")
        if self.limit_k < 0:
            raise ValueError(f"limit_k must be >= 0, got {self.limit_k}")


@dataclass(frozen=True)
class DensityReport:
    """One sub-image's redundancy decision; the summary numbers derive from it."""

    redundant_mask: np.ndarray  # bool, length N

    @property
    def n_redundant(self):
        return int(self.redundant_mask.sum())

    @property
    def redundancy(self):
        return self.n_redundant / self.redundant_mask.size

    @property
    def density(self):
        return 1.0 - self.redundancy


def compute_density(keys, cfg=DensityConfig()):
    """Count similar peers per token and report redundancy r and density d = 1 - r.

    Comparisons are strict ("> alpha", "> limit_k") exactly as stated, on the
    exact cosine of the key rows: CosineKeys.similar decides each block.
    `keys` is a key matrix, or the CosineKeys prepared from one.

    Similarity is symmetric, so only the upper block triangle is computed:
    each block of at most BLOCK_ROWS rows is compared with itself and every
    later token, and its counts go to its rows and, transposed, to the later
    columns. No N x N matrix is formed; the working set is O(BLOCK_ROWS * N).
    """
    keys = keys if isinstance(keys, CosineKeys) else CosineKeys(keys)
    n = keys.keys.shape[0]
    # The counts and the mask outlive the unit rows that `similar` builds, so
    # they are allocated first: the other order raises the process's peak RSS.
    peer_counts = np.zeros(n, dtype=np.intp)
    redundant = np.empty(n, dtype=bool)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        similar = keys.similar(lo, hi, cfg.alpha)
        if not cfg.count_self:
            diag = np.arange(hi - lo)
            similar[diag, diag] = False
        peer_counts[lo:hi] += np.count_nonzero(similar, axis=1)
        peer_counts[hi:] += np.count_nonzero(similar[:, hi - lo :], axis=0)
    return DensityReport(redundant_mask=np.greater(peer_counts, cfg.limit_k, out=redundant))
