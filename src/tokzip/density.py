"""Information-density calculation from patch-patch key similarity.

A token counts as redundant when strictly more than ``limit_k`` other tokens
have cosine similarity strictly above ``alpha`` with it; core.CosineKeys
decides each similarity exactly. Only that fact is used, so peers are counted
up to ``limit_k + 1``: a pair of two tokens that both have more than
``limit_k`` peers is skipped, and density costs less the more redundant a
sub-image is. The density of a sub-image is the fraction of non-redundant
tokens and later doubles as its local-branch sampling ratio.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .core import CosineKeys
from .errors import check_field, is_number

CONFIG_RULES = {
    "alpha": (lambda v: is_number(v) and -1.0 < v < 1.0, "a number in (-1, 1)"),
    "limit_k": (lambda v: is_number(v, numbers.Integral) and v >= 0, "an integer >= 0"),
    "count_self": (lambda v: type(v) is bool, "a bool"),
}


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
        for name in CONFIG_RULES:
            check_field(CONFIG_RULES, name, getattr(self, name), error=ValueError)


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
    exact cosine of the key rows: CosineKeys.peer_counts counts them up to
    limit_k + 1, taking each pair at most once, with no N x N matrix formed.
    `keys` is a key matrix, or the CosineKeys prepared from one, such as a
    SubImageBundle's cosine_low.
    """
    keys = keys if isinstance(keys, CosineKeys) else CosineKeys(keys)
    counts = keys.peer_counts(cfg.alpha, cfg.count_self, cap=cfg.limit_k + 1)
    return DensityReport(redundant_mask=counts > cfg.limit_k)
