"""Per-sub-image compression pipeline and corpus-level statistics.

Order of operations per sub-image: information density from the low-layer
keys, IQR outlier retention on the deep-layer attention, density-ratio
sampling on the low-layer attention, index merge, then neighbor aggregation.
The resized global image is never compressed.
"""

from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationConfig, aggregate
from .core import as_matrix, check_attention_vector, quantile
from .density import DensityConfig, DensityReport, compute_density
from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    GlobalImageRejectedError,
    MultipleGlobalImagesError,
)
from .selection import SelectionConfig, select_tokens

HIST_BIN_WIDTH = 0.05
HIST_BINS = 20

# Which branch kept a retained token, indexed by in_global + 2 * in_local.
BRANCH_TAGS = ("fallback", "global", "local", "both")


@dataclass(frozen=True)
class SubImageBundle:
    """All tensors the pipeline needs for one sub-image.

    y_last:    final-layer token embeddings (the tokens being compressed)
    keys_low:  low-layer attention keys (density input)
    attn_low:  low-layer CLS attention (local-branch sampling distribution)
    keys_deep: deep-layer attention keys (aggregation similarity)
    attn_deep: deep-layer CLS attention (global branch + merge weights)

    Validated once, when built; derive a changed copy with dataclasses.replace.
    """

    y_last: np.ndarray
    keys_low: np.ndarray
    attn_low: np.ndarray
    keys_deep: np.ndarray
    attn_deep: np.ndarray
    grid_shape: tuple
    is_global: bool = False
    dataset: str = "default"
    image_id: str = ""
    crop_position: tuple = (0, 0)

    def __post_init__(self):
        self.validate()

    @property
    def n_tokens(self):
        return self.y_last.shape[0]

    def validate(self):
        y = as_matrix(self.y_last)
        n = y.shape[0]
        for name in ("keys_low", "keys_deep"):
            k = as_matrix(getattr(self, name))
            if k.shape[0] != n:
                raise DimensionMismatchError(
                    f"{name} has {k.shape[0]} rows but y_last has {n}"
                )
        for name in ("attn_low", "attn_deep"):
            a = check_attention_vector(getattr(self, name), name)
            if a.size != n:
                raise DimensionMismatchError(
                    f"{name} has length {a.size} but y_last has {n} rows"
                )
        rows, cols = self.grid_shape
        if rows * cols != n:
            raise DimensionMismatchError(
                f"grid_shape {self.grid_shape} does not tile {n} tokens"
            )


@dataclass(frozen=True)
class CompressionResult:
    """Retained indices, merged tokens, and provenance for one sub-image."""

    retained_indices: np.ndarray
    compressed_tokens: np.ndarray
    density_report: DensityReport | None
    branch_provenance: list  # per retained index, one of BRANCH_TAGS
    n_original: int
    is_global_passthrough: bool = False

    @property
    def ratio(self):
        return self.retained_indices.size / self.n_original

    def provenance_counts(self):
        return {tag: self.branch_provenance.count(tag) for tag in BRANCH_TAGS}


def compress_subimage(
    bundle,
    density_cfg=DensityConfig(),
    selection_cfg=SelectionConfig(),
    agg_cfg=AggregationConfig(),
    select=None,
):
    """Run the full compression chain on one non-global sub-image.

    `select(attn_deep, attn_low, density, selection_cfg)` returns the
    SelectionResult; None means select_tokens. The baselines plug in here.
    """
    if bundle.is_global:
        raise GlobalImageRejectedError("the global image bundle is never compressed")
    report = compute_density(bundle.keys_low, density_cfg)
    sel = (select or select_tokens)(
        bundle.attn_deep, bundle.attn_low, report.density, selection_cfg
    )
    merged = sel.merged_indices
    branch = np.isin(merged, sel.global_indices) + 2 * np.isin(merged, sel.local_indices)
    return CompressionResult(
        retained_indices=merged,
        compressed_tokens=aggregate(
            bundle.y_last, bundle.keys_deep, bundle.attn_deep, merged, agg_cfg
        ),
        density_report=report,
        branch_provenance=np.asarray(BRANCH_TAGS)[branch].tolist(),
        n_original=bundle.n_tokens,
    )


def compress_document(
    bundles,
    density_cfg=DensityConfig(),
    selection_cfg=SelectionConfig(),
    agg_cfg=AggregationConfig(),
    select=None,
):
    """Compress every non-global bundle independently; pass the global one through.

    Each bundle gets its own generator seeded from selection_cfg.seed, so
    results do not depend on processing order and identical bundles under the
    same seed produce identical results. `select` is as in compress_subimage.
    """
    n_global = sum(1 for b in bundles if b.is_global)
    if n_global > 1:
        raise MultipleGlobalImagesError(f"{n_global} bundles are marked is_global")
    return [
        CompressionResult(
            retained_indices=np.arange(b.n_tokens, dtype=np.intp),
            compressed_tokens=as_matrix(b.y_last).copy(),
            density_report=None,
            branch_provenance=[],
            n_original=b.n_tokens,
            is_global_passthrough=True,
        )
        if b.is_global
        else compress_subimage(b, density_cfg, selection_cfg, agg_cfg, select)
        for b in bundles
    ]


def _label_stats(ratios):
    r = np.asarray(ratios, dtype=np.float64)
    bins = np.minimum(r / HIST_BIN_WIDTH, HIST_BINS - 1).astype(int)
    hist = np.bincount(bins, minlength=HIST_BINS)
    return {
        "count": int(r.size),
        "min": float(r.min()),
        "q1": quantile(r, 0.25),
        "median": quantile(r, 0.5),
        "q3": quantile(r, 0.75),
        "max": float(r.max()),
        "mean": float(r.mean()),
        "ratios": [float(x) for x in r],
        "histogram": hist.tolist(),
    }


def corpus_stats(ratios, dataset_labels=None):
    """Quartiles, mean and fixed-width histogram of ratios, per dataset label.

    `ratios`, each in [0, 1], are of sub-images only: leave out the global image.
    Returns {"bin_width": HIST_BIN_WIDTH, "datasets": {label: stats}}.
    """
    if not len(ratios):
        raise EmptyCorpusError("no sub-image results to summarize")
    r = np.asarray(ratios, dtype=np.float64)
    bad = np.flatnonzero(~((r >= 0) & (r <= 1)))  # NaN fails both
    if bad.size:
        raise ValueError(f"ratio at position {bad[0]} must be in [0, 1], got {r[bad[0]]}")
    if dataset_labels is None:
        dataset_labels = ["all"] * len(ratios)
    elif len(dataset_labels) != len(ratios):
        raise DimensionMismatchError(
            f"{len(dataset_labels)} labels for {len(ratios)} sub-image ratios"
        )
    by_label = {}
    for ratio, label in zip(ratios, dataset_labels):
        by_label.setdefault(label, []).append(ratio)
    return {
        "bin_width": HIST_BIN_WIDTH,
        "datasets": {label: _label_stats(v) for label, v in sorted(by_label.items())},
    }
