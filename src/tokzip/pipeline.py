"""Per-sub-image compression pipeline and corpus-level statistics.

Order of operations per sub-image: information density from the low-layer
keys, IQR outlier retention on the deep-layer attention, density-ratio
sampling on the low-layer attention, index merge, then neighbor aggregation.
The resized global image is never compressed.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .aggregation import AggregationConfig, aggregate
from .core import CosineKeys, as_matrix, check_attention_vector, check_finite, quantile
from .density import DensityConfig, DensityReport, compute_density
from .errors import (DimensionMismatchError, EmptyCorpusError, GridMismatchError,
                     MultipleGlobalImagesError, TokzipError, check_field, is_number)
from .selection import SelectionConfig, select_tokens

HIST_BIN_WIDTH = 0.05
HIST_BINS = 20

# Which branch kept a retained token, indexed by in_global + 2 * in_local.
BRANCH_TAGS = ("fallback", "global", "local", "both")


def is_int_pair(value, low):
    """The grid_shape (low 1) and crop_position (low 0) rule: two integers, each >= low."""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(is_number(v, numbers.Integral) and v >= low for v in value))


def is_file_name(name):
    """Whether name stands as itself in an output path: not '' or '.', no '/' and no NUL."""
    return name not in ("", ".") and "/" not in name and "\0" not in name


# Per metadata field, a test of its value and what it asks for, which SubImageBundle and
# bundle_io.read_manifest apply through check_field and bundle_io.write_bundle writes.
FIELD_RULES = {
    "image_id": (lambda v: type(v) is str and is_file_name(v), "a file name"),
    "grid_shape": (lambda v: is_int_pair(v, 1), "two integers >= 1"),
    "crop_position": (lambda v: is_int_pair(v, 0), "two integers >= 0"),
    "is_global": (lambda v: type(v) is bool, "a bool"),
    "dataset": (lambda v: type(v) is str, "a str"),
}


def check_document(image_ids, is_global, where="", error=TokzipError):
    """The document rules: distinct image_ids (else error), at most one is_global true."""
    seen, seen_global = set(), False
    for i, (image_id, glob) in enumerate(zip(image_ids, is_global)):
        if image_id in seen:
            raise error(f"{where}subimage {i}: image_id {image_id!r} repeats an earlier entry")
        if glob and seen_global:
            raise MultipleGlobalImagesError(f"{where}subimage {i} is a second global image")
        seen.add(image_id)
        seen_global |= bool(glob)


def check_grid(grid_shape, n, where="", error=GridMismatchError):
    """The grid rule: grid_shape (rows, cols) tiles n tokens, so rows x cols = n."""
    rows, cols = grid_shape
    if rows * cols != n:
        raise error(f"{where}grid_shape ({rows}, {cols}) does not tile {n} tokens")


def check_retained(retained, provenance, n, passthrough, where="", error=GridMismatchError):
    """The retained rule: each index is in [0, n) and, except in the pass-through, has one tag."""
    indices = np.asarray(retained)
    if (outside := indices[(indices < 0) | (indices >= n)]).size:
        raise error(f"{where}retained index {outside[0]} not in [0, {n})")
    if not passthrough and len(provenance) != len(retained):
        raise error(f"{where}{len(provenance)} tags for {len(retained)} indices")


@dataclass(frozen=True)
class SubImageBundle:
    """All tensors the pipeline needs for one sub-image.

    y_last:    final-layer token embeddings (the tokens being compressed)
    keys_low:  low-layer attention keys (density input)
    attn_low:  low-layer CLS attention (local-branch sampling distribution)
    keys_deep: deep-layer attention keys (aggregation similarity)
    attn_deep: deep-layer CLS attention (global branch + merge weights)

    Checked once, when built, whether read from disk or made in memory, and
    kept as checked: the three matrices as core.as_matrix gives them, float32
    or float64 (a float array is kept, not copied), the attention vectors as
    float64, and grid_shape and crop_position as tuples of Python ints. The
    metadata fields follow FIELD_RULES, as a manifest's do. Derive a changed
    copy with dataclasses.replace. Errors name the image_id and the field. The
    check prepares each key matrix as a CosineKeys, computing its float64 row
    norms once, and keeps them as cosine_low and cosine_deep for the density
    and aggregation stages.
    """

    y_last: np.ndarray
    keys_low: np.ndarray
    attn_low: np.ndarray
    keys_deep: np.ndarray
    attn_deep: np.ndarray
    grid_shape: tuple
    is_global: bool = False
    dataset: str = "default"
    image_id: str = "subimage"
    crop_position: tuple = (0, 0)
    cosine_low: CosineKeys = field(init=False, repr=False)
    cosine_deep: CosineKeys = field(init=False, repr=False)

    def __post_init__(self):
        check_field(FIELD_RULES, "image_id", self.image_id, "sub-image: ")  # later errors name it
        where = self.where
        y = as_matrix(self.y_last, where + "y_last")
        check_finite(y, where + "y_last")
        object.__setattr__(self, "y_last", y)
        n = y.shape[0]
        for name in ("keys_low", "keys_deep"):
            keys = CosineKeys(getattr(self, name), where + name)
            if (rows := keys.keys.shape[0]) != n:
                raise DimensionMismatchError(f"{where}{name} has {rows} rows for {n} tokens")
            object.__setattr__(self, name, keys.keys)
            object.__setattr__(self, "cosine" + name[4:], keys)
        for name in ("attn_low", "attn_deep"):
            a = check_attention_vector(getattr(self, name), where + name)
            if a.size != n:
                raise DimensionMismatchError(f"{where}{name} has length {a.size} for {n} tokens")
            object.__setattr__(self, name, a)
        for name in FIELD_RULES:
            value = check_field(FIELD_RULES, name, getattr(self, name), where)
            value = tuple(map(int, value)) if type(value) is tuple else value  # numpy ints too
            object.__setattr__(self, name, value)
        check_grid(self.grid_shape, n, where, DimensionMismatchError)

    @property
    def where(self):
        """The prefix of this sub-image's error messages: its image_id."""
        return f"{self.image_id}: "

    @property
    def n_tokens(self):
        return self.y_last.shape[0]


@dataclass(frozen=True)
class CompressionResult:
    """Retained indices, merged tokens, and provenance for one sub-image.

    compressed_tokens has the dtype core.as_matrix gives the bundle's y_last,
    float32 or float64. Float32 tokens are summed in float64 and rounded once.
    """

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
    """Run the full compression chain on one sub-image; pass the global image through.

    `select(attn_deep, attn_low, density, selection_cfg)` returns the
    SelectionResult; None means select_tokens. The baselines plug in here.
    The global image's y_last is its result's tokens, shared, not copied.
    A TokzipError raised by a stage, or by `select`, keeps its type, and its
    message is prefixed with the bundle's image_id.
    """
    if bundle.is_global:
        return CompressionResult(np.arange(bundle.n_tokens, dtype=np.intp), bundle.y_last,
                                 None, [], bundle.n_tokens, is_global_passthrough=True)
    try:
        report = compute_density(bundle.cosine_low, density_cfg)
        sel = (select or select_tokens)(bundle.attn_deep, bundle.attn_low, report.density,
                                        selection_cfg)
        merged = sel.merged_indices
        tokens = aggregate(bundle.y_last, bundle.cosine_deep, bundle.attn_deep, merged, agg_cfg)
    except TokzipError as e:
        e.args = (bundle.where + str(e),)
        raise
    branch = np.isin(merged, sel.global_indices) + 2 * np.isin(merged, sel.local_indices)
    return CompressionResult(
        retained_indices=merged,
        compressed_tokens=tokens,
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
    """compress_subimage on every bundle, once they pass check_document.

    Each bundle gets its own generator seeded from selection_cfg.seed, so results
    do not depend on processing order, and bundles that differ only in image_id agree.

    The bundles run one after another, unlike the CLI's two at a time
    (workers.map_two): a caller holding a whole document would hold a second
    crop's working set on top of it. Measured on N=2304 documents, pooling
    this loop cut the latency of text-heavy crops by a fifth but raised the
    peak memory of sparse ones from 368 to 384-414 MiB, since the second
    thread's allocator arena keeps about 19 MiB of one crop's working set.
    """
    check_document([b.image_id for b in bundles], [b.is_global for b in bundles])
    return [compress_subimage(b, density_cfg, selection_cfg, agg_cfg, select) for b in bundles]


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
