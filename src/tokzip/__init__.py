"""tokzip: adaptive, correlation-guided compression of ViT token dumps."""

from .aggregation import AggregationConfig, aggregate
from .core import normalize_rows, quantile, similarity_matrix
from .density import DensityConfig, DensityReport, compute_density
from .pipeline import (
    CompressionResult,
    SubImageBundle,
    compress_document,
    compress_subimage,
    corpus_stats,
)
from .selection import (
    SelectionConfig,
    SelectionResult,
    global_select,
    local_sample_count,
    local_select,
    merge_indices,
    select_tokens,
)
from .tensorfile import read_tensor, write_tensor
from .bundle_io import load_bundle, load_results, write_bundle, write_results
from .masks import render_masks, write_pgm
from .harness import SyntheticSpec, baseline_select, generate, oracle_suite

__version__ = "0.1.0"

__all__ = [
    "AggregationConfig",
    "CompressionResult",
    "DensityConfig",
    "DensityReport",
    "SelectionConfig",
    "SelectionResult",
    "SubImageBundle",
    "SyntheticSpec",
    "aggregate",
    "baseline_select",
    "compress_document",
    "compress_subimage",
    "compute_density",
    "corpus_stats",
    "generate",
    "global_select",
    "load_bundle",
    "load_results",
    "local_sample_count",
    "local_select",
    "merge_indices",
    "normalize_rows",
    "oracle_suite",
    "quantile",
    "read_tensor",
    "render_masks",
    "select_tokens",
    "similarity_matrix",
    "write_bundle",
    "write_pgm",
    "write_results",
    "write_tensor",
]
