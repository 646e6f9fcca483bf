"""Patch-grid mask rendering as plain (ASCII) portable graymaps.

Two rasters per sub-image: a redundancy mask (redundant patches bright) and
a selection mask with three gray levels for globally retained, locally
sampled, and dropped patches. One pixel per patch, scalable by an integer
factor; P2 output keeps the files dependency-free and diffable.
"""

from pathlib import Path

import numpy as np

from .pipeline import BRANCH_TAGS, check_grid, check_retained

LEVEL_DROPPED = 0
LEVEL_LOCAL = 128
LEVEL_GLOBAL = 255

# The largest scale: a 48 x 48 grid becomes a 3072 x 3072 raster, about 37 MB of text.
MAX_SCALE = 64

# A tag's gray level: global where the global branch kept the token, as in the odd BRANCH_TAGS.
PROVENANCE_LEVEL = {tag: (LEVEL_LOCAL, LEVEL_GLOBAL)[i % 2] for i, tag in enumerate(BRANCH_TAGS)}


def write_pgm(path, grid, scale=1):
    """Write a uint8 2-D array as an ASCII PGM, upscaled by an integer factor.

    Each cell is a scale x scale block of its value. A distinct value's run of
    scale pixels is formatted once, and each grid row's line is joined once
    and written scale times, so no pixel is formatted on its own.
    """
    g = np.asarray(grid, dtype=np.uint8)
    if g.ndim != 2:
        raise ValueError("grid must be 2-D")
    if not 1 <= scale <= MAX_SCALE:
        raise ValueError(f"scale must be in [1, {MAX_SCALE}]")
    cells = {v: " ".join([str(v)] * scale) for v in np.unique(g).tolist()}
    lines = ["P2", f"{g.shape[1] * scale} {g.shape[0] * scale}", "255"]
    for row in g.tolist():
        lines += [" ".join([cells[v] for v in row])] * scale
    Path(path).write_text("\n".join(lines) + "\n")


def render_masks(grid_shape, retained, provenance, redundant_mask, passthrough,
                 out_prefix, scale=1):
    """Emit redundancy and selection masks for one sub-image.

    retained and provenance are a result's retained indices and their branch
    tags; redundant_mask is its density report's bool mask, or None when it
    has none; passthrough marks the uncompressed global image, drawn as all
    retained. Returns the two written paths. Patch index i maps to grid cell
    (i // cols, i % cols), matching raster token order. Before any raster is
    made, it applies check_grid to the mask and to the passthrough's indices,
    then check_retained, each as a GridMismatchError.
    """
    out_prefix = Path(out_prefix)
    where = f"{out_prefix.name}: "
    if redundant_mask is not None:
        check_grid(grid_shape, np.size(redundant_mask), where)
    if passthrough:
        check_grid(grid_shape, len(retained), where)
    rows, cols = grid_shape
    n = rows * cols
    check_retained(retained, provenance, n, passthrough, where)

    redundancy = np.zeros(n, dtype=np.uint8)
    if redundant_mask is not None:
        redundancy[np.asarray(redundant_mask, dtype=bool)] = 255
    red_path = out_prefix.with_name(out_prefix.name + "_redundancy.pgm")
    write_pgm(red_path, redundancy.reshape(rows, cols), scale)

    selection = np.full(n, LEVEL_DROPPED, dtype=np.uint8)
    for idx, tag in zip(retained, provenance):
        selection[int(idx)] = PROVENANCE_LEVEL[tag]
    if passthrough:
        selection[:] = LEVEL_GLOBAL
    sel_path = out_prefix.with_name(out_prefix.name + "_selection.pgm")
    write_pgm(sel_path, selection.reshape(rows, cols), scale)
    return red_path, sel_path
