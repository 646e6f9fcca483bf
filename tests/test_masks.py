from pathlib import Path

import numpy as np
import pytest

from tokzip import DensityConfig, SelectionConfig, compress_subimage, render_masks
from tokzip.errors import GridMismatchError
from tokzip.masks import LEVEL_DROPPED, LEVEL_GLOBAL, LEVEL_LOCAL, MAX_SCALE, write_pgm


def _read_pgm(path):
    tokens = path.read_text().split()
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    assert maxval == 255
    vals = np.array([int(t) for t in tokens[4:]], dtype=np.uint8)
    return vals.reshape(h, w)


def test_write_pgm_scaling(tmp_path):
    p = tmp_path / "g.pgm"
    write_pgm(p, [[0, 255]], scale=3)
    img = _read_pgm(p)
    assert img.shape == (3, 6)
    assert (img[:, :3] == 0).all() and (img[:, 3:] == 255).all()


def _per_pixel_pgm(path, grid, scale):
    """The reference writer: the grid upscaled by np.repeat, then one str() per pixel."""
    g = np.asarray(grid, dtype=np.uint8)
    g = np.repeat(np.repeat(g, scale, axis=0), scale, axis=1)
    lines = ["P2", f"{g.shape[1]} {g.shape[0]}", "255"]
    lines += [" ".join(map(str, row)) for row in g.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


_RNG = np.random.default_rng(0)
PGM_GRIDS = {
    "1x1": np.array([[128]], dtype=np.uint8),
    "3x5_levels": _RNG.choice(np.array([0, 128, 255], dtype=np.uint8), size=(3, 5)),
    "3x5_random": _RNG.integers(0, 256, size=(3, 5), dtype=np.uint8),
    "24x24_levels": _RNG.choice(np.array([0, 128, 255], dtype=np.uint8), size=(24, 24)),
    "24x24_random": _RNG.integers(0, 256, size=(24, 24), dtype=np.uint8),
    "48x48_levels": _RNG.choice(np.array([0, 128, 255], dtype=np.uint8), size=(48, 48)),
    "48x48_random": _RNG.integers(0, 256, size=(48, 48), dtype=np.uint8),
    "list_of_lists": [[0, 128, 255], [255, 7, 0]],
}


PGM_CASES = ([(name, scale) for name in sorted(PGM_GRIDS) for scale in (1, 2, 7)]
             + [(name, MAX_SCALE) for name in ("1x1", "3x5_random", "list_of_lists")])


@pytest.mark.parametrize("name,scale", PGM_CASES)
def test_write_pgm_matches_the_per_pixel_writer(name, scale, tmp_path):
    write_pgm(tmp_path / "fast.pgm", PGM_GRIDS[name], scale)
    _per_pixel_pgm(tmp_path / "ref.pgm", PGM_GRIDS[name], scale)
    assert (tmp_path / "fast.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()


def test_write_pgm_refuses_a_scale_past_the_bound(tmp_path):
    with pytest.raises(ValueError, match="scale"):
        write_pgm(tmp_path / "g.pgm", [[0, 255]], scale=MAX_SCALE + 1)
    assert not (tmp_path / "g.pgm").exists()


def test_clone_bundle_masks(tmp_path, clone_bundle, clone_density_cfg):
    res = compress_subimage(clone_bundle, clone_density_cfg, SelectionConfig(seed=1))
    red_path, sel_path = render_masks(clone_bundle.grid_shape, res.retained_indices,
                                      res.branch_provenance, res.density_report.redundant_mask,
                                      res.is_global_passthrough, tmp_path / "m")
    red = _read_pgm(red_path).ravel()
    # bright exactly on the 12 cloned cells
    assert (red[:12] == 255).all() and (red[12:] == 0).all()
    sel = _read_pgm(sel_path).ravel()
    assert (sel[:12] == LEVEL_DROPPED).all()
    assert (sel[12:] == LEVEL_GLOBAL).all()  # retained via both branches


def test_full_retention_has_no_dropped(tmp_path, clone_bundle):
    # limit_k high enough that nothing is redundant: everything retained locally
    res = compress_subimage(clone_bundle, DensityConfig(alpha=0.7, limit_k=15),
                            SelectionConfig(seed=0))
    assert res.ratio == 1.0
    _, sel_path = render_masks(clone_bundle.grid_shape, res.retained_indices,
                               res.branch_provenance, res.density_report.redundant_mask,
                               res.is_global_passthrough, tmp_path / "full")
    sel = _read_pgm(sel_path).ravel()
    assert not (sel == LEVEL_DROPPED).any()
    assert set(np.unique(sel)) <= {LEVEL_LOCAL, LEVEL_GLOBAL}


@pytest.mark.parametrize("retained,tags", [([-1], ["local"]), ([4], ["local"]),
                                           ([0, 3], ["local"])],
                         ids=["negative_index", "index_past_n", "tag_missing"])
def test_render_masks_refuses_what_it_cannot_paint(retained, tags, tmp_path):
    with pytest.raises(GridMismatchError):
        render_masks((2, 2), retained, tags, None, False, tmp_path / "bad")
    assert not list(tmp_path.iterdir())
    render_masks((2, 2), [0, 1, 2, 3], [], None, True, tmp_path / "global")  # no tags to match


def test_render_masks_refuses_a_passthrough_grid_that_does_not_tile(tmp_path):
    with pytest.raises(GridMismatchError):
        render_masks((2, 3), [0, 1, 2, 3], [], None, True, tmp_path / "global")
    assert not list(tmp_path.iterdir())


def test_grid_mismatch(tmp_path, clone_bundle, clone_density_cfg):
    res = compress_subimage(clone_bundle, clone_density_cfg)
    with pytest.raises(GridMismatchError):
        render_masks((3, 5), res.retained_indices, res.branch_provenance,
                     res.density_report.redundant_mask, res.is_global_passthrough,
                     tmp_path / "bad")
