"""Bundle manifests, tensor loading/validation, and result serialization.

A bundle manifest is a YAML document listing, per sub-image, the five tensor
file paths plus grid shape and source metadata. Tensor paths are resolved
relative to the manifest's directory.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import yaml

from .core import ZERO_NORM_EPS
from .errors import (
    DimensionMismatchError,
    MultipleGlobalImagesError,
    NonFiniteValueError,
    ParseError,
    ZeroRowError,
)
from .pipeline import SubImageBundle
from .tensorfile import read_tensor, write_tensor

ATTENTION_SUM_WARN_TOL = 1e-3

TENSOR_FIELDS = ("y_last", "keys_low", "attn_low", "keys_deep", "attn_deep")


def _load_checked(path):
    arr = read_tensor(path)
    finite = np.isfinite(arr)
    if not finite.all():
        raise NonFiniteValueError(str(path), int(np.flatnonzero(~finite.ravel())[0]))
    return arr.astype(np.float64)


def read_yaml(path, what):
    """Parse a YAML file; unreadable files and bad YAML raise a one-line ParseError."""
    try:
        return yaml.safe_load(Path(path).read_text())
    except OSError as e:
        raise ParseError(f"cannot read {what}: {e.strerror}", str(path)) from e
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(e, "problem", None) or " ".join(str(e).split())
        raise ParseError(f"invalid YAML{where}: {problem}", str(path)) from e


def load_bundle(manifest_path):
    """Load and fully validate every sub-image bundle a manifest references."""
    manifest_path = Path(manifest_path)
    doc = read_yaml(manifest_path, "manifest")
    if not isinstance(doc, dict) or "subimages" not in doc:
        raise ParseError("manifest must be a mapping with a 'subimages' list", str(manifest_path))
    base = manifest_path.parent
    bundles = []
    n_global = 0
    for i, entry in enumerate(doc["subimages"]):
        tensors = {}
        for name in TENSOR_FIELDS:
            if name not in entry:
                raise ParseError(f"subimage {i} is missing '{name}'", str(manifest_path))
            tensors[name] = _load_checked(base / entry[name])
        n = tensors["y_last"].shape[0]
        for name in ("keys_low", "keys_deep"):
            k = tensors[name]
            if k.ndim != 2 or k.shape[0] != n:
                raise DimensionMismatchError(
                    f"{entry[name]} has shape {k.shape} but {entry['y_last']} has {n} rows"
                )
            norms = np.linalg.norm(k, axis=1)
            small = np.flatnonzero(norms < ZERO_NORM_EPS)
            if small.size:
                raise ZeroRowError(int(small[0]), str(base / entry[name]))
        for name in ("attn_low", "attn_deep"):
            a = tensors[name]
            if a.ndim != 1 or a.shape[0] != n:
                raise DimensionMismatchError(
                    f"{entry[name]} has shape {a.shape} but {entry['y_last']} has {n} rows"
                )
            total = float(a.sum())
            if abs(total - 1.0) > ATTENTION_SUM_WARN_TOL:
                warnings.warn(
                    f"{entry[name]}: attention sums to {total:.6g}, not 1; "
                    "it will be renormalized where needed",
                    stacklevel=2,
                )
        is_global = bool(entry.get("is_global", False))
        n_global += is_global
        bundle = SubImageBundle(
            y_last=tensors["y_last"],
            keys_low=tensors["keys_low"],
            attn_low=tensors["attn_low"],
            keys_deep=tensors["keys_deep"],
            attn_deep=tensors["attn_deep"],
            grid_shape=tuple(entry.get("grid_shape", (1, n))),
            is_global=is_global,
            dataset=str(entry.get("dataset", "default")),
            image_id=str(entry.get("image_id", f"subimage_{i}")),
            crop_position=tuple(entry.get("crop_position", (0, 0))),
        )
        bundle.validate()
        bundles.append(bundle)
    if n_global > 1:
        raise MultipleGlobalImagesError(f"{n_global} bundles are marked is_global")
    return bundles


def write_bundle(out_dir, bundles, notes=None):
    """Write bundles as tensor files plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, b in enumerate(bundles):
        stem = b.image_id or f"subimage_{i}"
        entry = {
            "grid_shape": list(b.grid_shape),
            "is_global": bool(b.is_global),
            "dataset": b.dataset,
            "image_id": stem,
            "crop_position": list(b.crop_position),
        }
        for name in TENSOR_FIELDS:
            fname = f"{stem}_{name}.tkzt"
            write_tensor(out_dir / fname, getattr(b, name))
            entry[name] = fname
        entries.append(entry)
    doc = {"subimages": entries}
    if notes:
        doc["notes"] = notes
    manifest_path = out_dir / "manifest.yaml"
    manifest_path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return manifest_path


def _json_dump(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_results(out_dir, bundles, results, config_meta):
    """Serialize compression results: one tensor + metadata blob per sub-image.

    Stable key ordering and no timestamps, so identical runs produce
    byte-identical output trees.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for i, (bundle, res) in enumerate(zip(bundles, results)):
        stem = bundle.image_id or f"subimage_{i}"
        tokens_file = f"{stem}_compressed.tkzt"
        write_tensor(out_dir / tokens_file, res.compressed_tokens)
        meta = {
            "image_id": stem,
            "dataset": bundle.dataset,
            "grid_shape": list(bundle.grid_shape),
            "is_global_passthrough": res.is_global_passthrough,
            "n_original": res.n_original,
            "n_retained": int(res.retained_indices.size),
            "ratio": res.ratio,
            "retained_indices": [int(x) for x in res.retained_indices],
            "branch_provenance": list(res.branch_provenance),
            "branch_counts": res.provenance_counts(),
            "tokens_file": tokens_file,
            "config": config_meta,
        }
        if res.density_report is not None:
            meta["density"] = res.density_report.density
            meta["redundancy"] = res.density_report.redundancy
            meta["n_redundant"] = res.density_report.n_redundant
            meta["redundant_mask"] = [bool(x) for x in res.density_report.redundant_mask]
        meta_file = f"{stem}_meta.json"
        _json_dump(out_dir / meta_file, meta)
        index.append({"image_id": stem, "meta": meta_file, "tokens": tokens_file})
    _json_dump(out_dir / "results.json", {"config": config_meta, "subimages": index})
    return out_dir / "results.json"


def load_results(results_path):
    """Read back a results.json index and its per-sub-image metadata."""
    results_path = Path(results_path)
    try:
        index = json.loads(results_path.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", str(results_path)) from e
    if not isinstance(index, dict) or not isinstance(index.get("subimages"), list):
        raise ParseError("results index must be a mapping with a 'subimages' list", str(results_path))
    base = results_path.parent
    out = []
    for i, entry in enumerate(index["subimages"]):
        if not isinstance(entry, dict) or not {"meta", "tokens"} <= entry.keys():
            raise ParseError(f"subimage {i} needs 'meta' and 'tokens' entries", str(results_path))
        meta_path = base / entry["meta"]
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}", str(meta_path)) from e
        meta["tokens_path"] = str(base / entry["tokens"])
        out.append(meta)
    return out
