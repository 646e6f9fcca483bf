"""Bundle manifests, tensor loading, and result serialization.

A bundle manifest is a YAML document listing, per sub-image, the five tensor
file paths plus grid shape and source metadata. Tensor paths are resolved
relative to the manifest's directory.

Sub-images are independent, so a document can be streamed: read_manifest
checks the whole manifest, then load_entry and write_result take one
sub-image at a time and write_index comes last. load_bundle and
write_results do the same for a whole in-memory document. The CLI runs at
most two sub-images at once (workers.map_two), with BLAS pinned to one
thread while two run, and writes its index and prints its lines in
manifest order.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import yaml
from yaml.composer import Composer

from .errors import DimensionMismatchError, ParseError, check_field, is_number
from .pipeline import (BRANCH_TAGS, FIELD_RULES, SubImageBundle, check_document, check_grid,
                       check_retained)
from .tensorfile import read_tensor, write_tensor

ATTENTION_SUM_WARN_TOL = 1e-3

TENSOR_FIELDS = ("y_last", "keys_low", "attn_low", "keys_deep", "attn_deep")

RESULTS_INDEX = "results.json"


# The loader read_yaml parses with: SafeLoader, or libyaml's scanner and parser
# where PyYAML was built with them, which read a manifest some 6x faster.
YAML_LOADER = yaml.SafeLoader
if hasattr(yaml, "CSafeLoader"):
    class LibyamlSafeLoader(Composer, yaml.CSafeLoader):
        """CSafeLoader with PyYAML's Python composer in place of its C one.

        The C composer recurses on the C stack: input nested about 25,000
        levels deep (50 kB of "- ") crashes the interpreter. The Python one
        stops at the recursion limit with a RecursionError, which read_yaml
        reports. Both build the same nodes from the same events.
        """

        def __init__(self, stream):
            yaml.CSafeLoader.__init__(self, stream)
            Composer.__init__(self)

    YAML_LOADER = LibyamlSafeLoader


def read_yaml(path, what):
    """Parse a YAML file; unreadable files and bad YAML raise a one-line ParseError."""
    try:
        return yaml.load(Path(path).read_bytes(), Loader=YAML_LOADER)  # bad UTF-8 is a YAMLError
    except OSError as e:
        raise ParseError(f"cannot read {what}: {e.strerror}", str(path)) from e
    except RecursionError:
        raise ParseError("invalid YAML: nested too deeply", str(path)) from None
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(e, "problem", None) or " ".join(str(e).split())
        raise ParseError(f"invalid YAML{where}: {problem}", str(path)) from e


def read_manifest(manifest_path):
    """Check all of a manifest that needs no tensor, and read none.

    Returns per sub-image the SubImageBundle fields its entry gives, tensors
    as resolved paths, plus image_id (default subimage_<i>) and grid_shape
    (default None). Each metadata field must pass its pipeline.FIELD_RULES
    rule, and the entries must pass pipeline.check_document.
    """
    manifest_path = Path(manifest_path)
    where = str(manifest_path)
    doc = read_yaml(manifest_path, "manifest")
    if not isinstance(doc, dict) or not isinstance(doc.get("subimages"), list):
        raise ParseError("manifest must be a mapping with a 'subimages' list", where)
    entries = []
    for i, entry in enumerate(doc["subimages"]):
        if not isinstance(entry, dict):
            raise ParseError(f"subimage {i} must be a mapping", where)
        paths = {name: entry.get(name) for name in TENSOR_FIELDS}
        for name, path in paths.items():
            if not isinstance(path, str) or "\0" in path:
                raise ParseError(f"subimage {i} needs a file path '{name}'", where)
        fields = {"image_id": f"subimage_{i}", "grid_shape": None}
        fields.update({name: check_field(FIELD_RULES, name, entry[name],
                                         f"{where}: subimage {i}: ", ParseError)
                       for name in FIELD_RULES if name in entry})
        entries.append({name: manifest_path.parent / path for name, path in paths.items()} | fields)
    check_document([e["image_id"] for e in entries], [e.get("is_global") for e in entries],
                   f"{where}: ", ParseError)
    return entries


def load_entry(entry):
    """One read_manifest entry's SubImageBundle: its tensors read and checked.

    The three matrices stay float32, as read; the bundle keeps the attention
    vectors as the float64 arrays its check returns. An attention sum far
    from 1 is warned about before that check. The bundle is built from a
    copy of entry, so the list of entries holds no tensor.
    """
    fields = entry | {name: read_tensor(entry[name]) for name in TENSOR_FIELDS}
    for name in ("attn_low", "attn_deep"):
        total = float(fields[name].sum(dtype=np.float64))
        if ATTENTION_SUM_WARN_TOL < abs(total - 1.0) < np.inf:  # NaN and inf are errors
            warnings.warn(f"{entry['image_id']}: {name}: attention sums to {total:.6g}, "
                          "not 1; it will be renormalized where needed", stacklevel=2)
    fields["grid_shape"] = entry["grid_shape"] or (1, *fields["y_last"].shape[:1])  # (1, N)
    return SubImageBundle(**fields)


def load_bundle(manifest_path):
    """read_manifest, then every entry's bundle as load_entry builds it."""
    return [load_entry(entry) for entry in read_manifest(manifest_path)]


def write_bundle(out_dir, bundles, notes=None):
    """Write bundles that pass check_document as tensor files plus a manifest; returns its path."""
    check_document([b.image_id for b in bundles], [b.is_global for b in bundles])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for b in bundles:
        values = {name: getattr(b, name) for name in FIELD_RULES}
        entry = {name: list(v) if type(v) is tuple else v for name, v in values.items()}
        for name in TENSOR_FIELDS:
            fname = f"{b.image_id}_{name}.tkzt"
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


def open_results(out_dir):
    """Make out_dir and remove the results index an earlier run left in it.

    The index is written last, so a run that fails part way leaves none:
    never one that lists a mix of old and new files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RESULTS_INDEX).unlink(missing_ok=True)
    return out_dir


# Per field of a meta JSON that write_result writes, a test of its value and what it asks for.
# load_results applies it (the pass-through's redundant_mask is optional), then check_grid
# and check_retained.
META_RULES = {
    "image_id": FIELD_RULES["image_id"],
    "grid_shape": FIELD_RULES["grid_shape"],
    "is_global_passthrough": FIELD_RULES["is_global"],
    "ratio": (lambda v: is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "retained_indices": (lambda v: type(v) is list and all(type(i) is int for i in v),
                         "a list of integers"),
    "branch_provenance": (lambda v: type(v) is list and all(t in BRANCH_TAGS for t in v),
                          f"a list of {BRANCH_TAGS}"),
    "redundant_mask": (lambda v: type(v) is list and all(type(r) is bool for r in v),
                       "a list of bools"),
}


def write_result(out_dir, bundle, res, config_meta):
    """Write one sub-image's tokens and metadata as <image_id>_*; returns its index entry.

    Stable key ordering and no timestamps, so identical runs produce
    byte-identical output trees.
    """
    tokens_file = f"{bundle.image_id}_compressed.tkzt"
    write_tensor(out_dir / tokens_file, res.compressed_tokens)
    meta = {
        "image_id": bundle.image_id,
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
    meta_file = f"{bundle.image_id}_meta.json"
    _json_dump(out_dir / meta_file, meta)
    return {"image_id": bundle.image_id, "meta": meta_file, "tokens": tokens_file}


def write_index(out_dir, index, config_meta):
    """Write the results index over write_result's entries, last; returns its path."""
    path = Path(out_dir) / RESULTS_INDEX
    _json_dump(path, {"config": config_meta, "subimages": index})
    return path


def write_results(out_dir, bundles, results, config_meta):
    """Serialize a document's results: check_document, write_result per sub-image, the index."""
    if len(results) != len(bundles):
        raise DimensionMismatchError(f"{len(results)} results for {len(bundles)} sub-images")
    check_document([b.image_id for b in bundles], [b.is_global for b in bundles])
    out_dir = open_results(out_dir)
    index = [write_result(out_dir, bundle, res, config_meta)
             for bundle, res in zip(bundles, results)]
    return write_index(out_dir, index, config_meta)


def _read_json_mapping(path, what):
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"invalid JSON: {e}", str(path)) from e
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", str(path)) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object", str(path))
    return doc


def load_results(results_path):
    """Read back a results.json index and its metas, each checked once, then check_document."""
    results_path = Path(results_path)
    index = _read_json_mapping(results_path, "results index")
    if not isinstance(index.get("subimages"), list):
        raise ParseError("results index must be a mapping with a 'subimages' list", str(results_path))
    base = results_path.parent
    out = []
    for i, entry in enumerate(index["subimages"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("meta"), str)
                and isinstance(entry.get("tokens"), str)):
            raise ParseError(f"subimage {i} needs 'meta' and 'tokens' file names", str(results_path))
        where = str(base / entry["meta"])
        meta = _read_json_mapping(where, "sub-image metadata")
        for name in META_RULES:  # is_global_passthrough comes before redundant_mask
            if name != "redundant_mask" or name in meta or not meta["is_global_passthrough"]:
                check_field(META_RULES, name, meta.get(name), f"{where}: ", ParseError)
        n = len(meta.get("redundant_mask", meta["retained_indices"]))
        check_grid(meta["grid_shape"], n, f"{where}: ", ParseError)
        check_retained(meta["retained_indices"], meta["branch_provenance"], n,
                       meta["is_global_passthrough"], f"{where}: ", ParseError)
        meta["tokens_path"] = str(base / entry["tokens"])
        out.append(meta)
    check_document([m["image_id"] for m in out], [m["is_global_passthrough"] for m in out],
                   f"{results_path}: ", ParseError)
    return out
