"""The benchmark's four workloads: inputs, one operation, digest and oracle checks.

One operation is one document; a run generates one document from its seed
and sends it again and again. The `doc576*` workloads run the CLI in-process
on a written manifest; the `hires2304_*` workloads call the library on
in-memory bundles, so they do no I/O.
"""

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tokzip
import tokzip.cli
import tokzip.pipeline
from tokzip.aggregation import AggregationConfig
from tokzip.density import DensityConfig
from tokzip.harness import oracle_aggregate, oracle_density, oracle_global_select
from tokzip.tensorfile import read_tensor

import docgen

MASK_SCALE = 4
BASELINE_RATIO = "0.25"
# Retained rows per crop checked against the brute-force aggregation oracle.
ORACLE_ROWS = 3
ORACLE_ATOL = 1e-6


class VerificationError(Exception):
    """An output disagrees with a harness oracle."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # docgen document kind
    cli_steps: tuple = ()  # CLI argument lists; empty means the library path
    global_branch: bool = True  # outputs tag IQR outliers global/both

    @property
    def on_disk(self):
        return bool(self.cli_steps)

    def make_inputs(self, seed, directory):
        """Generate the document for `seed` and return its input handle.

        A document written to disk is not kept in memory, so set-up holds no
        more than the timed loop does.
        """
        bundles = docgen.make_document(self.kind, seed)
        if not self.on_disk:
            return bundles
        manifest = tokzip.bundle_io.write_bundle(Path(directory) / "in", bundles)
        return manifest, Path(directory) / "out"

    def run(self, handle):
        """One operation on one document; returns what `digest` and `check` read."""
        if not self.on_disk:
            return tokzip.pipeline.compress_document(handle)
        manifest, out = handle
        fields = {"manifest": str(manifest), "out": str(out)}
        with contextlib.redirect_stdout(io.StringIO()):
            for step in self.cli_steps:
                code = tokzip.cli.main([arg.format(**fields) for arg in step])
                if code != 0:
                    raise RuntimeError(f"tokzip {step[0]} exited with {code}")
        return out

    def digest(self, output):
        return tree_digest(output) if self.on_disk else results_digest(output)

    def check(self, handle, output, rng):
        """Compare one document's output with the harness oracles.

        Returns per-crop records (image_id, N, d, R); raises VerificationError.
        """
        if self.on_disk:  # the bundles as the program read them
            crops, bundles = _crops_from_tree(output), tokzip.bundle_io.load_bundle(handle[0])
        else:
            crops, bundles = _crops_from_results(output), handle
        if len(crops) != len(bundles):
            raise VerificationError(f"{len(crops)} outputs for {len(bundles)} bundles")
        records = []
        for bundle, crop in zip(bundles, crops):
            if crop["image_id"] not in (None, bundle.image_id):
                raise VerificationError(f"output order: {crop['image_id']} != {bundle.image_id}")
            _check_crop(bundle, crop, self.global_branch, rng)
            if any(step[0] == "masks" for step in self.cli_steps):
                _check_redundancy_pgm(Path(output) / "masks", bundle, crop)
            records.append({
                "image_id": bundle.image_id,
                "global": bundle.is_global,
                "N": bundle.n_tokens,
                "d": crop["density"],
                "R": int(crop["retained"].size),
            })
        return records


WORKLOADS = {
    w.name: w
    for w in (
        Workload("doc576", "doc576",
                 (("compress", "--manifest", "{manifest}", "--out", "{out}"),)),
        Workload("hires2304_text", "text2304"),
        Workload("hires2304_blank", "blank2304"),
        Workload("doc576_baseline_masks", "doc576", (
            ("baseline", "--method", "fixed", "--ratio", BASELINE_RATIO,
             "--manifest", "{manifest}", "--out", "{out}"),
            ("masks", "--scale", str(MASK_SCALE), "--manifest", "{manifest}",
             "--results", "{out}/results.json", "--out", "{out}/masks"),
        ), global_branch=False),
    )
}


def tree_digest(root):
    """sha256 over every file's relative path and bytes, in sorted path order."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def results_digest(results):
    """sha256 over the retained indices, tokens, tags and masks of a result list."""
    h = hashlib.sha256()
    for r in results:
        h.update(np.asarray(r.retained_indices, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(r.compressed_tokens, dtype="<f8").tobytes())
        h.update(",".join(r.branch_provenance).encode() + b"\0")
        if r.density_report is not None:
            h.update(np.asarray(r.density_report.redundant_mask, dtype=bool).tobytes())
    return h.hexdigest()


def _crops_from_results(results):
    return [{
        "image_id": None,
        "global": r.is_global_passthrough,
        "retained": np.asarray(r.retained_indices),
        "tags": list(r.branch_provenance),
        "tokens": r.compressed_tokens,
        "mask": None if r.density_report is None else r.density_report.redundant_mask,
        "density": None if r.density_report is None else r.density_report.density,
    } for r in results]


def _crops_from_tree(out):
    return [{
        "image_id": meta["image_id"],
        "global": meta["is_global_passthrough"],
        "retained": np.asarray(meta["retained_indices"]),
        "tags": meta["branch_provenance"],
        "tokens": read_tensor(meta["tokens_path"]).astype(np.float64),
        "mask": None if "redundant_mask" not in meta else np.asarray(meta["redundant_mask"]),
        "density": meta.get("density"),
    } for meta in tokzip.bundle_io.load_results(Path(out) / "results.json")]


def _check_crop(bundle, crop, global_branch, rng):
    name = bundle.image_id
    if bundle.is_global:
        if not crop["global"] or not np.array_equal(crop["retained"], np.arange(bundle.n_tokens)):
            raise VerificationError(f"{name}: global image was not passed through")
        if not np.allclose(crop["tokens"], bundle.y_last, rtol=0, atol=ORACLE_ATOL):
            raise VerificationError(f"{name}: global tokens changed")
        return
    dcfg, acfg = DensityConfig(), AggregationConfig()
    _, mask = oracle_density(bundle.keys_low, dcfg.alpha, dcfg.limit_k, dcfg.count_self)
    if crop["mask"] is None or not np.array_equal(np.asarray(crop["mask"], dtype=bool), mask):
        raise VerificationError(f"{name}: redundancy mask differs from oracle_density")
    if global_branch:
        tagged = {int(i) for i, t in zip(crop["retained"], crop["tags"]) if t in ("global", "both")}
        if tagged != set(oracle_global_select(bundle.attn_deep)):
            raise VerificationError(f"{name}: global/both tags differ from oracle_global_select")
    rows = np.sort(rng.choice(crop["retained"].size, size=min(ORACLE_ROWS, crop["retained"].size),
                              replace=False))
    want = oracle_aggregate(bundle.y_last, bundle.keys_deep, bundle.attn_deep,
                            crop["retained"][rows], acfg.knn_k, acfg.include_self,
                            acfg.normalize_weights)
    if not np.allclose(crop["tokens"][rows], want, rtol=0, atol=ORACLE_ATOL):
        raise VerificationError(f"{name}: tokens differ from oracle_aggregate")


def _read_pgm(path):
    words = Path(path).read_text().split()
    if words[0] != "P2":
        raise VerificationError(f"{path}: not an ASCII PGM")
    width, height = int(words[1]), int(words[2])
    return np.array(words[4:], dtype=np.int64).reshape(height, width)


def _check_redundancy_pgm(mask_dir, bundle, crop):
    """The redundancy raster must show exactly the verified mask, upscaled."""
    rows, cols = bundle.grid_shape
    want = np.zeros(bundle.n_tokens, dtype=np.int64)
    if crop["mask"] is not None:
        want[np.asarray(crop["mask"], dtype=bool)] = 255
    want = np.kron(want.reshape(rows, cols), np.ones((MASK_SCALE, MASK_SCALE), dtype=np.int64))
    got = _read_pgm(Path(mask_dir) / f"{bundle.image_id}_redundancy.pgm")
    if not np.array_equal(got, want):
        raise VerificationError(f"{bundle.image_id}: redundancy mask raster differs")
