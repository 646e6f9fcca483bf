"""Command-line surface: compress, density, stats, masks, baseline, selftest."""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .aggregation import AggregationConfig, aggregate
from .bundle_io import _json_dump, load_bundle, load_results, read_yaml, write_results
from .density import DensityConfig, compute_density
from .errors import ParseError, TokzipError, UsageError
from .harness import baseline_select, oracle_suite
from .masks import render_masks
from .pipeline import (
    CompressionResult,
    compress_document,
    corpus_stats,
)
from .selection import SelectionConfig


def _load_config(path, seed_override=None):
    """Build the three stage configs from an optional YAML file of sections."""
    doc = (read_yaml(path, "config") if path else None) or {}
    if not isinstance(doc, dict):
        raise ParseError("config must be a mapping of sections", path)
    configs = []
    for section, cls in (("density", DensityConfig), ("selection", SelectionConfig),
                         ("aggregation", AggregationConfig)):
        values = doc.get(section) or {}
        if not isinstance(values, dict):
            raise ParseError(f"section {section!r} must be a mapping", path)
        values = dict(values)
        if section == "selection" and seed_override is not None:
            values["seed"] = seed_override
        unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ParseError(f"unknown key {unknown[0]!r} in section {section!r}", path)
        try:
            configs.append(cls(**values))
        except (TypeError, ValueError) as e:
            raise ParseError(f"section {section!r}: {e}", path) from e
    return tuple(configs)


def _config_meta(density_cfg, selection_cfg, agg_cfg, extra=None):
    meta = {
        "density": dataclasses.asdict(density_cfg),
        "selection": dataclasses.asdict(selection_cfg),
        "aggregation": dataclasses.asdict(agg_cfg),
        "quantile_method": "linear-interpolation (type 7)",
        "per_bundle_seeding": "every bundle draws from a fresh generator at selection.seed",
    }
    if extra:
        meta.update(extra)
    return meta


def _cmd_compress(args):
    density_cfg, selection_cfg, agg_cfg = _load_config(args.config, args.seed)
    bundles = load_bundle(args.manifest)
    results = compress_document(bundles, density_cfg, selection_cfg, agg_cfg)
    write_results(args.out, bundles, results, _config_meta(density_cfg, selection_cfg, agg_cfg))
    for bundle, res in zip(bundles, results):
        if res.is_global_passthrough:
            print(f"{bundle.image_id}: global image, passed through ({res.n_original} tokens)")
        else:
            print(
                f"{bundle.image_id}: d={res.density_report.density:.4f} "
                f"ratio={res.ratio:.4f} ({res.retained_indices.size}/{res.n_original})"
            )
    return 0


def _cmd_density(args):
    try:
        cfg = DensityConfig(alpha=args.alpha, limit_k=args.limit_k)
    except ValueError as e:
        raise UsageError(str(e)) from e
    bundles = load_bundle(args.manifest)
    print(f"{'image_id':<24} {'N':>6} {'N_R':>6} {'redundancy':>11} {'density':>9}")
    for b in bundles:
        rep = compute_density(b.keys_low, cfg)
        print(
            f"{b.image_id:<24} {b.n_tokens:>6} {rep.n_redundant:>6} "
            f"{rep.redundancy:>11.4f} {rep.density:>9.4f}"
        )
    return 0


def _cmd_stats(args):
    ratios, labels = [], []
    for i, results_path in enumerate(args.results):
        label = args.labels[i] if args.labels else Path(results_path).parent.name
        for meta in load_results(results_path):
            if meta.get("is_global_passthrough"):
                continue
            ratios.append(meta["ratio"])
            labels.append(label)

    class _R:
        is_global_passthrough = False

        def __init__(self, ratio):
            self.ratio = ratio

    stats = corpus_stats([_R(r) for r in ratios], labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(out / "stats.json", stats.to_dict())
    for label, s in stats.per_label.items():
        hist_lines = ["bin_low,bin_high,count"]
        for i, count in enumerate(s["histogram"]):
            hist_lines.append(f"{i * 0.05:.2f},{(i + 1) * 0.05:.2f},{count}")
        (out / f"{label}_hist.csv").write_text("\n".join(hist_lines) + "\n")
        box = ["stat,value"] + [f"{k},{s[k]}" for k in ("min", "q1", "median", "q3", "max", "mean")]
        (out / f"{label}_boxplot.csv").write_text("\n".join(box) + "\n")
        print(
            f"{label}: n={s['count']} mean={s['mean']:.4f} "
            f"[{s['min']:.3f}, Q1={s['q1']:.3f}, med={s['median']:.3f}, "
            f"Q3={s['q3']:.3f}, {s['max']:.3f}]"
        )
    return 0


def _cmd_masks(args):
    if args.scale < 1:
        raise UsageError(f"--scale must be >= 1, got {args.scale}")
    bundles = {b.image_id: b for b in load_bundle(args.manifest)}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for meta in load_results(args.results):
        bundle = bundles[meta["image_id"]]
        res = _result_from_meta(meta, bundle)
        red, sel = render_masks(bundle, res, out / meta["image_id"], scale=args.scale)
        print(f"{meta['image_id']}: wrote {red.name}, {sel.name}")
    return 0


def _result_from_meta(meta, bundle):
    from .density import DensityReport

    report = None
    if "redundant_mask" in meta:
        mask = np.asarray(meta["redundant_mask"], dtype=bool)
        report = DensityReport(
            n_redundant=meta["n_redundant"],
            redundancy=meta["redundancy"],
            density=meta["density"],
            redundant_mask=mask,
        )
    return CompressionResult(
        retained_indices=np.asarray(meta["retained_indices"], dtype=np.intp),
        compressed_tokens=np.empty((0, 0)),
        density_report=report,
        branch_provenance=meta["branch_provenance"],
        ratio=meta["ratio"],
        n_original=meta["n_original"],
        is_global_passthrough=meta.get("is_global_passthrough", False),
    )


def _cmd_baseline(args):
    if args.method == "fixed" and (args.ratio is None or not 0.0 <= args.ratio <= 1.0):
        raise UsageError("baseline --method fixed needs --ratio in [0, 1]")
    density_cfg = DensityConfig()
    agg_cfg = AggregationConfig()
    bundles = load_bundle(args.manifest)
    results = []
    for bundle in bundles:
        if bundle.is_global:
            n = bundle.n_tokens
            results.append(
                CompressionResult(
                    retained_indices=np.arange(n, dtype=np.intp),
                    compressed_tokens=np.asarray(bundle.y_last, dtype=np.float64).copy(),
                    density_report=None,
                    branch_provenance=[],
                    ratio=1.0,
                    n_original=n,
                    is_global_passthrough=True,
                )
            )
            continue
        sel = baseline_select(args.method, bundle, seed=args.seed, ratio=args.ratio,
                              density_cfg=density_cfg)
        merged = sel.merged_indices
        compressed = aggregate(bundle.y_last, bundle.keys_deep, bundle.attn_deep, merged, agg_cfg)
        results.append(
            CompressionResult(
                retained_indices=merged,
                compressed_tokens=compressed,
                density_report=compute_density(bundle.keys_low, density_cfg),
                branch_provenance=["local"] * merged.size,
                ratio=merged.size / bundle.n_tokens,
                n_original=bundle.n_tokens,
            )
        )
    meta = _config_meta(density_cfg, SelectionConfig(seed=args.seed), agg_cfg,
                        {"baseline_method": args.method, "baseline_ratio": args.ratio})
    write_results(args.out, bundles, results, meta)
    for bundle, res in zip(bundles, results):
        print(f"{bundle.image_id}: ratio={res.ratio:.4f}")
    return 0


def _cmd_selftest(args):
    report = oracle_suite(seed=args.seed)
    all_ok = True
    for check in report:
        status = "PASS" if check["passed"] else "FAIL"
        all_ok &= check["passed"]
        print(f"[{status}] {check['name']}: {check['detail']}")
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tokzip",
        description="Adaptive correlation-guided compression of vision-transformer token dumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress every sub-image in a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="YAML config with density/selection/aggregation sections")
    p.add_argument("--seed", type=int, default=None, help="overrides selection.seed")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("density", help="information-density reports only")
    p.add_argument("--manifest", required=True)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--limit-k", type=int, default=50)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("stats", help="corpus compression-ratio statistics")
    p.add_argument("--results", nargs="+", required=True, help="results.json paths")
    p.add_argument("--labels", nargs="*", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("masks", help="render redundancy/selection masks as PGM")
    p.add_argument("--manifest", required=True)
    p.add_argument("--results", required=True, help="results.json path")
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=_cmd_masks)

    p = sub.add_parser("baseline", help="non-adaptive baseline compressors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["random", "uniform", "fixed"], required=True)
    p.add_argument("--ratio", type=float, default=None, help="retention ratio for --method fixed")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("selftest", help="run the oracle-equivalence suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TokzipError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
