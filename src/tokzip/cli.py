"""Command-line surface: compress, density, stats, masks, baseline, selftest."""

import argparse
import dataclasses
import functools
import sys
import warnings
from pathlib import Path

from .aggregation import AggregationConfig
from .bundle_io import _json_dump, load_bundle, load_results, read_yaml, write_results
from .density import DensityConfig, compute_density
from .errors import ParseError, TokzipError, UsageError
from .harness import baseline_select, oracle_suite
from .masks import PROVENANCE_LEVEL, render_masks
from .pipeline import HIST_BIN_WIDTH, compress_document, corpus_stats
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
        types = {f.name: type(f.default) for f in dataclasses.fields(cls)}
        for key, value in values.items():
            if key not in types:
                raise ParseError(f"unknown key {key!r} in section {section!r}", path)
            if not (type(value) is types[key] or types[key] is float and type(value) is int):
                raise ParseError(f"section {section!r}: {key} must be of type "
                                 f"{types[key].__name__}, got {value!r}", path)
        try:
            configs.append(cls(**values))
        except ValueError as e:
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
    if args.labels and len(args.labels) != len(args.results):
        raise UsageError(f"{len(args.labels)} --labels for {len(args.results)} --results")
    ratios, labels = [], []
    for i, results_path in enumerate(args.results):
        label = args.labels[i] if args.labels else Path(results_path).parent.name
        for meta in load_results(results_path):
            if meta.get("is_global_passthrough"):
                continue
            ratio = meta.get("ratio")
            if type(ratio) not in (int, float) or not 0 <= ratio <= 1:
                raise ParseError(f"{meta.get('image_id')!r}: ratio must be a number in [0, 1]",
                                 results_path)
            ratios.append(ratio)
            labels.append(label)
    stats = corpus_stats(ratios, labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(out / "stats.json", stats)
    for label, s in stats["datasets"].items():
        hist_lines = ["bin_low,bin_high,count"]
        for i, count in enumerate(s["histogram"]):
            hist_lines.append(f"{i * HIST_BIN_WIDTH:.2f},{(i + 1) * HIST_BIN_WIDTH:.2f},{count}")
        (out / f"{label}_hist.csv").write_text("\n".join(hist_lines) + "\n")
        box = ["stat,value"] + [f"{k},{s[k]}" for k in ("min", "q1", "median", "q3", "max", "mean")]
        (out / f"{label}_boxplot.csv").write_text("\n".join(box) + "\n")
        print(
            f"{label}: n={s['count']} mean={s['mean']:.4f} "
            f"[{s['min']:.3f}, Q1={s['q1']:.3f}, med={s['median']:.3f}, "
            f"Q3={s['q3']:.3f}, {s['max']:.3f}]"
        )
    return 0


def _meta_list(meta, key, valid, where):
    """meta[key] as a list of items that pass valid(); ParseError otherwise."""
    value = meta.get(key)
    if not isinstance(value, list) or not all(valid(x) for x in value):
        raise ParseError(f"{meta.get('image_id')!r}: {key} is missing or has a bad entry", where)
    return value


def _cmd_masks(args):
    if args.scale < 1:
        raise UsageError(f"--scale must be >= 1, got {args.scale}")
    bundles = {b.image_id: b for b in load_bundle(args.manifest)}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for meta in load_results(args.results):
        image_id = meta.get("image_id")
        if not isinstance(image_id, str) or image_id not in bundles:
            raise ParseError(f"image_id {image_id!r} is not in {args.manifest}", args.results)
        n = bundles[image_id].n_tokens
        retained = _meta_list(meta, "retained_indices", lambda i: type(i) is int and 0 <= i < n,
                              args.results)
        tags = _meta_list(meta, "branch_provenance",
                          lambda t: isinstance(t, str) and t in PROVENANCE_LEVEL, args.results)
        mask = (_meta_list(meta, "redundant_mask", lambda r: type(r) is bool, args.results)
                if "redundant_mask" in meta else None)
        passthrough = bool(meta.get("is_global_passthrough"))
        if not passthrough and len(tags) != len(retained):
            raise ParseError(f"{image_id!r}: {len(retained)} retained indices but {len(tags)} tags",
                             args.results)
        red, sel = render_masks(bundles[image_id].grid_shape, retained, tags, mask, passthrough,
                                out / image_id, scale=args.scale)
        print(f"{image_id}: wrote {red.name}, {sel.name}")
    return 0


def _cmd_baseline(args):
    if args.method == "fixed" and (args.ratio is None or not 0.0 <= args.ratio <= 1.0):
        raise UsageError("baseline --method fixed needs --ratio in [0, 1]")
    density_cfg, selection_cfg, agg_cfg = _load_config(None, args.seed)
    select = functools.partial(baseline_select, args.method, ratio=args.ratio)
    bundles = load_bundle(args.manifest)
    results = compress_document(bundles, density_cfg, selection_cfg, agg_cfg, select)
    meta = _config_meta(density_cfg, selection_cfg, agg_cfg,
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
    with warnings.catch_warnings():  # each warning as one line, like errors
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (TokzipError, OSError) as e:
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
