"""Command-line surface: compress, density, stats, masks, baseline, selftest."""

import argparse
import dataclasses
import functools
import os
import sys
import warnings
from pathlib import Path

from .aggregation import AggregationConfig
from .bundle_io import (_json_dump, load_entry, load_results, open_results, read_manifest,
                        read_yaml, write_index, write_result)
from .density import DensityConfig, compute_density
from .errors import ParseError, TokzipError, UsageError, short_repr
from .harness import baseline_select, oracle_suite
from .masks import MAX_SCALE, render_masks
from .pipeline import HIST_BIN_WIDTH, compress_document, corpus_stats, is_file_name
from .selection import SelectionConfig
from .workers import map_two


def _load_config(path, seed_override=None):
    """Build the three stage configs from an optional YAML file of sections."""
    doc = (read_yaml(path, "config") if path else None) or {}
    if not isinstance(doc, dict):
        raise ParseError("config must be a mapping of sections", path)
    sections = {"density": DensityConfig, "selection": SelectionConfig,
                "aggregation": AggregationConfig}
    for name in doc:
        if name not in sections:
            raise ParseError(f"unknown section {short_repr(name)}", path)
    configs = []
    for section, cls in sections.items():
        values = doc.get(section) or {}
        if not isinstance(values, dict):
            raise ParseError(f"section {section!r} must be a mapping", path)
        values = dict(values)
        if section == "selection" and seed_override is not None:
            values["seed"] = seed_override
        for key in values:
            if key not in {f.name for f in dataclasses.fields(cls)}:
                raise ParseError(f"unknown key {short_repr(key)} in section {section!r}", path)
        try:
            configs.append(cls(**values))
        except ValueError as e:
            raise ParseError(f"section {section!r}: {e}", path) from e
    return tuple(configs)


def _config_meta(density_cfg, selection_cfg, agg_cfg, extra=None):
    return {
        "density": dataclasses.asdict(density_cfg),
        "selection": dataclasses.asdict(selection_cfg),
        "aggregation": dataclasses.asdict(agg_cfg),
        "quantile_method": "linear-interpolation (type 7)",
        "per_bundle_seeding": "every bundle draws from a fresh generator at selection.seed",
        **(extra or {}),
    }


def _compress_manifest(args, configs, config_meta, describe, select=None):
    """Load, compress, write and drop each sub-image, at most two at a time; the index comes last.

    read_manifest checks the whole manifest before any tensor is read, and
    open_results removes a stale index first, so a run that fails part way
    leaves no results.json. compress_document seeds every bundle afresh, so
    one call per bundle gives the bytes of one call over the document, in
    whichever order the bundles run. workers.map_two holds at most two
    sub-images, with BLAS pinned to one thread while two run, and hands
    back each entry's index entry and line in manifest order.
    `describe(bundle, res)` is the line printed per sub-image.
    """
    entries = read_manifest(args.manifest)
    out = open_results(args.out)

    def one(entry):
        bundle = load_entry(entry)
        res = compress_document([bundle], *configs, select)[0]
        return write_result(out, bundle, res, config_meta), describe(bundle, res)

    index = []
    for item, line in map_two(one, entries):
        index.append(item)
        print(line)
    write_index(out, index, config_meta)
    return 0


def _cmd_compress(args):
    configs = _load_config(args.config, args.seed)

    def describe(bundle, res):
        if res.is_global_passthrough:
            return f"{bundle.image_id}: global image, passed through ({res.n_original} tokens)"
        return (f"{bundle.image_id}: d={res.density_report.density:.4f} "
                f"ratio={res.ratio:.4f} ({res.retained_indices.size}/{res.n_original})")

    return _compress_manifest(args, configs, _config_meta(*configs), describe)


def _cmd_density(args):
    try:
        cfg = DensityConfig(alpha=args.alpha, limit_k=args.limit_k)
    except ValueError as e:
        raise UsageError(str(e)) from e

    def row(entry):
        b = load_entry(entry)
        rep = compute_density(b.cosine_low, cfg)
        return (f"{b.image_id:<24} {b.n_tokens:>6} {rep.n_redundant:>6} "
                f"{rep.redundancy:>11.4f} {rep.density:>9.4f}")

    entries = read_manifest(args.manifest)
    print(f"{'image_id':<24} {'N':>6} {'N_R':>6} {'redundancy':>11} {'density':>9}")
    for line in map_two(row, entries):
        print(line)
    return 0


def _cmd_stats(args):
    if args.labels and len(args.labels) != len(args.results):
        raise UsageError(f"{len(args.labels)} --labels for {len(args.results)} --results")
    names = args.labels or [Path(os.path.abspath(path)).parent.name for path in args.results]
    if not all(is_file_name(label) for label in names):
        raise UsageError(f"labels must be file names, got {short_repr(names)}")
    ratios, labels = [], []
    for label, results_path in zip(names, args.results):
        for meta in load_results(results_path):
            if not meta["is_global_passthrough"]:
                ratios.append(meta["ratio"])
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


def _cmd_masks(args):
    if not 1 <= args.scale <= MAX_SCALE:
        raise UsageError(f"--scale must be in [1, {MAX_SCALE}], got {args.scale}")
    known = {entry["image_id"] for entry in read_manifest(args.manifest)}
    metas = load_results(args.results)
    unknown = [meta["image_id"] for meta in metas if meta["image_id"] not in known]
    if unknown:
        raise ParseError(f"image_id {unknown[0]!r} is not in {args.manifest}", args.results)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for meta in metas:
        red, sel = render_masks(meta["grid_shape"], meta["retained_indices"],
                                meta["branch_provenance"], meta.get("redundant_mask"),
                                meta["is_global_passthrough"], out / meta["image_id"],
                                scale=args.scale)
        print(f"{meta['image_id']}: wrote {red.name}, {sel.name}")
    return 0


def _cmd_baseline(args):
    if args.method == "fixed" and (args.ratio is None or not 0.0 <= args.ratio <= 1.0):
        raise UsageError("baseline --method fixed needs --ratio in [0, 1]")
    configs = _load_config(None, args.seed)
    select = functools.partial(baseline_select, args.method, ratio=args.ratio)
    meta = _config_meta(*configs, {"baseline_method": args.method, "baseline_ratio": args.ratio})
    return _compress_manifest(args, configs, meta,
                              lambda bundle, res: f"{bundle.image_id}: ratio={res.ratio:.4f}",
                              select)


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
    p.add_argument("--alpha", type=float, default=DensityConfig.alpha)
    p.add_argument("--limit-k", type=int, default=DensityConfig.limit_k)
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
            if getattr(args, "seed", None) is not None and args.seed < 0:
                raise UsageError(f"{args.command} --seed must be >= 0, got {args.seed}")
            return args.func(args)
        except (TokzipError, OSError) as e:
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
