"""End-to-end compression of a small synthetic document, with statistics.

Three sub-images of increasing redundancy plus an uncompressed global image;
the realized ratios track the information content of each crop.
"""

import dataclasses

from tokzip import (
    DensityConfig,
    SelectionConfig,
    SyntheticSpec,
    compress_document,
    corpus_stats,
    generate,
)

bundles = []
for i, rho in enumerate((0.1, 0.5, 0.85)):
    b = generate(
        SyntheticSpec(
            n_tokens=144,
            dim=160,
            redundancy_fraction=rho,
            attention_profile="concentrated",
            seed=i,
        )
    )
    bundles.append(dataclasses.replace(b, image_id=f"crop_{i}"))

global_img = generate(SyntheticSpec(n_tokens=144, dim=160, redundancy_fraction=0.0, seed=9))
bundles.append(dataclasses.replace(global_img, is_global=True, image_id="global"))

results = compress_document(
    bundles,
    DensityConfig(alpha=0.7, limit_k=8),
    SelectionConfig(seed=0),
)

for b, r in zip(bundles, results):
    if r.is_global_passthrough:
        print(f"{b.image_id}: global image, {r.n_original} tokens passed through")
    else:
        counts = r.provenance_counts()
        print(
            f"{b.image_id}: density {r.density_report.density:.3f} -> "
            f"{r.retained_indices.size}/{r.n_original} tokens (ratio {r.ratio:.3f}), "
            f"global={counts['global'] + counts['both']} local-only={counts['local']}"
        )

stats = corpus_stats([r.ratio for r in results if not r.is_global_passthrough])
s = stats.per_label["all"]
print(
    f"\ncorpus: mean ratio {s['mean']:.3f}, "
    f"box [{s['min']:.3f}, {s['q1']:.3f}, {s['median']:.3f}, {s['q3']:.3f}, {s['max']:.3f}]"
)
print("histogram (0.05-wide bins):", s["histogram"])
