"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion output.
"""

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from tokzip import (
    AggregationConfig,
    DensityConfig,
    SelectionConfig,
    SyntheticSpec,
    aggregate,
    baseline_select,
    compress_subimage,
    compute_density,
    generate,
    global_select,
    read_tensor,
    write_bundle,
    write_tensor,
)
from tokzip.cli import main
from tokzip.errors import ParseError
from tokzip.harness import (
    first_draw_frequency,
    oracle_aggregate,
    oracle_density,
    oracle_global_select,
    uniform_subset_chisquare,
)


def _report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def test_criterion_1_density_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    n_instances = 200
    for t in range(n_instances):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 33))
        keys = rng.standard_normal((n, d))
        alpha = float(rng.uniform(-0.5, 0.95))
        limit_k = int(rng.integers(0, 8))
        count_self = bool(rng.integers(0, 2))
        rep = compute_density(keys, DensityConfig(alpha=alpha, limit_k=limit_k,
                                                  count_self=count_self))
        n_red, mask = oracle_density(keys, alpha, limit_k, count_self)
        assert rep.n_redundant == n_red, f"instance {t}"
        assert np.array_equal(rep.redundant_mask, mask), f"instance {t}"
        assert rep.redundancy == n_red / n
        assert rep.density == 1 - n_red / n
    elapsed = time.time() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("criterion 1 (density oracle)", f"{n_instances} instances exact in {elapsed:.2f}s")


def test_criterion_2_iqr_oracle_equivalence():
    rng = np.random.default_rng(202)
    cases = [np.full(8, 0.125), np.array([1.0, 1, 1, 1, 1, 1, 1, 10.0])]
    for _ in range(200):
        n = int(rng.integers(1, 129))
        cases.append(rng.uniform(0, 1, size=n) + 1e-9)
    for t, scores in enumerate(cases):
        assert global_select(scores).tolist() == oracle_global_select(scores), f"instance {t}"
    # edge cases explicitly
    assert global_select(np.full(8, 0.125)).size == 0
    assert global_select([1, 1, 1, 1, 1, 1, 1, 10]).tolist() == [7]
    _report("criterion 2 (IQR oracle)", f"{len(cases)} instances exact, edges included")


def test_criterion_3_aggregation_oracle_equivalence():
    rng = np.random.default_rng(303)
    for t in range(200):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 9))
        tokens = rng.standard_normal((n, d))
        keys = rng.standard_normal((n, d))
        attn = rng.uniform(0.01, 1, size=n)
        knn_k = int(rng.integers(0, min(5, n)))
        retained = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        include_self = bool(t % 2) or knn_k == 0
        got = aggregate(tokens, keys, attn, retained,
                        AggregationConfig(knn_k=knn_k, include_self=include_self))
        want = oracle_aggregate(tokens, keys, attn, retained, knn_k, include_self)
        assert np.allclose(got, want, atol=1e-6, rtol=0), f"instance {t}"
    _report("criterion 3 (aggregation oracle)", "200 instances within 1e-6, both self modes")


def test_criterion_4_sampling_distribution():
    start = time.time()
    freq = first_draw_frequency([0.7, 0.2, 0.1], 0, 100_000, seed=404)
    assert 0.69 <= freq <= 0.71, f"freq={freq}"
    chi2, p = uniform_subset_chisquare(5, 2, 50_000, seed=404)
    critical = sps.chi2.isf(0.001, df=9)
    assert chi2 < critical, f"chi2={chi2:.2f} >= {critical:.2f}"
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report("criterion 4 (sampling distribution)",
            f"freq={freq:.4f}, chi2={chi2:.2f} < {critical:.2f}, {elapsed:.2f}s")


def test_criterion_5_adaptivity():
    n = 576
    dcfg = DensityConfig()  # shipped alpha=0.7, limit_k=50
    rhos = [round(0.1 * i, 1) for i in range(10)]
    adaptive = {}
    fixed = {r: [] for r in (2 / 3, 1 / 2, 1 / 3)}
    for rho in rhos:
        ratios = []
        for seed in range(5):
            bundle = generate(SyntheticSpec(n_tokens=n, dim=n + 1,
                                            redundancy_fraction=rho, seed=seed))
            res = compress_subimage(bundle, dcfg, SelectionConfig(seed=seed))
            ratios.append(res.ratio)
            for r in fixed:
                sel = baseline_select("fixed", bundle.attn_deep, bundle.attn_low,
                                      res.density_report.density, SelectionConfig(seed=seed),
                                      ratio=r)
                fixed[r].append(sel.merged_indices.size / n)
        adaptive[rho] = ratios
    means = [float(np.mean(adaptive[rho])) for rho in rhos]
    for lo, hi in zip(means, means[1:]):
        assert hi <= lo + 1e-12, f"adaptive ratios not non-increasing: {means}"
    assert all(r == 1.0 for r in adaptive[0.0]), "rho=0 must give ratio exactly 1"

    conc = generate(SyntheticSpec(n_tokens=n, dim=n + 1, redundancy_fraction=0.9,
                                  attention_profile="concentrated", seed=0))
    res = compress_subimage(conc, dcfg, SelectionConfig(seed=0))
    assert res.ratio <= 0.2, f"concentrated rho=0.9 ratio {res.ratio}"

    for r, ratios in fixed.items():
        spread = max(ratios) - min(ratios)
        assert spread < 0.01, f"fixed ratio {r} spread {spread}"
    adaptive_spread = means[0] - means[-1]
    assert adaptive_spread > 0.4
    _report("criterion 5 (adaptivity)",
            f"means {['%.3f' % m for m in means]}, concentrated rho=0.9 ratio "
            f"{res.ratio:.3f}, fixed spread < 0.01, adaptive spread {adaptive_spread:.2f}")


def _tree_hash(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_6_determinism(tmp_path):
    bundles = [
        generate(SyntheticSpec(n_tokens=36, dim=40, redundancy_fraction=rho,
                               attention_profile="concentrated", seed=11))
        for rho in (0.25, 0.5)
    ]
    for i, b in enumerate(bundles):
        bundles[i] = dataclasses.replace(b, image_id=f"s{i}")
    manifest = write_bundle(tmp_path / "bundle", bundles)
    args = ["compress", "--manifest", str(manifest), "--seed", "21"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    ha, hb = _tree_hash(tmp_path / "a"), _tree_hash(tmp_path / "b")
    assert ha == hb
    _report("criterion 6 (determinism)", f"identical output trees, sha256 {ha[:12]}...")


def test_criterion_7_format_round_trip(tmp_path):
    rng = np.random.default_rng(707)
    for i in range(1000):
        shape = tuple(int(x) for x in rng.integers(1, 7, size=int(rng.integers(1, 4))))
        arr = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)).astype(np.float32)
        p = tmp_path / "t.tkzt"
        write_tensor(p, arr)
        assert read_tensor(p).tobytes() == arr.tobytes(), f"instance {i}"
    # corrupted headers raise the named parse error
    p = tmp_path / "c.tkzt"
    write_tensor(p, np.ones(3, dtype=np.float32))
    good = p.read_bytes()
    for mangled in (b"YKZT" + good[4:], good[:4] + b"\x07\x00" + good[6:], good[:-1]):
        p.write_bytes(mangled)
        with pytest.raises(ParseError):
            read_tensor(p)
    _report("criterion 7 (format round-trip)", "1000 tensors bitwise stable; corruption rejected")


def test_criterion_8_pipeline_hand_trace(clone_bundle, clone_density_cfg):
    res = compress_subimage(clone_bundle, clone_density_cfg, SelectionConfig(seed=1))
    # frozen golden values, hand-traced in tests/test_pipeline.py::TestHandTrace
    assert res.retained_indices.tolist() == [12, 13, 14, 15]
    assert res.ratio == 0.25
    assert res.density_report.density == 0.25
    trace = oracle_aggregate(clone_bundle.y_last, clone_bundle.keys_deep,
                             clone_bundle.attn_deep, [12, 13, 14, 15], 3)
    np.testing.assert_allclose(res.compressed_tokens, trace, atol=1e-9)
    _report("criterion 8 (hand trace)", "L=[12,13,14,15], ratio=0.25, Y' matches trace")


def test_criterion_9_out_of_scope_documented():
    # model-dependent benchmark scores cannot be reproduced at desk scale;
    # the README records this limit and the baseline path shares the adaptive
    # path's output format so mechanism-level comparisons stay possible
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "desk scale" in text or "full model" in text
    bundle = generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=0.5, seed=1))
    sel = baseline_select("fixed", bundle.attn_deep, bundle.attn_low,
                          compute_density(bundle.keys_low).density, ratio=0.5)
    assert sel.merged_indices is sel.local_indices or np.array_equal(
        sel.merged_indices, sel.local_indices
    )
    _report("criterion 9 (scope)", "model-dependent scores documented as out of scope")
