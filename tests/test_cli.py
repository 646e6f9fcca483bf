import hashlib
import json
from pathlib import Path

import pytest

from tokzip import SyntheticSpec, generate, write_bundle
from tokzip.cli import main


@pytest.fixture
def manifest(tmp_path):
    bundles = [
        generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=rho,
                               attention_profile="concentrated", seed=3))
        for rho in (0.0, 0.5)
    ]
    bundles[0].image_id = "sub_a"
    bundles[1].image_id = "sub_b"
    g = generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=0.0, seed=4))
    g.is_global = True
    g.image_id = "global"
    return write_bundle(tmp_path / "bundle", bundles + [g])


def _tree_hash(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_compress_deterministic(manifest, tmp_path, capsys):
    cfg = {"density": {"limit_k": 3}}
    cfg_path = tmp_path / "cfg.yaml"
    import yaml

    cfg_path.write_text(yaml.safe_dump(cfg))
    args = ["compress", "--manifest", str(manifest), "--config", str(cfg_path), "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert main(args + ["--out", str(tmp_path / "run2")]) == 0
    assert _tree_hash(tmp_path / "run1") == _tree_hash(tmp_path / "run2")
    out = capsys.readouterr().out
    assert "global image, passed through" in out


def test_compress_embeds_config(manifest, tmp_path):
    main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o"), "--seed", "9"])
    doc = json.loads((tmp_path / "o" / "results.json").read_text())
    assert doc["config"]["selection"]["seed"] == 9
    assert doc["config"]["density"]["alpha"] == 0.7
    assert doc["config"]["density"]["limit_k"] == 50
    assert doc["config"]["aggregation"]["knn_k"] == 3


def test_density_table(manifest, capsys):
    assert main(["density", "--manifest", str(manifest), "--alpha", "0.7", "--limit-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "sub_a" in out and "sub_b" in out
    assert "density" in out


def test_stats_outputs(manifest, tmp_path, capsys):
    main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert main(["stats", "--results", str(tmp_path / "o" / "results.json"),
                 "--labels", "demo", "--out", str(tmp_path / "stats")]) == 0
    stats = json.loads((tmp_path / "stats" / "stats.json").read_text())
    assert "demo" in stats["datasets"]
    assert (tmp_path / "stats" / "demo_hist.csv").exists()
    assert (tmp_path / "stats" / "demo_boxplot.csv").exists()


def test_masks_command(manifest, tmp_path):
    main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert main(["masks", "--manifest", str(manifest),
                 "--results", str(tmp_path / "o" / "results.json"),
                 "--out", str(tmp_path / "m"), "--scale", "2"]) == 0
    assert (tmp_path / "m" / "sub_a_selection.pgm").exists()
    assert (tmp_path / "m" / "sub_b_redundancy.pgm").exists()


def test_baseline_fixed_ratio(manifest, tmp_path, capsys):
    assert main(["baseline", "--manifest", str(manifest), "--method", "fixed",
                 "--ratio", "0.5", "--out", str(tmp_path / "b")]) == 0
    metas = json.loads((tmp_path / "b" / "results.json").read_text())["subimages"]
    for entry in metas:
        meta = json.loads((tmp_path / "b" / entry["meta"]).read_text())
        if meta["is_global_passthrough"]:
            continue
        assert abs(meta["n_retained"] - 0.5 * meta["n_original"]) <= 1


def test_selftest_quick(capsys):
    # shrunk trial counts keep the unit suite fast; the acceptance suite and
    # the CLI subcommand run the full-size version
    from tokzip.harness import oracle_suite

    report = oracle_suite(seed=0, n_instances=10, first_draw_trials=3000,
                          subset_trials=3000, marginal_trials=3000)
    names = {c["name"] for c in report}
    assert {"density_oracle", "iqr_oracle", "aggregation_oracle",
            "sampling_first_draw", "sampling_uniform_subsets",
            "random_baseline_marginal"} == names
    # distribution checks need the full trial counts for their tolerances;
    # only the exact oracle equivalences are asserted here
    assert all(c["passed"] for c in report if c["name"].endswith("_oracle"))


def test_error_exit_code(tmp_path, capsys):
    (tmp_path / "bad.yaml").write_text("foo: 1")
    rc = main(["density", "--manifest", str(tmp_path / "bad.yaml")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ")
    assert "\n" not in err



# name -> (files written under tmp_path, command line); each exited with a traceback before.
BAD_INPUTS = {
    "unknown_config_key": ({"c.yaml": "density:\n  alpah: 0.5\n"},
                           "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "invalid_config_yaml": ({"c.yaml": "density: [a, b\n"},
                            "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "invalid_manifest_yaml": ({"m.yaml": "subimages: [a, b\n"}, "density --manifest {t}/m.yaml"),
    "results_without_subimages": ({"results.json": '{"config": {}}'},
                                  "stats --results {t}/results.json --out {t}/o"),
    "fixed_without_ratio": ({}, "baseline --manifest {manifest} --out {t}/o --method fixed"),
    "alpha_out_of_range": ({}, "density --manifest {manifest} --alpha 2"),
    "scale_zero": ({}, "masks --manifest {manifest} --results {t}/run/results.json --out {t}/o "
                       "--scale 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line(case, manifest, tmp_path, capsys):
    files, command = BAD_INPUTS[case]
    assert main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(command.format(manifest=manifest, t=tmp_path).split()) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if case == "unknown_config_key":
        assert "'alpah'" in err
