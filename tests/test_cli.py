import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import tokzip
import tokzip.errors
import tokzip.workers
from tokzip import (
    SelectionConfig,
    SyntheticSpec,
    baseline_select,
    compute_density,
    generate,
    load_bundle,
    load_results,
    write_bundle,
    write_tensor,
)
from tokzip.bundle_io import TENSOR_FIELDS
from tokzip.cli import main


@pytest.fixture
def manifest(tmp_path):
    bundles = [
        generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=rho,
                               attention_profile="concentrated", seed=3))
        for rho in (0.0, 0.5)
    ]
    bundles[0] = dataclasses.replace(bundles[0], image_id="sub_a")
    bundles[1] = dataclasses.replace(bundles[1], image_id="sub_b")
    g = generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=0.0, seed=4))
    g = dataclasses.replace(g, is_global=True, image_id="global")
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


def test_stats_labels_an_index_in_the_working_directory(manifest, tmp_path, capsys, monkeypatch):
    main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "run")])
    capsys.readouterr()
    monkeypatch.chdir(tmp_path / "run")
    assert main(["stats", "--results", "results.json", "--out", "../stats"]) == 0
    assert capsys.readouterr().out.startswith("run: n=2 ")
    assert sorted(p.name for p in (tmp_path / "stats").iterdir()) == [
        "run_boxplot.csv", "run_hist.csv", "stats.json"]
    assert list(json.loads((tmp_path / "stats" / "stats.json").read_text())["datasets"]) == ["run"]


def test_masks_command(manifest, tmp_path):
    main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert main(["masks", "--manifest", str(manifest),
                 "--results", str(tmp_path / "o" / "results.json"),
                 "--out", str(tmp_path / "m"), "--scale", "2"]) == 0
    assert (tmp_path / "m" / "sub_a_selection.pgm").exists()
    assert (tmp_path / "m" / "sub_b_redundancy.pgm").exists()


def test_masks_reads_no_tensor(manifest, tmp_path):
    main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    args = ["masks", "--manifest", str(manifest), "--results", str(tmp_path / "o" / "results.json")]
    assert main(args + ["--out", str(tmp_path / "m1")]) == 0
    tensors = sorted(tmp_path.rglob("*.tkzt"))
    assert len(tensors) == 18  # 5 inputs and 1 output for each of 3 images
    for path in tensors:
        path.unlink()
    assert main(args + ["--out", str(tmp_path / "m2")]) == 0
    assert _tree_hash(tmp_path / "m1") == _tree_hash(tmp_path / "m2")


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



# A manifest entry for the fixture's sub_a tensors, seen from tmp_path.
SUB_A = ", ".join(f"{name}: bundle/sub_a_{name}.tkzt" for name in TENSOR_FIELDS)
ONE_META = '{"subimages": [{"meta": "m.json", "tokens": "t.tkzt"}]}'


def _entry(stem, **fields):
    """A manifest entry, in YAML flow style, for the fixture's files of `stem`."""
    values = {**{name: f"bundle/{stem}_{name}.tkzt" for name in TENSOR_FIELDS},
              "image_id": stem, **fields}
    return "{" + ", ".join(f"{key}: {value}" for key, value in values.items()) + "}"


# The fixture's document, but the last tensor of its last entry is not a tensor file.
LAST_TENSOR_BAD = (f"subimages: [{_entry('sub_a')}, {_entry('sub_b')}, "
                   f"{_entry('global', is_global='true', attn_deep='bad.tkzt')}]\n")
# The same, with the bad tensor in the middle entry, which runs beside the entries around it.
MIDDLE_TENSOR_BAD = (f"subimages: [{_entry('sub_a')}, {_entry('sub_b', attn_deep='bad.tkzt')}, "
                     f"{_entry('global', is_global='true')}]\n")

# A passed-through global image has no mask to check the grid against: N is its index count.
HUGE_GRID_META = ('{"image_id": "global", "is_global_passthrough": true, "branch_provenance": [], '
                  '"grid_shape": [3000000, 300000], "retained_indices": [0, 1, 2, 3], '
                  '"ratio": 1.0}')

# The fields load_results checks in a meta of sub_a, which keeps 4 of its 16 tokens.
SUB_A_META = {"image_id": "sub_a", "grid_shape": [4, 4], "is_global_passthrough": False,
              "ratio": 0.25, "retained_indices": [0, 5, 10, 15],
              "branch_provenance": ["local"] * 4, "redundant_mask": [False] * 16}

# A passed-through global image's meta, for a 16-token grid.
GLOBAL_META = {"image_id": "global", "grid_shape": [4, 4], "is_global_passthrough": True,
               "ratio": 1.0, "retained_indices": list(range(16)), "branch_provenance": []}


def _index(*metas):
    """A results index listing the meta files `metas` in order."""
    return json.dumps({"subimages": [{"meta": m, "tokens": "t.tkzt"} for m in metas]})


# A results index whose crop sub_a is followed by two global images.
TWO_GLOBALS = {"results.json": _index("m.json", "g.json", "g2.json"),
               "m.json": json.dumps(SUB_A_META), "g.json": json.dumps(GLOBAL_META),
               "g2.json": json.dumps(GLOBAL_META | {"image_id": "sub_b"})}

# sub_a's meta, but its retained index is negative: load_results refuses it.
NEGATIVE_INDEX_META = json.dumps(SUB_A_META | {"retained_indices": [-1],
                                               "branch_provenance": ["local"]})


def _later_bad_meta(**fields):
    """A valid meta of sub_a, then a meta n.json that masks must refuse before writing sub_a's."""
    return {"results.json": _index("m.json", "n.json"), "m.json": json.dumps(SUB_A_META),
            "n.json": json.dumps(SUB_A_META | fields)}


# A 184-byte config whose min_retained is a list of aliases nested four levels
# deep: its full repr is 107,697 characters.
ALIASED_CONFIG = ("selection:\n  min_retained: [&d [&c [&b [&a [1, 1, 1, 1, 1, 1, 1, 1]"
                  + ", *a" * 7 + "]" + ", *b" * 7 + "]" + ", *c" * 7 + "]" + ", *d" * 7 + "]\n")

# name -> (files written under tmp_path, command line). Each exited with a traceback before,
# except image_id_with_slash and labels_not_file_name, which wrote output outside --out,
# last_tensor_in_last_entry, which left the earlier run's results.json in --out,
# config_value_aliased, whose one error line was 107,000 characters long, and nine that
# exited 0: two sub-images with one id shared one set of output files, an empty id
# was replaced by the entry's position, a non-finite iqr_factor switched the global branch
# off, a quoted is_global 'false' passed its crop through uncompressed, a dataset or an
# image_id that was not a string was turned into one, density read two global images,
# and a misspelled config section was ignored.
# masks_meta_grid_too_large would allocate 838 GiB if masks trusted the meta's grid;
# masks --scale 10**10 asked numpy for a 5.24 TiB raster, and 10**20 overflowed.
# masks_negative_retained_index was already one error line, from render_masks; load_results
# now refuses it, naming the meta file.
# negative_seed and compress_negative_seed were one error line too, but it blamed the
# config's selection section, which baseline does not even read, instead of --seed.
# stage_error_names_the_crop was one error line too, but it did not say which crop failed.
# stats and masks exited 0 on a meta whose is_global_passthrough was 'false': stats dropped
# the crop and masks drew it as the global image; stats read an unknown branch tag. The
# meta errors named results.json, not the meta file, and a results.json in the root folder
# failed on the missing file, where one that existed would have been labelled ''.
# middle_tensor_in_middle_entry was one error line too; its entry runs beside the ones around it.
# masks_repeated_image_id and results_two_global_images_* exited 0: masks wrote sub_a's
# masks twice, the second over the first, and stats and masks read two global images.
# masks_later_unknown_image_id and masks_later_index_out_of_range wrote sub_a's masks before
# they failed, and masks_image_id_dot exited 0 after writing o_redundancy.pgm beside --out o.
BAD_INPUTS = {
    "unknown_config_key": ({"c.yaml": "density:\n  alpah: 0.5\n"},
                           "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "unknown_config_section": ({"c.yaml": "densty:\n  alpha: 0.9\n"},
                               "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "config_value_aliased": ({"c.yaml": ALIASED_CONFIG},
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
    "scale_too_large": ({}, "masks --manifest {manifest} --results {t}/run/results.json "
                            "--out {t}/o --scale 10000000000"),
    "scale_overflows": ({}, "masks --manifest {manifest} --results {t}/run/results.json "
                            "--out {t}/o --scale 100000000000000000000"),
    "subimages_scalar": ({"m.yaml": "subimages: 5\n"}, "density --manifest {t}/m.yaml"),
    "subimage_not_mapping": ({"m.yaml": "subimages: [1]\n"}, "density --manifest {t}/m.yaml"),
    "grid_shape_scalar": ({"m.yaml": f"subimages: [{{{SUB_A}, grid_shape: 5}}]\n"},
                          "density --manifest {t}/m.yaml"),
    "grid_shape_strings": ({"m.yaml": f"subimages: [{{{SUB_A}, grid_shape: [a, b]}}]\n"},
                           "density --manifest {t}/m.yaml"),
    "grid_shape_three": ({"m.yaml": f"subimages: [{{{SUB_A}, grid_shape: [2, 2, 4]}}]\n"},
                         "density --manifest {t}/m.yaml"),
    "meta_json_list": ({"results.json": ONE_META, "m.json": "[]"},
                       "stats --results {t}/results.json --out {t}/o"),
    "meta_without_ratio": ({"results.json": ONE_META,
                            "m.json": json.dumps({k: v for k, v in SUB_A_META.items()
                                                  if k != "ratio"})},
                           "stats --results {t}/results.json --out {t}/o"),
    "stats_meta_passthrough_not_bool": ({"results.json": ONE_META, "m.json": json.dumps(
                                            SUB_A_META | {"is_global_passthrough": "false"})},
                                        "stats --results {t}/results.json --out {t}/o"),
    "masks_meta_passthrough_not_bool": ({"results.json": ONE_META, "m.json": json.dumps(
                                            SUB_A_META | {"is_global_passthrough": "false"})},
                                        "masks --manifest {manifest} --results {t}/results.json "
                                        "--out {t}/o"),
    "meta_unknown_branch_tag": ({"results.json": ONE_META, "m.json": json.dumps(
                                    SUB_A_META | {"branch_provenance": ["local"] * 3 + ["kept"]})},
                                "stats --results {t}/results.json --out {t}/o"),
    "masks_unknown_image_id": ({"results.json": ONE_META,
                                "m.json": json.dumps(SUB_A_META | {"image_id": "nope"})},
                               "masks --manifest {manifest} --results {t}/results.json --out {t}/o"),
    "image_id_with_slash": ({"m.yaml": f"subimages: [{{{SUB_A}, image_id: ../x}}]\n"},
                            "compress --manifest {t}/m.yaml --out {t}/o"),
    "config_value_wrong_type": ({"c.yaml": "selection:\n  min_retained: 1.5\n"},
                                "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "empty_aggregation_group": ({"c.yaml": "aggregation:\n  knn_k: 0\n  include_self: false\n"},
                                "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "negative_seed": ({}, "baseline --manifest {manifest} --out {t}/o --method random --seed -1"),
    "compress_negative_seed": ({}, "compress --manifest {manifest} --out {t}/o --seed -1"),
    "selftest_negative_seed": ({}, "selftest --seed -1"),
    "is_global_string": ({"m.yaml": f"subimages: [{{{SUB_A}, is_global: 'false'}}]\n"},
                         "compress --manifest {t}/m.yaml --out {t}/o"),
    "dataset_not_string": ({"m.yaml": f"subimages: [{{{SUB_A}, dataset: [x, y]}}]\n"},
                           "compress --manifest {t}/m.yaml --out {t}/o"),
    "image_id_not_string": ({"m.yaml": f"subimages: [{{{SUB_A}, image_id: 7}}]\n"},
                            "compress --manifest {t}/m.yaml --out {t}/o"),
    "two_global_images": ({"m.yaml": f"subimages: [{_entry('sub_a', is_global='true')}, "
                                     f"{_entry('global', is_global='true')}]\n"},
                          "density --manifest {t}/m.yaml"),
    "last_tensor_in_last_entry": ({"m.yaml": LAST_TENSOR_BAD, "bad.tkzt": "not a tensor"},
                                  "compress --manifest {t}/m.yaml --out {t}/run"),
    "middle_tensor_in_middle_entry": ({"m.yaml": MIDDLE_TENSOR_BAD, "bad.tkzt": "not a tensor"},
                                      "compress --manifest {t}/m.yaml --out {t}/run"),
    "labels_count": ({}, "stats --results {t}/run/results.json {t}/run/results.json --labels a "
                         "--out {t}/o"),
    "duplicate_image_id": ({"m.yaml": f"subimages: [{{{SUB_A}, image_id: same}}, "
                                      f"{{{SUB_A}, image_id: same}}]\n"},
                           "density --manifest {t}/m.yaml"),
    "empty_image_id": ({"m.yaml": f"subimages: [{{{SUB_A}, image_id: ''}}]\n"},
                       "density --manifest {t}/m.yaml"),
    "iqr_factor_nan": ({"c.yaml": "selection:\n  iqr_factor: .nan\n"},
                       "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "iqr_factor_inf": ({"c.yaml": "selection:\n  iqr_factor: .inf\n"},
                       "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "iqr_factor_beyond_float64": ({"c.yaml": "selection:\n  iqr_factor: 1" + "0" * 310 + "\n"},
                                  "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "labels_not_file_name": ({}, "stats --results {t}/run/results.json --labels ../escaped "
                                 "--out {t}/o"),
    "label_of_the_root_folder": ({}, "stats --results /results.json --out {t}/o"),
    "masks_meta_grid_too_large": ({"results.json": ONE_META, "m.json": HUGE_GRID_META},
                                  "masks --manifest {manifest} --results {t}/results.json "
                                  "--out {t}/o"),
    "masks_negative_retained_index": ({"results.json": ONE_META, "m.json": NEGATIVE_INDEX_META},
                                      "masks --manifest {manifest} --results {t}/results.json "
                                      "--out {t}/o"),
    "manifest_nested_too_deeply": ({"m.yaml": "- " * 3000 + "1"},
                                   "compress --manifest {t}/m.yaml --out {t}/o"),
    "config_nested_too_deeply": ({"c.yaml": "- " * 3000 + "1"},
                                 "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
    "results_nested_too_deeply": ({"r.json": "[" * 100000}, "stats --results {t}/r.json --out {t}/o"),
    "masks_repeated_image_id": ({"results.json": _index("m.json", "m.json"),
                                 "m.json": json.dumps(SUB_A_META)},
                                "masks --manifest {manifest} --results {t}/results.json "
                                "--out {t}/o"),
    "masks_later_unknown_image_id": (_later_bad_meta(image_id="nope"),
                                     "masks --manifest {manifest} --results {t}/results.json "
                                     "--out {t}/o"),
    "masks_later_index_out_of_range": (_later_bad_meta(image_id="sub_b",
                                                       retained_indices=[0, 5, 10, 16]),
                                       "masks --manifest {manifest} --results {t}/results.json "
                                       "--out {t}/o"),
    "masks_image_id_dot": ({"m.yaml": f"subimages: [{{{SUB_A}, image_id: '.'}}]\n",
                            "results.json": ONE_META,
                            "m.json": json.dumps(SUB_A_META | {"image_id": "."})},
                           "masks --manifest {t}/m.yaml --results {t}/results.json --out {t}/o"),
    "results_two_global_images_stats": (TWO_GLOBALS, "stats --results {t}/results.json --out {t}/o"),
    "results_two_global_images_masks": (TWO_GLOBALS, "masks --manifest {manifest} "
                                                     "--results {t}/results.json --out {t}/o"),
    "stage_error_names_the_crop": ({"c.yaml": "aggregation:\n  knn_k: 100\n"},
                                   "compress --manifest {manifest} --out {t}/o --config {t}/c.yaml"),
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
    if case == "unknown_config_section":
        assert "unknown section 'densty'" in err
    if case.endswith("negative_seed"):
        assert "--seed" in err
    if case.startswith("iqr_factor_"):
        assert "iqr_factor must be a finite number > 0" in err
    if case == "config_value_aliased":
        assert len(err) < 300 and "min_retained" in err
    if case == "labels_not_file_name":
        assert not list(tmp_path.glob("escaped*"))
    if case in ("last_tensor_in_last_entry", "middle_tensor_in_middle_entry"):
        # the good run's index would list new and old files
        assert not (tmp_path / "run" / "results.json").exists()
    if case.endswith("_nested_too_deeply"):
        assert "nested too deeply" in err
    if case == "stage_error_names_the_crop":
        assert err.startswith("error: NeighborCountExceedsTokensError: sub_a: knn_k=100")
    if "meta_" in case:
        assert f"{tmp_path / 'm.json'}: " in err
    if case.endswith("passthrough_not_bool"):
        assert "is_global_passthrough must be a bool, got 'false'" in err
    if case == "meta_unknown_branch_tag":
        assert "branch_provenance must be a list of" in err
    if case.endswith("unknown_image_id"):
        assert "'nope' is not in" in err
    if case == "masks_later_index_out_of_range":
        assert f"{tmp_path / 'n.json'}: retained index 16 not in [0, 16)" in err
    if case == "masks_image_id_dot":
        assert "subimage 0: image_id must be a file name, got '.'" in err
    if case == "masks_meta_grid_too_large":
        assert "does not tile 4 tokens" in err
    if case == "masks_negative_retained_index":
        assert err.startswith(f"error: ParseError: {tmp_path / 'm.json'}: retained index -1 ")
    if case == "label_of_the_root_folder":
        assert "labels must be file names, got ['']" in err
    if case == "masks_repeated_image_id":
        assert f"{tmp_path / 'results.json'}: subimage 1: image_id 'sub_a' repeats" in err
    if case.startswith("results_two_global_images"):
        assert f"{tmp_path / 'results.json'}: subimage 2 is a second global image" in err
    if command.startswith("masks"):
        assert not list(tmp_path.rglob("*.pgm"))


def test_nesting_deeper_than_the_c_stack_is_one_error_line(tmp_path):
    """100,000 levels overflow libyaml's own composer; the process must still exit 1."""
    (tmp_path / "m.yaml").write_text("- " * 100000 + "1")
    src = Path(tokzip.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "tokzip.cli", "density", "--manifest",
                           str(tmp_path / "m.yaml")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"error: ParseError: {tmp_path / 'm.yaml'}: "
                                        "invalid YAML: nested too deeply"]


def test_warning_is_one_line(manifest, tmp_path, capsys):
    attn = load_bundle(manifest)[0].attn_low * 3.0  # sums to 3, far from 1
    write_tensor(tmp_path / "attn3.tkzt", attn)
    entry = SUB_A.replace("bundle/sub_a_attn_low.tkzt", "attn3.tkzt")
    (tmp_path / "m.yaml").write_text(f"subimages: [{{{entry}, grid_shape: [3, 5]}}]\n")
    assert main(["density", "--manifest", str(tmp_path / "m.yaml")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("warning: ") and "attention sums to 3" in lines[0]
    assert lines[1].startswith("error: DimensionMismatchError: ")


def test_tokens_beyond_float32_are_one_error_line(manifest, tmp_path, capsys):
    crop = load_bundle(manifest)[0]
    crop = dataclasses.replace(crop, attn_deep=np.full(crop.n_tokens, 1e38))
    big = write_bundle(tmp_path / "big", [crop])
    (tmp_path / "cfg.yaml").write_text("aggregation: {normalize_weights: false}\n")
    out = tmp_path / "run"
    assert main(["compress", "--manifest", str(big), "--config", str(tmp_path / "cfg.yaml"),
                 "--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert errors == [f"error: NonFiniteValueError: {crop.image_id}: "
                      "a group sum exceeds the float32 range"]
    assert not (out / "results.json").exists()


@pytest.fixture
def redundant_manifest(tmp_path):
    """Two N=120 crops with a 60-token clone cluster (density 0.5 at the
    default limit_k=50) and a global image."""
    bundles = [
        dataclasses.replace(
            generate(SyntheticSpec(n_tokens=120, dim=64, redundancy_fraction=0.5,
                                   attention_profile="concentrated", seed=s)),
            image_id=f"crop{s}", is_global=s == 2)
        for s in range(3)
    ]
    return write_bundle(tmp_path / "bundle", bundles)


@pytest.mark.parametrize("method,ratio", [("random", None), ("uniform", None), ("fixed", 0.3)])
def test_baseline_shares_the_compression_path(method, ratio, redundant_manifest, tmp_path,
                                              monkeypatch):
    calls = []
    real = tokzip.density.compute_density

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (tokzip.cli, tokzip.harness, tokzip.pipeline):
        monkeypatch.setattr(module, "compute_density", counting)
    args = ["baseline", "--manifest", str(redundant_manifest), "--method", method,
            "--seed", "5", "--out", str(tmp_path / "b")]
    assert main(args + (["--ratio", str(ratio)] if ratio is not None else [])) == 0
    assert len(calls) == 2  # once per crop
    monkeypatch.undo()

    bundles = load_bundle(redundant_manifest)
    metas = load_results(tmp_path / "b" / "results.json")
    for bundle, meta in zip(bundles[:2], metas[:2]):
        report = compute_density(bundle.keys_low)
        assert report.density == 0.5
        sel = baseline_select(method, bundle.attn_deep, bundle.attn_low, report.density,
                              SelectionConfig(seed=5), ratio=ratio)
        assert meta["retained_indices"] == sel.merged_indices.tolist()
        assert meta["branch_provenance"] == ["local"] * sel.merged_indices.size
        assert meta["density"] == report.density
        assert meta["redundancy"] == report.redundancy
        assert meta["n_redundant"] == report.n_redundant
        assert meta["redundant_mask"] == report.redundant_mask.tolist()
    assert metas[2]["is_global_passthrough"]


@pytest.fixture
def pooled(monkeypatch):
    """Two BLAS threads, so map_two pools: numpy's OpenBLAS set to 2 where it is found, else a
    stand-in for it. Yields its thread-count getter and the counts map_two sets, in order."""
    count = [2]
    get, set_ = tokzip.workers.openblas_threads() or (lambda: count[0],
                                                      lambda n: count.__setitem__(0, n))
    before, sets = get(), []
    set_(2)
    monkeypatch.setattr(tokzip.workers, "openblas_threads",
                        lambda: (get, lambda n: sets.append(n) or set_(n)))
    yield get, sets
    set_(before)


def blas_unavailable(monkeypatch):
    """The serial fallback: map_two finds no BLAS library to pin."""
    monkeypatch.setattr(tokzip.workers, "openblas_threads", lambda: None)


@pytest.mark.parametrize("mode", ["pooled", "serial"])
def test_compress_holds_at_most_two_sub_images_at_a_time(mode, manifest, tmp_path, monkeypatch,
                                                         request):
    if mode == "pooled":
        request.getfixturevalue("pooled")
    else:
        blas_unavailable(monkeypatch)
    loaded, most = [], [0]  # a weak reference to each bundle loaded; the most alive at once
    lock = threading.Lock()
    real_load, real_compress = tokzip.cli.load_entry, tokzip.pipeline.compress_subimage

    def count_alive():
        with lock:
            most[0] = max(most[0], sum(ref() is not None for ref in loaded))

    def loading(entry):
        bundle = real_load(entry)
        with lock:
            loaded.append(weakref.ref(bundle))
        count_alive()
        return bundle

    def compressing(bundle, *args):
        count_alive()
        return real_compress(bundle, *args)

    monkeypatch.setattr(tokzip.cli, "load_entry", loading)
    monkeypatch.setattr(tokzip.pipeline, "compress_subimage", compressing)
    assert main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 0
    assert len(loaded) == 3  # the global image passes through compress_subimage too
    assert most[0] == 1 if mode == "serial" else 1 <= most[0] <= 2


def test_pooled_and_serial_trees_are_byte_identical(redundant_manifest, tmp_path, monkeypatch,
                                                    capsys, pooled):
    get, sets = pooled
    seen = []  # the BLAS thread count each compress_subimage call ran under
    real = tokzip.pipeline.compress_subimage
    monkeypatch.setattr(tokzip.pipeline, "compress_subimage",
                        lambda *args: seen.append(get()) or real(*args))
    args = ["compress", "--manifest", str(redundant_manifest), "--seed", "3", "--out"]
    assert main(args + [str(tmp_path / "pooled")]) == 0
    assert seen == [1, 1, 1] and sets == [1, 2]  # pinned to 1, then restored
    pooled_out = capsys.readouterr().out
    blas_unavailable(monkeypatch)
    assert main(args + [str(tmp_path / "serial")]) == 0
    assert seen[3:] == [2, 2, 2]
    assert capsys.readouterr().out == pooled_out
    assert _tree_hash(tmp_path / "pooled") == _tree_hash(tmp_path / "serial")


@pytest.mark.parametrize("fails", [False, True])
def test_blas_threads_are_restored_after_a_pooled_run(fails, manifest, tmp_path, monkeypatch,
                                                      pooled):
    get, sets = pooled
    if fails:
        def failing(bundle, *args):
            raise tokzip.errors.TokzipError(f"{bundle.image_id}: broken")

        monkeypatch.setattr(tokzip.pipeline, "compress_subimage", failing)
    code = main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == int(fails)
    assert sets == [1, 2] and get() == 2


def gated_loads(monkeypatch, gates):
    """Replace the CLI's load_entry; gates maps an image_id to a function run before its load.

    Returns the image_ids in the order their loads began."""
    started, real = [], tokzip.cli.load_entry

    def loading(entry):
        started.append(entry["image_id"])
        gates.get(entry["image_id"], lambda: None)()
        return real(entry)

    monkeypatch.setattr(tokzip.cli, "load_entry", loading)
    return started


@pytest.fixture
def four_manifest(tmp_path):
    bundles = [dataclasses.replace(
        generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=0.5, seed=s)),
        image_id=f"e{s}") for s in range(4)]
    return write_bundle(tmp_path / "four", bundles)


def _wait(event):
    assert event.wait(timeout=60), "the other sub-image never ran alongside"


def test_a_later_failure_prints_the_earlier_line_first(four_manifest, tmp_path, monkeypatch,
                                                       capsys, pooled):
    failed = threading.Event()

    def fail():
        failed.set()
        raise tokzip.errors.TokzipError("e2: broken")

    started = gated_loads(monkeypatch, {"e1": lambda: _wait(failed), "e2": fail})
    out = tmp_path / "o"
    assert main(["compress", "--manifest", str(four_manifest), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["e0", "e1"]
    assert captured.err == "error: TokzipError: e2: broken\n"
    assert sorted(started) == ["e0", "e1", "e2"]  # e3 is never started
    assert not (out / "results.json").exists()


def test_an_earlier_failure_prints_only_the_lines_before_it(four_manifest, tmp_path, monkeypatch,
                                                            capsys, pooled):
    later, failed = threading.Event(), threading.Event()

    def fail():
        _wait(later)  # e2 is running on the other thread
        failed.set()
        raise tokzip.errors.TokzipError("e1: broken")

    def run_later():
        later.set()
        _wait(failed)

    started = gated_loads(monkeypatch, {"e1": fail, "e2": run_later})
    out = tmp_path / "o"
    assert main(["compress", "--manifest", str(four_manifest), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["e0"]
    assert captured.err == "error: TokzipError: e1: broken\n"
    assert sorted(started) == ["e0", "e1", "e2"]
    assert not (out / "results.json").exists()


def test_density_table_is_the_same_pooled_and_serial(four_manifest, monkeypatch, capsys, pooled):
    args = ["density", "--manifest", str(four_manifest), "--limit-k", "3"]
    assert main(args) == 0
    table = capsys.readouterr().out
    blas_unavailable(monkeypatch)
    assert main(args) == 0
    assert capsys.readouterr().out == table
    assert [row.split()[0] for row in table.splitlines()] == ["image_id", "e0", "e1", "e2", "e3"]


# Every config field, as (section, key); values at and past the extremes of each type.
CONFIG_FIELDS = [(section, f.name) for section, cls in (("density", tokzip.DensityConfig),
                                                         ("selection", tokzip.SelectionConfig),
                                                         ("aggregation", tokzip.AggregationConfig))
                 for f in dataclasses.fields(cls)]
EXTREME_VALUES = [str(2**63), str(2**70), str(-2**70), "1.0e+308", ".inf", ".nan", "abc", "[1, 2]"]


@pytest.mark.parametrize("value", EXTREME_VALUES)
@pytest.mark.parametrize("section,key", CONFIG_FIELDS)
def test_extreme_config_value_is_an_exit_code_and_one_error_line(section, key, value, manifest,
                                                                 tmp_path, capsys):
    (tmp_path / "c.yaml").write_text(f"{section}:\n  {key}: {value}\n")
    code = main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                 "--config", str(tmp_path / "c.yaml")])
    lines = capsys.readouterr().err.splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert code in (0, 1) and len(errors) == code
    assert all(line.startswith("warning: ") for line in lines if line not in errors)


def test_limit_k_beyond_int64_counts_every_peer(manifest, tmp_path, capsys):
    (tmp_path / "c.yaml").write_text(f"density:\n  limit_k: {2**70}\n")
    assert main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                 "--config", str(tmp_path / "c.yaml")]) == 0
    crops = capsys.readouterr().out.splitlines()[:2]
    assert all(" d=1.0000 " in line for line in crops), crops
    assert main(["density", "--manifest", str(manifest), "--limit-k", str(2**70)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3 and all(row.split()[-1] == "1.0000" for row in rows)
