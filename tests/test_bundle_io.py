import dataclasses
import functools
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import tokzip.bundle_io
from tokzip.bundle_io import TENSOR_FIELDS, read_manifest, read_yaml, write_result
from tokzip import (
    SubImageBundle,
    SyntheticSpec,
    baseline_select,
    compress_document,
    compress_subimage,
    generate,
    load_bundle,
    load_results,
    write_bundle,
    write_results,
    write_tensor,
)
from tokzip.errors import (
    DimensionMismatchError,
    MultipleGlobalImagesError,
    NonFiniteValueError,
    ParseError,
    TokzipError,
    ZeroRowError,
)


def _small_bundle(seed=0, n=4, profile="uniform"):
    b = generate(SyntheticSpec(n_tokens=n, dim=n + 2, redundancy_fraction=0.0,
                               attention_profile=profile, seed=seed))
    return dataclasses.replace(b, grid_shape=(2, n // 2))


def _unnamed(b):
    """b's tensors and grid in a bundle built without an image_id."""
    return SubImageBundle(**{name: getattr(b, name) for name in TENSOR_FIELDS},
                          grid_shape=b.grid_shape)


def test_round_trip_bitwise(tmp_path):
    bundles = [_small_bundle(seed=s) for s in (1, 2)]
    manifest = write_bundle(tmp_path, bundles, notes={"head_reduction": "mean"})
    loaded = load_bundle(manifest)
    assert len(loaded) == 2
    for orig, back in zip(bundles, loaded):
        for name in ("y_last", "keys_low", "attn_low", "keys_deep", "attn_deep"):
            a = np.asarray(getattr(orig, name), dtype=np.float32)
            b = np.asarray(getattr(back, name), dtype=np.float32)
            assert a.tobytes() == b.tobytes()
        assert back.grid_shape == orig.grid_shape
        assert back.dataset == orig.dataset


def test_length_mismatch_names_files(tmp_path):
    b = _small_bundle()
    manifest = write_bundle(tmp_path, [b])
    # overwrite the attention file with the wrong length
    doc = yaml.safe_load(manifest.read_text())
    attn_file = doc["subimages"][0]["attn_low"]
    write_tensor(tmp_path / attn_file, np.ones(5, dtype=np.float32))
    with pytest.raises(DimensionMismatchError) as exc:
        load_bundle(manifest)
    assert f"{b.image_id}: attn_low" in str(exc.value)


def test_nonfinite_rejected(tmp_path):
    b = _small_bundle()
    manifest = write_bundle(tmp_path, [b])
    doc = yaml.safe_load(manifest.read_text())
    bad = np.asarray(b.y_last, dtype=np.float32).copy()
    bad[1, 1] = np.nan
    write_tensor(tmp_path / doc["subimages"][0]["y_last"], bad)
    with pytest.raises(NonFiniteValueError):
        load_bundle(manifest)


def test_zero_key_row_rejected(tmp_path):
    b = _small_bundle()
    manifest = write_bundle(tmp_path, [b])
    doc = yaml.safe_load(manifest.read_text())
    bad = np.asarray(b.keys_low, dtype=np.float32).copy()
    bad[2] = 0.0
    write_tensor(tmp_path / doc["subimages"][0]["keys_low"], bad)
    with pytest.raises(ZeroRowError) as exc:
        load_bundle(manifest)
    assert exc.value.index == 2


@pytest.mark.parametrize("field,row,error", [("y_last", 1, NonFiniteValueError),
                                             ("keys_low", 2, NonFiniteValueError),
                                             ("keys_deep", 2, ZeroRowError)])
def test_bundle_built_in_memory_gets_the_same_checks(field, row, error):
    b = _small_bundle()
    bad = np.array(getattr(b, field))
    bad[row] = np.nan if error is NonFiniteValueError else 0.0
    with pytest.raises(error, match=f"{b.image_id}: {field}"):
        dataclasses.replace(b, **{field: bad})


def test_attention_total_beyond_float64_is_refused():
    b = _small_bundle()
    with pytest.raises(NonFiniteValueError, match=f"{b.image_id}: attn_low sums past"):
        dataclasses.replace(b, attn_low=np.full(b.attn_low.size, 1e308))


def test_value_beyond_float32_is_refused_on_write(tmp_path):
    b = _small_bundle()
    y = np.array(b.y_last, dtype=np.float64)
    y[0, 0] = 1e39  # finite in the bundle, inf in a float32 file, which load_bundle refuses
    with pytest.raises(NonFiniteValueError, match="y_last.tkzt: a finite value exceeds"):
        write_bundle(tmp_path, [dataclasses.replace(b, y_last=y)])
    assert not list(tmp_path.glob("*y_last*"))


def test_manifest_is_checked_before_any_tensor_is_read(tmp_path, monkeypatch):
    bundles = [dataclasses.replace(_small_bundle(seed=s), image_id=f"sub_{s}") for s in (1, 2, 3)]
    manifest = write_bundle(tmp_path, bundles)
    doc = yaml.safe_load(manifest.read_text())
    calls = []
    monkeypatch.setattr(tokzip.bundle_io, "read_tensor", lambda path: calls.append(path))
    for key, value in (("grid_shape", [2, "x"]), ("crop_position", [-1, 0]),
                       ("image_id", "sub_1"), ("image_id", "a/b"), ("keys_deep", None)):
        last = dict(doc["subimages"][-1], **{key: value})
        manifest.write_text(yaml.safe_dump({"subimages": doc["subimages"][:-1] + [last]}))
        with pytest.raises(ParseError, match="subimage 2|grid_shape|crop_position"):
            load_bundle(manifest)
    assert calls == []


# A value each metadata field accepts, in the form YAML reads it.
GOOD_FIELDS = {"grid_shape": [2, 3], "crop_position": [2, 3], "is_global": True, "dataset": "x",
               "image_id": "x"}


@pytest.mark.parametrize("field,value", [
    ("grid_shape", (-2, -3)), ("grid_shape", (2.0, 3.0)), ("grid_shape", (True, 6)),
    ("grid_shape", (1, 2, 3)),
    ("crop_position", (-1, 0)), ("crop_position", ("a", 0)), ("crop_position", (0,)),
    ("is_global", "no"), ("dataset", ["x"]), ("image_id", "../x"), ("image_id", 7),
    ("image_id", ""), ("image_id", "."),
])
def test_bundle_and_manifest_share_the_grid_and_position_rule(field, value, tmp_path):
    b = _small_bundle(n=6)  # grid (2, 3): the bad grids multiply to 6 as well
    prefix = "sub-image" if field == "image_id" else b.image_id  # a bad id cannot name itself
    with pytest.raises(TokzipError, match=f"^{prefix}: {field} must be"):
        dataclasses.replace(b, **{field: value})
    dataclasses.replace(b, **{field: GOOD_FIELDS[field]})
    manifest = write_bundle(tmp_path, [b])
    doc = yaml.safe_load(manifest.read_text())
    doc["subimages"][0][field] = list(value) if isinstance(value, tuple) else value
    manifest.write_text(yaml.safe_dump(doc))
    with pytest.raises(ParseError, match=f"subimage 0: {field}"):
        read_manifest(manifest)


def test_bundle_takes_numpy_integers_and_writes_plain_yaml(tmp_path):
    b = dataclasses.replace(_small_bundle(n=6), grid_shape=(np.int64(2), 3),
                            crop_position=[np.uint8(1), np.int32(0)])
    assert b.grid_shape == (2, 3) and b.crop_position == (1, 0)
    assert all(type(v) is int for v in b.grid_shape + b.crop_position)
    manifest = write_bundle(tmp_path, [b])
    assert "!!" not in manifest.read_text()
    back = load_bundle(manifest)[0]
    assert (back.grid_shape, back.crop_position) == ((2, 3), (1, 0))


def test_unnamed_bundles_share_the_default_id(tmp_path):
    bundles = [_unnamed(_small_bundle(seed=s, n=8)) for s in (1, 2)]
    assert [b.image_id for b in bundles] == ["subimage", "subimage"]
    results = [compress_subimage(b) for b in bundles]
    with pytest.raises(TokzipError, match="image_id 'subimage' repeats an earlier entry"):
        write_bundle(tmp_path / "in", bundles)
    with pytest.raises(TokzipError, match="image_id 'subimage' repeats an earlier entry"):
        write_results(tmp_path / "out", bundles, results, {"seed": 0})
    assert not list(tmp_path.iterdir())


def test_write_result_names_files_by_image_id(tmp_path):
    b = dataclasses.replace(_small_bundle(n=8), image_id="crop_7")
    entry = write_result(tmp_path, b, compress_subimage(b), {"seed": 0})
    assert entry == {"image_id": "crop_7", "meta": "crop_7_meta.json",
                     "tokens": "crop_7_compressed.tkzt"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["crop_7_compressed.tkzt",
                                                          "crop_7_meta.json"]


def test_write_bundle_cannot_write_outside_its_directory(tmp_path):
    b = _small_bundle()
    with pytest.raises(TokzipError, match="image_id must be a file name"):
        write_bundle(tmp_path / "out", [dataclasses.replace(b, image_id="../escaped")])
    assert not list(tmp_path.rglob("*escaped*")) and not (tmp_path / "out").exists()


def test_attention_sum_warning(tmp_path):
    b = _small_bundle()
    b = dataclasses.replace(b, attn_low=b.attn_low * 3.0)  # sums to 3, far from 1
    manifest = write_bundle(tmp_path, [b])
    with pytest.warns(UserWarning, match="sums to"):
        load_bundle(manifest)


def test_bad_manifest(tmp_path):
    p = tmp_path / "manifest.yaml"
    p.write_text("just a string")
    with pytest.raises(ParseError):
        load_bundle(p)
    p.write_text("subimages:\n  - y_last: missing.tkzt\n")
    with pytest.raises((ParseError, FileNotFoundError)):
        load_bundle(p)


def test_results_round_trip(tmp_path):
    bundles = [_small_bundle(seed=s, n=8) for s in (1, 2)]
    results = compress_document(bundles)
    write_results(tmp_path / "out", bundles, results, {"seed": 0})
    metas = load_results(tmp_path / "out" / "results.json")
    assert len(metas) == 2
    for res, meta in zip(results, metas):
        assert meta["ratio"] == res.ratio
        assert meta["retained_indices"] == res.retained_indices.tolist()
        from tokzip import read_tensor

        tokens = read_tensor(meta["tokens_path"])
        assert tokens.shape == res.compressed_tokens.shape


def test_load_results_accepts_what_write_result_writes(tmp_path):
    crop = _small_bundle(seed=1, n=8)
    bundles = [crop, dataclasses.replace(crop, image_id="fixed"),
               dataclasses.replace(_small_bundle(seed=2, n=8), is_global=True, image_id="global")]
    fixed = functools.partial(baseline_select, "fixed", ratio=0.5)
    results = [compress_subimage(b, select=select)
               for b, select in zip(bundles, (None, fixed, None))]
    write_results(tmp_path / "out", bundles, results, {"seed": 0})
    metas = load_results(tmp_path / "out" / "results.json")
    assert [m["is_global_passthrough"] for m in metas] == [False, False, True]
    assert [m["retained_indices"] for m in metas] == [r.retained_indices.tolist() for r in results]


def test_repeated_file_stem_refused(tmp_path):
    bundles = [dataclasses.replace(_small_bundle(seed=s, n=8), image_id="same") for s in (1, 2)]
    with pytest.raises(TokzipError, match="'same'"):
        compress_document(bundles)
    results = [compress_subimage(b) for b in bundles]
    with pytest.raises(TokzipError, match="'same'"):
        write_results(tmp_path / "out", bundles, results, {"seed": 0})
    with pytest.raises(TokzipError, match="'same'"):
        write_bundle(tmp_path / "in", bundles)
    # a bundle built without an image_id takes the default, which an explicit id can collide with
    unnamed = [dataclasses.replace(bundles[0], image_id="subimage"), _unnamed(bundles[1])]
    with pytest.raises(TokzipError, match="'subimage'"):
        write_results(tmp_path / "out", unnamed, results, {"seed": 0})
    assert not (tmp_path / "out").exists() and not (tmp_path / "in").exists()


def test_write_results_refuses_a_result_count_unlike_the_bundles(tmp_path):
    bundles = [_small_bundle(seed=s, n=8) for s in (1, 2)]
    results = compress_document(bundles)
    for fewer, more in ((bundles, results[:1]), (bundles[:1], results)):
        with pytest.raises(DimensionMismatchError, match="^[12] results for [12] sub-images$"):
            write_results(tmp_path / "out", fewer, more, {"seed": 0})
    assert not list(tmp_path.iterdir())


def test_writers_refuse_two_global_images(tmp_path):
    bundles = [dataclasses.replace(_small_bundle(seed=s, n=8), image_id=f"g{s}", is_global=True)
               for s in (1, 2)]
    results = [compress_subimage(b) for b in bundles]
    with pytest.raises(MultipleGlobalImagesError, match="^subimage 1 is a second global image$"):
        write_bundle(tmp_path / "in", bundles)
    with pytest.raises(MultipleGlobalImagesError, match="^subimage 1 is a second global image$"):
        write_results(tmp_path / "out", bundles, results, {"seed": 0})
    assert not list(tmp_path.iterdir())


# Documents as (image_id, is_global) per sub-image: distinct or repeated ids, 0, 1 or 2 globals.
DOCUMENTS = [list(zip(ids, flags)) for ids in ("abc", "aba", "abb")
             for flags in ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1))]


@pytest.mark.parametrize("document", DOCUMENTS,
                         ids=["".join(i.upper() if g else i for i, g in d) for d in DOCUMENTS])
def test_written_documents_read_back_and_compress(document, tmp_path):
    bundles = [dataclasses.replace(_small_bundle(seed=s), image_id=i, is_global=bool(g))
               for s, (i, g) in enumerate(document)]
    try:
        manifest = write_bundle(tmp_path / "in", bundles)
    except TokzipError as refused:
        assert not (tmp_path / "in").exists()
        with pytest.raises(type(refused), match=f"^{re.escape(str(refused))}$"):
            compress_document(bundles)
    else:
        entries = read_manifest(manifest)
        assert [(e["image_id"], e["is_global"]) for e in entries] == \
            [(i, bool(g)) for i, g in document]
        assert len(compress_document(bundles)) == len(bundles)


# read_yaml's two loaders; the libyaml one exists where PyYAML was built with libyaml.
LOADERS = {"python": yaml.SafeLoader,
           "libyaml": getattr(tokzip.bundle_io, "LibyamlSafeLoader", None)}

# YAML a manifest or config may use beyond what write_bundle emits.
RICH_YAML = """\
base: &base {dataset: docs, grid_shape: [24, 24], is_global: no}
subimages:
  - <<: *base
    image_id: 'crop "0"'
    crop_position: [0x10, 1_000]
    note: |
      two
      lines
  - {<<: *base, image_id: "tab\\there", is_global: yes, ratio: .nan, span: -.inf, tag: !!str 5}
empty: ~
when: 2001-12-14
"""


@pytest.fixture(params=sorted(LOADERS))
def loader(request, monkeypatch):
    """read_yaml with each loader in turn."""
    cls = LOADERS[request.param]
    if cls is None:
        pytest.skip("PyYAML was built without libyaml (no yaml.CSafeLoader)")
    monkeypatch.setattr(tokzip.bundle_io, "YAML_LOADER", cls)
    return cls


@pytest.fixture(scope="module")
def seed_manifests(tmp_path_factory):
    """The doc576 manifests the benchmark writes at seeds 1 and 2, without their tensors."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("_perfbench_docgen",
                                                  root / "perfbench" / "docgen.py")
    docgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docgen)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tokzip.bundle_io, "write_tensor", lambda path, array: None)
        return [write_bundle(tmp_path_factory.mktemp(f"seed{seed}"),
                             docgen.make_document("doc576", seed)) for seed in (1, 2)]


def test_loaders_build_equal_objects(loader, seed_manifests, tmp_path):
    rich = tmp_path / "rich.yaml"
    rich.write_text(RICH_YAML)
    notes = write_bundle(tmp_path / "notes", [_small_bundle()], notes={"head_reduction": "mean"})
    for path in [*seed_manifests, rich, notes]:
        want = yaml.load(path.read_bytes(), Loader=yaml.SafeLoader)
        got = read_yaml(path, "manifest")
        assert repr(got) == repr(want)  # repr tells True from 1 and keeps nan comparable
    for path in seed_manifests:
        assert len(read_manifest(path)) == 10


def test_error_in_the_text_keeps_its_mark(loader, tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("a: b: c\n")
    with pytest.raises(ParseError, match="invalid YAML at line 1, column 5: mapping values are not"):
        read_yaml(p, "manifest")


def test_error_at_the_end_of_the_stream_is_one_line(loader, tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("a: [1, 2")  # the mark differs between loaders: line 1, column 9 or line 2, column 1
    with pytest.raises(ParseError, match="invalid YAML at line ") as exc:
        read_yaml(p, "manifest")
    assert len(str(exc.value).splitlines()) == 1


@pytest.mark.parametrize("text", ["- " * 3000 + "1", "[" * 5000, "[" * 3000 + "]" * 3000,
                                  "a:\n" + "".join(" " * i + "b:\n" for i in range(1, 1500))],
                         ids=["block_sequence", "open_flow", "closed_flow", "block_mapping"])
def test_deep_nesting_is_a_parse_error(loader, text, tmp_path):
    p = tmp_path / "deep.yaml"
    p.write_text(text)
    with pytest.raises(ParseError, match="invalid YAML: nested too deeply"):
        read_yaml(p, "manifest")
