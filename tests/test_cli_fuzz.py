"""Byte-level fuzzing of every file the CLI reads.

One file of a small, valid run (manifest, config, a TKZT tensor, results.json
or a meta JSON) is mutated, then every command that reads it runs. Whatever
the bytes, a command exits 0 or 1 and never raises; on exit 1 stderr holds
exactly one `error: ` line, and every other stderr line is a `warning: `.
"""

import contextlib
import dataclasses
import io
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tokzip import SyntheticSpec, generate, write_bundle
from tokzip.cli import main

# command -> its command line, {d} being the run directory
COMMANDS = {
    "compress": "compress --manifest {d}/bundle/manifest.yaml --config {d}/config.yaml --out {d}/c",
    "density": "density --manifest {d}/bundle/manifest.yaml",
    "stats": "stats --results {d}/run/results.json --out {d}/s",
    "masks": "masks --manifest {d}/bundle/manifest.yaml --results {d}/run/results.json --out {d}/k",
    "baseline": "baseline --manifest {d}/bundle/manifest.yaml --method random --out {d}/b",
}
# file under the run directory -> the commands that read it
READERS = {
    "bundle/manifest.yaml": ("compress", "density", "masks", "baseline"),
    "config.yaml": ("compress",),
    "run/results.json": ("stats", "masks"),
    "run/sub_b_meta.json": ("stats", "masks"),
    "bundle/sub_b_attn_low.tkzt": ("compress", "density", "baseline"),
    "bundle/sub_b_keys_low.tkzt": ("compress", "density", "baseline"),
    "bundle/global_y_last.tkzt": ("compress", "density", "baseline"),
}

# Short pieces that often keep YAML and JSON well formed but change a value.
PIECES = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.text("0123456789-.,:[]{}\"' \nabeflnrstu", min_size=1, max_size=4).map(str.encode),
)
EDITS = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                           st.integers(min_value=0), PIECES), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def valid_run(tmp_path_factory):
    """A manifest of two crops and a global image, a config, and a compress run."""
    root = tmp_path_factory.mktemp("fuzz")
    bundles = [
        dataclasses.replace(
            generate(SyntheticSpec(n_tokens=16, dim=20, redundancy_fraction=rho,
                                   attention_profile="concentrated", seed=3)),
            image_id=name, is_global=name == "global")
        for name, rho in (("sub_a", 0.0), ("sub_b", 0.5), ("global", 0.0))
    ]
    manifest = write_bundle(root / "bundle", bundles)
    config = {"density": {"alpha": 0.7, "limit_k": 3}, "selection": {"seed": 1, "min_retained": 1},
              "aggregation": {"knn_k": 2, "include_self": True}}
    (root / "config.yaml").write_text(yaml.safe_dump(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compress", "--manifest", str(manifest), "--out", str(root / "run")]) == 0
    return root


def _mutate(data, edits):
    data = bytearray(data)
    for kind, pos, piece in edits:
        pos %= len(data) + 1
        if kind == "replace":
            data[pos:pos + len(piece)] = piece
        elif kind == "insert":
            data[pos:pos] = piece
        else:
            del data[pos:pos + len(piece)]
    return bytes(data)


@settings(max_examples=150, deadline=2000, derandomize=True)
@given(target=st.sampled_from(sorted(READERS)), edits=EDITS)
def test_mutated_input_gives_exit_code_and_one_error_line(valid_run, target, edits):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "d"
        shutil.copytree(valid_run, d)
        path = d / target
        path.write_bytes(_mutate(path.read_bytes(), edits))
        for command in READERS[target]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(COMMANDS[command].format(d=d).split())
            lines = err.getvalue().splitlines()
            assert code in (0, 1), (command, code)
            errors = [line for line in lines if line.startswith("error: ")]
            assert len(errors) == code, (command, lines)
            assert all(line.startswith(("error: ", "warning: ")) for line in lines), (command, lines)
