"""The benchmark's view of the library: its traced spans and per-layer metric names.

perfbench/spans.py wraps tokzip functions by name and BENCHMARK.json names
per-layer metrics after those spans, so a rename in the library would
silently turn a metric into zeros. Both files are read, never changed.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from tokzip.masks import PROVENANCE_LEVEL
from tokzip.pipeline import BRANCH_TAGS

ROOT = Path(__file__).resolve().parents[1]


def _load_traced():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


TRACED = _load_traced()
SPANS = {f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns}


@pytest.mark.parametrize("span", sorted(SPANS))
def test_traced_function_resolves(span):
    module, fn = span.split(".")
    owner = importlib.import_module(f"tokzip.{module}")
    assert callable(getattr(owner, fn, None))
    assert getattr(owner, fn).__module__ == owner.__name__


def test_per_layer_metrics_name_traced_spans():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    three_part = [m["name"] for m in doc["per_layer"] if m["name"].count(".") == 2]
    assert three_part
    assert [name for name in three_part if name.rsplit(".", 1)[0] not in SPANS] == []


def test_one_branch_tag_vocabulary():
    assert set(PROVENANCE_LEVEL) == set(BRANCH_TAGS)
