"""Every demo script, and every python block of README.md, runs against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = _run([str(demo)], ROOT)
    assert done.returncode == 0, done.stderr


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"readme_block_{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block, tmp_path):
    done = _run(["-c", block], tmp_path)  # the blocks may write files
    assert done.returncode == 0, done.stderr
