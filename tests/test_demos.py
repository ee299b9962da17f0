"""Every demo script runs to completion and prints what it printed when
its output was pinned.

``data/demos_sha256.json`` holds the size and sha256 of each demo's
standard output.  They were recorded while ``enumerate_permissible`` still
built a record per filling, so they pin its rewrite byte for byte.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = json.loads((Path(__file__).parent / "data" / "demos_sha256.json").read_text())


def test_all_demos_found():
    assert len(DEMOS) == 4
    assert sorted(PINNED) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    expected = PINNED[demo.name]
    assert len(result.stdout) == expected["bytes"]
    assert hashlib.sha256(result.stdout).hexdigest() == expected["sha256"]
