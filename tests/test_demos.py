"""The demos run and print exactly what they printed when their output was
frozen: each stdout is compared by sha256."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asmp

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(asmp.__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "collapse_walkthrough.py": "cd5bd424d3117061eb5fc8238c393eee292bc61e8b385d39df041ba774545ed2",
    "file_roundtrip.py": "14630b597569c51b89e0c56d9fefd9b8b3d5e775fba6e3329ec5dea2838e4c93",
    "pfa_reductions.py": "7b10184dd736771da705725d7a968a4c32d60c31df24ad9bec118ae5a7347bfe",
    "ring_synthesis.py": "65f24b41a63ec57aa086b04411205e152149ce5a1fa7e5d82c463ed0682a74f7",
}


def test_every_demo_is_frozen():
    assert sorted(p.name for p in ROOT.glob("demos/*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(res.stdout).hexdigest() == STDOUT_SHA256[name]
