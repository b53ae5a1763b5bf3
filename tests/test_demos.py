"""Every script under demos/ runs to completion on the bundled fixtures and
prints exactly its committed stdout under tests/demo_stdout/.

A change that means to alter a demo's output updates that file with it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
STDOUT = Path(__file__).resolve().parent / "demo_stdout"


def test_demos_are_found():
    assert len(DEMOS) == 5
    assert sorted(path.stem for path in STDOUT.glob("*.txt")) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (STDOUT / f"{demo.stem}.txt").read_text(encoding="utf-8")
