"""Smoke test: the library-tour demos run to completion.

Each demo runs as its own interpreter in a scratch working directory, with
the package importable from ``src``. Demo 04 (the full benchmark sweep) is
left out for its runtime; ``test_experiment`` covers the same path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_quantum_embedding.py",
    "02_cell_encoding.py",
    "03_train_and_impute.py",
    "05_mnar_healthcare.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
