"""The benchmark's self-test passes against the current sources.

``perfbench/selftest.py`` runs every workload at a tiny size, traced and
untraced, so a rename or deletion of anything the benchmark imports, traces
or calls fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
