"""The benchmark's self-test passes against the current sources.

``perfbench/selftest.py`` runs every workload at a tiny size, traced and
untraced, so a rename or deletion of anything the benchmark imports, traces
or calls fails here rather than only in a benchmark run, and a traced
``train_impute`` run must time the training steps.
"""

import json
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


def test_traced_train_impute_times_the_training_steps():
    # The tracer times the steps by wrapping qimpute.model.forward and
    # loss_and_gradients and qimpute.training.adam_step. A train that stepped
    # through other functions would leave these metrics at 0.
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_impute",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    metrics = json.loads(result.stdout.splitlines()[-1])["metrics"]
    value = {name: metric["value"] for name, metric in metrics.items()}
    assert value["training.steps"] == 128
    for name in ("training.adam_step_s", "training.step_ms_p50", "model.forward_s",
                 "model.backward_s"):
        assert value[name] > 0, name
