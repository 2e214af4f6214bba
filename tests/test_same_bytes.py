"""The drift report of ``tools/same_bytes.py`` on tiny hand-made artifacts."""

import importlib.util
import json
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
same_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bytes)


def write_pair(root: Path, name: str, a: str, b: str) -> None:
    for side, text in (("a", a), ("b", b)):
        (root / side).mkdir(exist_ok=True)
        (root / side / name).write_text(text, encoding="utf-8")


def test_drift_is_the_largest_absolute_and_relative_difference():
    assert same_bytes.drift([1.0, 4.0, 0.0], [1.5, 4.0, 0.0]) == (0.5, 0.5 / 1.5)
    assert same_bytes.drift([np.nan, -2.0], [np.nan, -2.0]) == (0.0, 0.0)
    assert same_bytes.drift([], []) == (0.0, 0.0)


def test_compare_reports_identity_and_drift(tmp_path):
    write_pair(tmp_path, "same.csv", "x,y\n1,a\n", "x,y\n1,a\n")
    write_pair(tmp_path, "imputed.csv", "x,y,z\n1.0,a,2\n2.0,b,8\n", "x,y,z\n1.25,a,2\n2.0,c,8\n")
    write_pair(tmp_path, "report.json", json.dumps({"m": [{"rmse": 0.5, "name": "knn"}]}),
               json.dumps({"m": [{"rmse": 0.25, "name": "knn"}]}))
    write_pair(tmp_path, "timings.json", "{}", '{"s": 1}')  # wall clock: skipped
    np.savez(tmp_path / "a" / "model.npz", w=np.array([1.0, 2.0]), b=np.zeros(1))
    np.savez(tmp_path / "b" / "model.npz", w=np.array([1.0, 3.0]), b=np.zeros(1))
    results = same_bytes.compare(tmp_path / "a", tmp_path / "b")
    assert results == [
        ("imputed.csv", False, ["column x: max abs 0.25, max rel 0.2 (1 fields)",
                                "column y: 1 non-numeric fields differ"]),
        ("model.npz", False, ["w: max abs 1, max rel 0.333"]),
        ("report.json", False, [".m[0].rmse: max abs 0.25, max rel 0.5"]),
        ("same.csv", True, []),
    ]


def test_an_artifact_written_by_one_tree_only_differs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "extra.csv").write_text("x\n1\n", encoding="utf-8")
    assert same_bytes.compare(tmp_path / "a", tmp_path / "b") == [
        ("extra.csv", False, ["written only with the working tree"])
    ]


def test_the_tools_own_inputs_are_not_compared(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "awkward").mkdir(parents=True)
    for name in ("eval.cfg", "awkward/data.csv"):
        (tmp_path / "a" / name).write_text("x\n1\n", encoding="utf-8")
        (tmp_path / "b" / name).write_text("x\n2\n", encoding="utf-8")
    assert set(same_bytes.INPUTS) >= {"eval.cfg", "awkward/data.csv"}
    assert same_bytes.compare(tmp_path / "a", tmp_path / "b") == []
