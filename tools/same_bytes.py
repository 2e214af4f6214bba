"""Run one fixed qimpute CLI chain with a git revision and with the working
tree, and report which artifacts are byte-identical.

    python tools/same_bytes.py REV

``REV`` is extracted with ``git archive``. Each tree's ``src`` goes alone on
``PYTHONPATH``, with ``OPENBLAS_NUM_THREADS=1``, and the tool checks that
``qimpute`` is imported from that tree. The chain, on 150 synthetic rows:

- ``datagen`` and ``mask``;
- for each embedding variant: ``train``, ``impute`` and
  ``export-embeddings`` in both modes with ``--model``;
- ``export-embeddings`` in both modes without ``--model`` for the two
  fixed variants;
- ``eval`` of the three baselines, ``quantum_iqp`` and ``classical_mlp`` at
  ``threads`` 1 and 2;
- a two-seed ``ablate``;
- ``export-embeddings`` in both modes for ``quantum_iqp`` of a six-row
  table the tool writes itself, whose labels hold a comma, a quote and one
  missing cell and whose numeric column's name holds a comma, so that a
  change in how the export quotes shows.

Every artifact but ``timings.json`` and the tool's own inputs is compared.
One that differs gets its drift: the largest absolute and relative
difference per ``model.npz`` tensor, per numeric CSV column and per
``report.json`` number. The exit status is 0 when every artifact is
identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROWS = 150
VARIANTS = ("quantum_iqp", "random_projection", "classical_mlp")
FIXED_VARIANTS = VARIANTS[:2]
EXPORT_MODES = ("row_mean", "cell")
SKIPPED = {"timings.json"}  # wall clock, not deterministic
EVAL_CONFIG = (
    f"dataset.rows = {ROWS}\n"
    "methods = mean_mode, knn, iterative_ridge, quantum_iqp, classical_mlp\n"
    "seeds = 0, 1\n"
    "train.epochs = 2\n"
)
ABLATE_CONFIG = f"dataset.rows = {ROWS}\nseeds = 0, 1\ntrain.epochs = 2\n"
AWKWARD_SCHEMA = "dataset=awkward\nmissing_token=\ndose, mg:numeric\nlabel:categorical\n"
AWKWARD_CSV = (
    '"dose, mg",label\n0.5,"a,b"\n1.5,"say ""hi"""\n2.5,\n-1,plain\n3,"a,b"\n0.25,plain\n'
)
# written by the tool into each output root, and not compared
INPUTS = {
    "eval.cfg": EVAL_CONFIG,
    "ablate.cfg": ABLATE_CONFIG,
    "awkward/schema.txt": AWKWARD_SCHEMA,
    "awkward/data.csv": AWKWARD_CSV,
}
CLI = "import sys; from qimpute.cli import main; sys.exit(main(sys.argv[1:]))"


def chain(out: Path) -> list[list[str]]:
    """The CLI argument lists, in order, that write every artifact under ``out``."""
    data, schema = str(out / "data" / "masked.csv"), str(out / "data" / "schema.txt")
    inputs = ["--data", data, "--schema", schema]
    steps = [
        ["datagen", "--rows", str(ROWS), "--seed", "1", "--out", str(out / "data")],
        ["mask", "--data", str(out / "data" / "data.csv"), "--schema", schema,
         "--seed", "2", "--out", str(out / "data")],
    ]
    for variant in VARIANTS:
        run = out / variant
        model = str(run / "model.npz")
        steps.append(["train", *inputs, "--variant", variant, "--epochs", "2",
                      "--seed", "3", "--out", str(run)])
        steps.append(["impute", *inputs, "--model", model, "--out", str(run)])
        for mode in EXPORT_MODES:
            steps.append(["export-embeddings", *inputs, "--model", model, "--label-col",
                          "diagnosis", "--mode", mode, "--out", str(run / f"export-{mode}")])
    for variant in FIXED_VARIANTS:
        for mode in EXPORT_MODES:
            steps.append(["export-embeddings", *inputs, "--variant", variant, "--label-col",
                          "diagnosis", "--mode", mode,
                          "--out", str(out / f"export-{variant}-{mode}")])
    for threads in (1, 2):
        steps.append(["eval", "--config", str(out / "eval.cfg"), "--threads", str(threads),
                      "--out", str(out / f"eval-threads{threads}")])
    steps.append(["ablate", "--config", str(out / "ablate.cfg"), "--out", str(out / "ablate")])
    awkward = ["--data", str(out / "awkward" / "data.csv"),
               "--schema", str(out / "awkward" / "schema.txt")]
    for mode in EXPORT_MODES:
        steps.append(["export-embeddings", *awkward, "--variant", "quantum_iqp", "--label-col",
                      "label", "--mode", mode, "--out", str(out / f"export-awkward-{mode}")])
    return steps


def run_chain(tree: Path, out: Path) -> None:
    """Write every artifact of the chain with ``tree``'s qimpute."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    probe = [sys.executable, "-c", "import qimpute; print(qimpute.__file__)"]
    origin = Path(subprocess.run(
        probe, env=env, cwd=out.parent, check=True, capture_output=True, text=True
    ).stdout.strip()).resolve()
    if not origin.is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"same_bytes: qimpute was imported from {origin}, not from {tree}")
    for name, text in INPUTS.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")
    for args in chain(out):
        result = subprocess.run(
            [sys.executable, "-c", CLI, *args],
            env=env, cwd=out.parent, capture_output=True, text=True,
        )
        if result.returncode != 0:
            raise SystemExit(f"same_bytes: `qimpute {' '.join(args)}` with {tree} "
                             f"failed:\n{result.stderr}")


def extract(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest``; returns its full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def drift(a, b) -> tuple[float, float]:
    """Largest absolute and relative difference of two equal-shape arrays.

    The relative difference is |a - b| / max(|a|, |b|); equal entries,
    NaN against NaN included, count as 0.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(diff, scale, out=diff.copy(), where=scale > 0)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def _line(name: str, a, b) -> str:
    abs_d, rel_d = drift(a, b)
    return f"{name}: max abs {abs_d:.3g}, max rel {rel_d:.3g}"


def npz_report(path_a: Path, path_b: Path) -> list[str]:
    with np.load(path_a) as za, np.load(path_b) as zb:
        a, b = {k: za[k] for k in za.files}, {k: zb[k] for k in zb.files}
    lines = [f"only in one file: {k}" for k in sorted(set(a) ^ set(b))]
    for key in sorted(set(a) & set(b)):
        if a[key].tobytes() == b[key].tobytes() and a[key].shape == b[key].shape:
            continue
        if a[key].shape != b[key].shape or a[key].dtype.kind not in "fiu":
            lines.append(f"{key}: differs ({a[key].dtype}{a[key].shape} against "
                         f"{b[key].dtype}{b[key].shape})")
        else:
            lines.append(_line(key, a[key], b[key]))
    return lines


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def csv_report(path_a: Path, path_b: Path) -> list[str]:
    rows_a = list(csv.reader(path_a.read_text(encoding="utf-8").splitlines()))
    rows_b = list(csv.reader(path_b.read_text(encoding="utf-8").splitlines()))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return [f"shape or header differs ({len(rows_a)} against {len(rows_b)} lines)"]
    header = rows_a[0] if rows_a else []
    numeric: dict[str, list[tuple[float, float]]] = {}
    other: dict[str, int] = {}
    for line_a, line_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(header, line_a, line_b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                other[name] = other.get(name, 0) + 1
            else:
                numeric.setdefault(name, []).append((fx, fy))
    lines = [_line(f"column {name}", *zip(*pairs)) + f" ({len(pairs)} fields)"
             for name, pairs in numeric.items()]
    lines += [f"column {name}: {n} non-numeric fields differ" for name, n in other.items()]
    return lines


def _leaves(value, path="") -> dict[str, object]:
    """Every leaf of a JSON value, keyed by its path."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}", item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return {path or ".": value}
    return {k: v for sub, item in items for k, v in _leaves(item, sub).items()}


def json_report(path_a: Path, path_b: Path) -> list[str]:
    a = _leaves(json.loads(path_a.read_text(encoding="utf-8")))
    b = _leaves(json.loads(path_b.read_text(encoding="utf-8")))
    lines = [f"only in one file: {k}" for k in sorted(set(a) ^ set(b))]
    for key in sorted(set(a) & set(b)):
        x, y = a[key], b[key]
        if x == y:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        lines.append(_line(key, x, y) if numbers else f"{key}: {x!r} against {y!r}")
    return lines


REPORTS = {".npz": npz_report, ".csv": csv_report, ".json": json_report}


def compare(base: Path, work: Path) -> list[tuple[str, bool, list[str]]]:
    """(artifact, identical, drift lines) for every artifact under either root."""
    names = sorted(
        {p.relative_to(root).as_posix() for root in (base, work) for p in root.rglob("*")
         if p.is_file() and p.name not in SKIPPED}
        - set(INPUTS)
    )
    results = []
    for name in names:
        a, b = base / name, work / name
        if not (a.exists() and b.exists()):
            side = "REV" if a.exists() else "the working tree"
            results.append((name, False, [f"written only with {side}"]))
        elif a.read_bytes() == b.read_bytes():
            results.append((name, True, []))
        else:
            report = REPORTS.get(a.suffix)
            results.append((name, False, report(a, b) if report else []))
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_bytes.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        commit = extract(argv[0], tmp / "rev")
        print(f"same_bytes: {argv[0]} ({commit[:12]}) against the working tree; "
              f"{ROWS} rows, one BLAS thread", flush=True)
        run_chain(tmp / "rev", tmp / "out-rev")
        run_chain(ROOT, tmp / "out-work")
        results = compare(tmp / "out-rev", tmp / "out-work")
    for name, identical, lines in results:
        print(f"{'identical' if identical else 'differs':10} {name}")
        for line in lines:
            print(f"    {line}")
    differ = sum(not identical for _, identical, _ in results)
    print(f"{len(results)} artifacts: {len(results) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
