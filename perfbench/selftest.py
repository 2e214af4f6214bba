"""Tiny-size self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload, traced and untraced, emits exactly the
metrics BENCHMARK.json declares, each with its unit, and that corrupted
outputs trip the output checks, count as failures and make the run
incorrect. Exits 0 when all of that holds.
"""

import sys
import tempfile
from pathlib import Path

import run

run.import_qimpute()

import workloads  # noqa: E402  (needs qimpute on the path)

TINY = {
    "embed_fresh": dict(rows=40, oracle_rows=2),
    "train_impute": dict(rows=40, epochs=1),
    "eval_baselines": dict(rows=60, n_seeds=2),
}


def tiny(name: str, work_dir: Path):
    return workloads.WORKLOADS[name](3, work_dir, **TINY[name])


def check_metrics_emitted(work_dir: Path) -> None:
    declared = run.declared_metrics()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            measured = run.run_workload(tiny(name, work_dir), seconds=0.0, trace=trace)
            result, _ = run.report(name, measured, trace, declared)
            assert result["correct"], (name, trace, measured["failures"])
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared[trace], (name, trace, emitted)
            for key, value in result["metrics"].items():
                assert isinstance(value["value"], float), (name, key, value)


def corrupt_observed(table):
    """Change the first observed non-text cell."""
    out = table.copy()
    for row in out.rows:
        for j, spec in enumerate(out.schema.columns):
            if row[j] is not None and spec.kind == workloads.tabular.ColumnKind.NUMERIC:
                row[j] += 1.0
                return out
    raise AssertionError("no observed numeric cell")


def unfill_heldout(working, imputed):
    """Blank the first filled held-out cell."""
    out = imputed.copy()
    for before, after in zip(working.rows, out.rows):
        for j, spec in enumerate(out.schema.columns):
            if before[j] is None and spec.kind != workloads.tabular.ColumnKind.TEXT:
                after[j] = None
                return out
    raise AssertionError("no held-out cell")


def push_out_of_range(working, imputed, stats):
    """Move the first numeric fill far outside the fitted range."""
    out = imputed.copy()
    for before, after in zip(working.rows, out.rows):
        for j, spec in enumerate(out.schema.columns):
            if before[j] is None and spec.kind == workloads.tabular.ColumnKind.NUMERIC:
                col = stats.for_column(spec.name)
                after[j] = col.vmax + (col.vmax - col.vmin)
                return out
    raise AssertionError("no numeric held-out cell")


def assert_trips(wl, corrupt) -> None:
    """Running ``wl`` with ``corrupt`` applied to its job's result fails the run."""
    job = wl.job
    wl.job = lambda: corrupt(job())
    measured = run.run_workload(wl, seconds=0.0, trace=False)
    result, _ = run.report(wl.name, measured, False, run.declared_metrics())
    assert not result["correct"] and result["failed"] >= 1, (wl.name, result)
    assert measured["metrics"]["fail_ratio"] > 0.0, measured["metrics"]


def check_corruption_trips(work_dir: Path) -> None:
    wl = tiny("train_impute", work_dir)
    assert_trips(wl, lambda r: (corrupt_observed(r[0]),) + r[1:])
    wl = tiny("train_impute", work_dir)
    assert_trips(wl, lambda r: (unfill_heldout(wl.working, r[0]),) + r[1:])
    wl = tiny("train_impute", work_dir)
    assert_trips(wl, lambda r: (push_out_of_range(wl.working, r[0], wl.stats),) + r[1:])

    wl = tiny("eval_baselines", work_dir)

    def corrupt_knn(report):
        wl.captured = [
            (m, s, split, corrupt_observed(t) if m == "knn" else t)
            for m, s, split, t in wl.captured
        ]
        return report

    assert_trips(wl, corrupt_knn)

    wl = tiny("embed_fresh", work_dir)

    def corrupt_csv(_):
        lines = wl.path.read_text(encoding="utf-8").splitlines()
        for i in range(1, len(lines)):
            fields = lines[i].split(",")
            fields[2] = repr(float(fields[2]) * 0.5 + 0.01)
            lines[i] = ",".join(fields)
        wl.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert_trips(wl, corrupt_csv)


def main() -> int:
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        check_metrics_emitted(Path(tmp))
        check_corruption_trips(Path(tmp))
    print("perfbench selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
