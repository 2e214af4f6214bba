"""Run one qimpute benchmark workload and print its metrics.

    python3 perfbench/run.py --workload embed_fresh --seed 1 --seconds 30 --trace 0

Run it from the repository root: qimpute is imported from ``./src``. The
workload's inputs are made from ``--seed``; the job is repeated as many
times as comes nearest to ``--seconds`` of job time (at least once), and the
first iteration's output is checked (later ones must match it exactly).
With ``--trace 0`` the end-to-end metrics are reported, times as medians
of contention-corrected times (see ``clock.py``); with ``--trace 1``
untraced and traced repetitions alternate, and the per-layer metrics come
from the traced ones.
Metric names and units are those of ``BENCHMARK.json``. The last line of
standard output is one JSON object; the exit code is 0 only when every check
passed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# Per-layer metrics whose names end so are times, corrected like wall_s.
TIME_SUFFIXES = ("_s", "_ms_p50", "_ms_p90", "us_per_circuit", "us_per_cell")
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("embed_fresh", "train_impute", "eval_baselines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_qimpute() -> None:
    """Import qimpute from ./src, with BLAS pinned to one thread."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "qimpute" / "__init__.py").is_file():
        raise SystemExit(f"error: no qimpute sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import qimpute

    if Path(qimpute.__file__).resolve().parent != (src / "qimpute").resolve():
        raise SystemExit(f"error: imported qimpute from {qimpute.__file__}, not from {src}")


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment(workload) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qimpute").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": int(BLAS_THREADS),
        "threads": 1,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload.env,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def time_imports(clock, repeats: int) -> list:
    """Clock intervals of ``repeats`` fresh interpreters importing qimpute and the workloads.

    The interval subtracts the reference kernel run meanwhile in this process.
    """
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(Path(__file__).parent)!r}]; "
            "import workloads")
    intervals = []
    for _ in range(repeats):
        since = clock.mark()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        intervals.append(clock.interval(since))
    return intervals


def run_workload(wl, seconds: float, trace: bool, import_repeats: int = IMPORT_REPEATS) -> dict:
    """Set up, run and check one workload; returns everything measured."""
    from clock import ContentionClock
    from tracer import Tracer
    from workloads import QUALITY_METHODS

    tracer = Tracer() if trace else None
    clock = ContentionClock()

    def timed(body, traced: bool, span: str):
        """(result, clock interval, span window) of ``body``, traced under ``span`` if asked."""
        if traced:
            tracer.install()
            lo = tracer.mark()
        since = clock.mark()
        try:
            if traced:
                with tracer.span(span):
                    result = body()
            else:
                result = body()
        finally:
            interval = clock.interval(since)
            if traced:
                tracer.uninstall()
        return result, interval, (lo, tracer.mark()) if traced else None

    setups, walls, traced_walls, job_windows = [], [], [], []
    setup_window = None
    attempted = failed = 0
    failures: list = []
    first = first_prints = None
    undo_capture = None
    clock.start()
    try:
        imports = time_imports(clock, import_repeats)
        for i in range(SETUP_REPEATS):
            traced = tracer is not None and i == SETUP_REPEATS - 1
            _, interval, window = timed(wl.setup, traced, "bench.setup")
            if traced:
                setup_window = window
            else:
                setups.append(interval)

        undo_capture = wl.capture() if hasattr(wl, "capture") else None
        while True:
            traced = tracer is not None and len(walls) > len(traced_walls)
            try:
                result, interval, window = timed(wl.job, traced, "bench.job")
            except Exception:  # a failed operation is counted and reported, not hidden
                traceback.print_exc()
                attempted += wl.operations
                failed += wl.operations
                failures.append(("*", "job raised; traceback on stderr"))
                break
            if traced:
                traced_walls.append(interval)
                job_windows.append(window)
            else:
                walls.append(interval)
            output = wl.output(result)
            prints = wl.fingerprints(output)
            attempted += wl.operations
            if first is None:
                # Peak memory of set-up plus one job, before checks and repetitions.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                first, first_prints = output, prints
                found = wl.check(output)
                failures += found
                failed += min(wl.operations, len({op for op, _ in found}))
            else:
                differing = sum(a != b for a, b in zip(prints, first_prints))
                differing += abs(len(prints) - len(first_prints))
                if differing:
                    failures.append(("*", f"iteration {len(walls) + len(traced_walls)} "
                                          f"differs from the first in {differing} operations"))
                failed += min(wl.operations, differing)
            if tracer is not None and len(walls) > len(traced_walls):
                continue  # finish the untraced/traced pair
            # Stop at the iteration count whose total is nearest to ``seconds``.
            measured = sum(w.seconds for w in walls + traced_walls)
            if measured + 0.5 * measured / len(walls) > seconds:
                break
    finally:
        clock.stop()
        if undo_capture is not None:
            undo_capture()

    # Every time is corrected for the host's contention by the reference
    # kernel timed alongside it (see clock.py); raw times go to the result file.
    typical = clock.typical()
    # An import runs in another process, which the clock's samples do not
    # track, so import times stay raw.
    import_times = [i.seconds for i in imports]
    setup_times = [s.corrected(typical) for s in setups]
    wall_times = [w.corrected(typical) for w in walls]
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{op}: {msg}" for op, msg in failures],
        "import_times_s": import_times,
        "setup_times_s": setup_times,
        "setup_raw_s": [s.seconds for s in setups],
        "walls_s": wall_times,
        "walls_raw_s": [w.seconds for w in walls],
        "wall_reference_ms": [1e3 * statistics.fmean(w.samples) if w.samples else None
                              for w in walls],
        "traced_walls_raw_s": [w.seconds for w in traced_walls],
        "reference": clock.summary(),
        "metrics": {},
        "per_method": {},
        "properties": {},
    }
    if first is None:
        return out
    wall = statistics.median(wall_times)
    cells = wl.cells(first)
    quality, per_method = wl.quality(first)
    out["properties"] = wl.properties(first)
    out["per_method"] = per_method
    out["metrics"] = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "wall_s": wall,
        "cells_per_s": cells / wall,
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / attempted,
        **quality,
    }
    if tracer is not None and job_windows:
        # Span times are corrected like the job's time, by its repetition's factor.
        per_iteration = []
        for window, interval in zip(job_windows, traced_walls):
            factor = interval.corrected(typical) / interval.seconds
            per_iteration.append({
                k: v * factor if k.endswith(TIME_SUFFIXES) else v
                for k, v in tracer.layer_metrics([setup_window, window]).items()
            })
        layer = {k: statistics.median(d[k] for d in per_iteration) for k in per_iteration[0]}
        traced_wall = statistics.median(w.corrected(typical) for w in traced_walls)
        layer["trace.overhead_s"] = traced_wall - wall
        layer.update(out["properties"])
        layer["fail_ratio"] = out["metrics"]["fail_ratio"]
        for method in QUALITY_METHODS:
            for name in ("rmse", "macro_f1"):
                key = f"{name}.{method}"
                layer[key] = per_method.get(key, 0.0)
        out["layer_metrics"] = layer
        out["tracer"] = tracer
    return out


def report(name: str, measured: dict, trace: bool, declared: dict) -> tuple[dict, list[str]]:
    """The result object of the last output line, plus readable lines for every figure."""
    values = measured.get("layer_metrics", {}) if trace else measured["metrics"]
    units = declared[trace]
    correct = measured["failed"] == 0 and bool(measured["metrics"])
    metrics = {}
    if correct:
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"{name}: declared metrics not measured: {missing}")
        metrics = {n: {"value": float(values[n]), "unit": units[n]} for n in units}
    lines = [f"[{name}] {'traced' if trace else 'untraced'} run"]
    all_units = {**declared[False], **declared[True]}
    shown = {**measured["metrics"], **measured["per_method"]}
    if trace:
        shown.update(values)
    for key in sorted(shown):
        unit = all_units.get(key, "1")
        lines.append(f"  {key:34s} {shown[key]!s:>24} {unit}")
    for failure in measured["failures"]:
        lines.append(f"  FAILED {failure}")
    result = {
        "correct": correct,
        "attempted": max(1, measured["attempted"]),
        "failed": measured["failed"] if measured["attempted"] else 1,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_qimpute()
    from workloads import WORKLOADS

    declared = declared_metrics()
    WORK_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORK_DIR)
    env = environment(wl)
    measured = run_workload(wl, args.seconds, bool(args.trace))
    result, lines = report(args.workload, measured, bool(args.trace), declared)

    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    tracer = measured.pop("tracer", None)
    if tracer is not None:
        tracer.dump(WORK_DIR / f"spans_{stem}.json", {"workload": args.workload, "seed": args.seed})
    with open(WORK_DIR / f"result_{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, **measured}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("input: " + json.dumps(measured["properties"], sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
