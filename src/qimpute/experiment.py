"""Benchmark orchestration: seeded experiment runs, ablations, report files.

One experiment = for each seed: build (or load) a dataset, inject MCAR
missingness, fit the preprocessor on what remains observed, run every
configured method on the working table, and score the imputations against
the truth sidecar at the held-out positions. Held-out cell values never
enter the working table; scoring reads only the sidecar.

Each seed's split is prepared once, in the calling process, and shared by
all methods of that seed (also across worker processes); none may modify it.

Reports are split into a deterministic part (report.json, byte-identical
across reruns of the same config) and wall-clock timings (timings.json,
excluded from the determinism guarantee).
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import BaselineConfig, _Frame, _knn, _mean_mode, _ridge
from .datasets import synth_healthcare_generate
from .encoding import CellEmbedder, EmbedderVariant, PreprocessStats, fit_preprocessor
from .errors import ConfigError
from .metrics import macro_f1_categorical, rmse_numeric, rmse_raw_per_column
from .model import ModelConfig, ModelParams, mlp_embed
from .tabular import (
    DatasetSchema,
    Mask,
    Table,
    apply_mask,
    empty_mask,
    inject_mcar,
    load_csv,
    load_schema,
    missing_mask,
)
from .training import TrainConfig, impute_table, train

BASELINE_METHODS = ("mean_mode", "knn", "iterative_ridge")
VARIANT_METHODS = {
    "quantum_iqp": EmbedderVariant.QUANTUM_IQP,
    "classical_mlp": EmbedderVariant.CLASSICAL_MLP,
    "random_projection": EmbedderVariant.RANDOM_PROJECTION,
}
ALL_METHODS = BASELINE_METHODS + tuple(VARIANT_METHODS)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_kind: str = "synthetic"  # synthetic | csv
    n_rows: int = 1000
    csv_path: str | None = None
    schema_path: str | None = None
    missing_rate: float = 0.2
    methods: tuple[str, ...] = ("mean_mode", "knn", "iterative_ridge", "quantum_iqp")
    seeds: tuple[int, ...] = (0, 1, 2)
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    baseline: BaselineConfig = BaselineConfig()
    n_layers: int = 2  # circuit depth; the width is model.embed_dim
    text_dim: int = 16
    threads: int = 1

    def __post_init__(self):
        for name in ("methods", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat an entry, got {list(values)}")
        if not 0.0 < self.missing_rate < 1.0:
            raise ConfigError(f"missing_rate must be in (0, 1), got {self.missing_rate}")
        if self.dataset_kind not in ("synthetic", "csv"):
            raise ConfigError(f"unknown dataset kind {self.dataset_kind!r}")
        if self.dataset_kind == "csv" and (self.csv_path is None or self.schema_path is None):
            raise ConfigError("csv datasets need both csv_path and schema_path")
        for method in self.methods:
            if method not in ALL_METHODS:
                raise ConfigError(
                    f"unknown method {method!r}; expected one of {ALL_METHODS}"
                )
        for name in ("n_rows", "n_layers", "text_dim", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {list(self.seeds)}")


@dataclass
class PreparedSplit:
    """One seed's data: working table, truth sidecar, masks, fitted stats, and
    the baselines' read-only frame of the working table."""

    schema: DatasetSchema
    working: Table
    truth: Table
    eval_mask: Mask  # held-out cells to score (injected MCAR + generator MNAR)
    stats: PreprocessStats
    mask_hash: str
    frame: _Frame


def prepare_split(config: ExperimentConfig, seed: int) -> PreparedSplit:
    if config.dataset_kind == "synthetic":
        data = synth_healthcare_generate(config.n_rows, seed=seed)
        base, truth, mnar = data.table, data.truth, data.mnar_mask
        schema = data.schema
    else:
        schema = load_schema(config.schema_path)
        base = load_csv(config.csv_path, schema)
        truth = base.copy()
        mnar = empty_mask(base)
    mcar = inject_mcar(base, config.missing_rate, seed=seed)
    working = apply_mask(base, mcar)
    eval_mask = Mask.union(mcar, mnar)
    stats = fit_preprocessor(working, schema, text_dim=config.text_dim)
    frame = _Frame(working, empty_mask(working))
    return PreparedSplit(
        schema=schema,
        working=working,
        truth=truth,
        eval_mask=eval_mask,
        stats=stats,
        mask_hash=Mask(~frame.observed).content_hash(),  # the working table's missing cells
        frame=frame,
    )


def run_method(method: str, split: PreparedSplit, config: ExperimentConfig, seed: int) -> Table:
    """Impute the split's working table with one method."""
    if method == "mean_mode":
        return _mean_mode(split.frame)
    if method == "knn":
        return _knn(split.frame, config.baseline.k)
    if method == "iterative_ridge":
        return _ridge(split.frame, config.baseline)[0]
    extra = empty_mask(split.working)
    variant = VARIANT_METHODS[method]
    embedder = CellEmbedder(
        split.schema,
        split.stats,
        variant,
        seed=seed,
        n_qubits=config.model.embed_dim,
        n_layers=config.n_layers,
    )
    train_config = replace(config.train, seed=seed)
    result = train(
        split.working, extra, split.schema, split.stats, embedder,
        config.model, train_config,
    )
    return impute_table(
        split.working, extra, split.schema, split.stats, embedder, result.params
    )


@dataclass
class SeedScore:
    seed: int
    rmse: float | None = None
    macro_f1: float | None = None
    rmse_raw: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    mask_hash: str = ""
    error: str | None = None


@dataclass
class MethodResult:
    method: str
    per_seed: list[SeedScore]

    def _values(self, attr):
        return [
            getattr(s, attr)
            for s in self.per_seed
            if s.error is None and getattr(s, attr) is not None
        ]

    def aggregate(self, attr) -> tuple[float | None, float | None]:
        values = self._values(attr)
        if not values:
            return None, None
        return float(np.mean(values)), float(np.std(values))


@dataclass
class MetricReport:
    dataset: str
    missing_rate: float
    seeds: tuple[int, ...]
    results: list[MethodResult]

    def to_json_dict(self) -> dict:
        payload = {
            "dataset": self.dataset,
            "missing_rate": self.missing_rate,
            "seeds": list(self.seeds),
            "results": [],
        }
        for result in self.results:
            rmse_mean, rmse_std = result.aggregate("rmse")
            f1_mean, f1_std = result.aggregate("macro_f1")
            payload["results"].append(
                {
                    "method": result.method,
                    "rmse_mean": rmse_mean,
                    "rmse_std": rmse_std,
                    "macro_f1_mean": f1_mean,
                    "macro_f1_std": f1_std,
                    "per_seed": [
                        {
                            "seed": s.seed,
                            "rmse": s.rmse,
                            "macro_f1": s.macro_f1,
                            "rmse_raw_per_column": dict(sorted(s.rmse_raw.items())),
                            "mask_hash": s.mask_hash,
                            "error": s.error,
                        }
                        for s in result.per_seed
                    ],
                }
            )
        return payload

    def timings(self) -> dict:
        return {
            result.method: {str(s.seed): s.seconds for s in result.per_seed}
            for result in self.results
        }

    def human_table(self) -> str:
        headers = ("method", "rmse", "rmse_std", "macro_f1", "f1_std")
        lines = [f"dataset: {self.dataset}  missing_rate: {self.missing_rate}  seeds: {list(self.seeds)}"]
        rows = []
        for result in self.results:
            rmse_mean, rmse_std = result.aggregate("rmse")
            f1_mean, f1_std = result.aggregate("macro_f1")
            errors = sum(1 for s in result.per_seed if s.error is not None)
            rows.append(
                (
                    result.method,
                    "-" if rmse_mean is None else f"{rmse_mean:.4f}",
                    "-" if rmse_std is None else f"{rmse_std:.4f}",
                    "-" if f1_mean is None else f"{f1_mean:.4f}",
                    "-" if f1_std is None else f"{f1_std:.4f}",
                )
                + ((f"errors={errors}",) if errors else ())
            )
        widths = [
            max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(headers))
        ]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        for row in rows:
            padded = [row[i].ljust(widths[i]) for i in range(len(headers))]
            padded += list(row[len(headers):])
            lines.append("  ".join(padded))
        return "\n".join(lines)


def score_imputation(imputed: Table, split: PreparedSplit) -> tuple:
    rmse = rmse_numeric(imputed, split.truth, split.eval_mask, split.stats)
    f1 = macro_f1_categorical(imputed, split.truth, split.eval_mask)
    raw = rmse_raw_per_column(imputed, split.truth, split.eval_mask)
    return rmse, f1, raw


def _run_task(config: ExperimentConfig, method: str, seed: int, split: PreparedSplit) -> SeedScore:
    """One (method, seed) cell of the experiment grid; catches method errors."""
    score = SeedScore(seed=seed, mask_hash=split.mask_hash)
    start = time.perf_counter()
    try:
        imputed = run_method(method, split, config, seed)
        score.rmse, score.macro_f1, score.rmse_raw = score_imputation(imputed, split)
    except Exception as exc:  # recorded per-method, other methods keep running
        score.error = f"{type(exc).__name__}: {exc}"
    score.seconds = time.perf_counter() - start
    return score


def _tasks(config: ExperimentConfig):
    """``_run_task`` arguments, seed-major: one split per seed, for all its methods."""
    for seed in config.seeds:
        split = prepare_split(config, seed)
        for method in config.methods:
            yield config, method, seed, split


def _dataset_label(config: ExperimentConfig) -> str:
    if config.dataset_kind == "synthetic":
        return f"synthetic_healthcare[n={config.n_rows}]"
    return str(config.csv_path)


# Thread-count variables of the common BLAS builds, read once when numpy loads.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_in_new_processes():
    """Processes started inside get one BLAS thread, unless the caller set a count.

    Worker processes that each run one BLAS thread per core outnumber the
    cores, and their BLAS threads spin against each other: the criterion-10
    ablation (two workers on a 2-vCPU VM) took 837 s that way and 122 s with
    one BLAS thread per worker. ``os.environ`` is restored on exit.
    """
    unset = [name for name in _BLAS_THREAD_VARIABLES if name not in os.environ]
    os.environ.update({name: "1" for name in unset})
    try:
        yield
    finally:
        for name in unset:
            os.environ.pop(name, None)


def run_experiment(config: ExperimentConfig, out_dir=None) -> MetricReport:
    """Run every (method, seed) pair and aggregate; optionally write files."""
    if config.threads > 1:
        # Spawned, not forked: a fresh worker loads numpy, and so reads the
        # BLAS thread count, under the environment set here.
        with _one_blas_thread_in_new_processes(), ProcessPoolExecutor(
            max_workers=config.threads, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            futures = [pool.submit(_run_task, *task) for task in _tasks(config)]
            scores = [f.result() for f in futures]
    else:
        scores = [_run_task(*task) for task in _tasks(config)]
    n_methods = len(config.methods)
    report = MetricReport(
        dataset=_dataset_label(config),
        missing_rate=config.missing_rate,
        seeds=config.seeds,
        results=[MethodResult(m, scores[i::n_methods]) for i, m in enumerate(config.methods)],
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


ABLATION_VARIANTS = ("random_projection", "classical_mlp", "quantum_iqp")


def ablation_suite(config: ExperimentConfig, out_dir=None) -> MetricReport:
    """Run the three embedding variants under identical masks per seed.

    Everything except the embedding variant is held fixed.
    """
    return run_experiment(replace(config, methods=ABLATION_VARIANTS), out_dir=out_dir)


def write_report(report: MetricReport, out_dir) -> None:
    """report.json (deterministic) and timings.json (wall clock, not)."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "timings.json", "w", encoding="utf-8") as fh:
        json.dump(report.timings(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# embedding export
# ---------------------------------------------------------------------------

_EXPORT_BLOCK_ROWS = 256  # rows per export block; bounds the row-mean gather's size


def export_embeddings(
    table: Table,
    schema: DatasetSchema,
    stats: PreprocessStats,
    variant: EmbedderVariant,
    seed: int,
    label_column: str,
    path,
    mode: str = "row_mean",
    n_qubits: int = 8,
    n_layers: int = 2,
    params: ModelParams | None = None,
) -> None:
    """Write labeled embedding vectors as CSV for external visualization.

    ``mode="row_mean"`` emits one row per table row (mean over that row's
    observed cell embeddings); ``mode="cell"`` emits one row per observed
    cell. The label column is a categorical column whose value tags each
    output row. The classical-MLP variant needs trained ``params``.
    """
    if mode not in ("row_mean", "cell"):
        raise ConfigError(f"mode must be 'row_mean' or 'cell', got {mode!r}")
    try:
        label_idx = schema.index(label_column)
    except KeyError:
        raise ConfigError(f"unknown label column {label_column!r}") from None
    embedder = CellEmbedder(
        schema, stats, variant, seed=seed, n_qubits=n_qubits, n_layers=n_layers
    )
    emb = embedder.embed_table(table)
    if embedder.mlp_d_in:
        if params is None or not params.with_mlp:
            raise ConfigError(
                "classical_mlp export needs trained model params holding mlp weights"
            )
        emb, _ = mlp_embed(params.tensors, emb)
    observed = ~missing_mask(table).matrix
    labels = ["" if v is None else v for v in table.column(label_idx, range(table.n_rows))]
    escaped = _csv_fields(dict.fromkeys(labels))
    labels = [escaped[label] for label in labels]
    dim = emb.shape[2]  # the MLP's output width is the model's, not n_qubits
    head = ("row_id", "label") if mode == "row_mean" else ("row_id", "column_name", "label")
    # one line per call, each value as format(v, ".17g")
    line = ",".join(("%d",) + ("%s",) * (len(head) - 1) + ("%.17g",) * dim) + "\n"
    names = list(_csv_fields(schema.names).values())  # the schema's names are distinct
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(head + tuple(f"e_{i}" for i in range(dim))) + "\n")
        for start in range(0, table.n_rows, _EXPORT_BLOCK_ROWS):
            seen, block = (a[start : start + _EXPORT_BLOCK_ROWS] for a in (observed, emb))
            if mode == "row_mean":
                keys = zip(range(start, start + len(seen)), labels[start : start + len(seen)])
                vectors = _row_means(block, seen)
            else:
                rows, cols = np.nonzero(seen)
                keys = ((start + r, names[c], labels[start + r])
                        for r, c in zip(rows.tolist(), cols.tolist()))
                vectors = block[rows, cols]
            fh.write("".join([line % (*k, *v) for k, v in zip(keys, vectors.tolist())]))


def _csv_fields(texts) -> dict[str, str]:
    """Each text as ``csv.writer`` writes it, quoted or not, as one field of a
    record of several (alone, an empty field would be written ``""``)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    fields = {}
    for text in texts:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([text, ""])
        fields[text] = buffer.getvalue()[: -len(",\n")]
    return fields


def _row_means(emb: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Each row's mean observed cell embedding (zeros for none), batched by observed
    count k: ``(m, k, dim).mean(axis=1)`` is bitwise each row's ``(k, dim).mean(axis=0)``."""
    means = np.zeros((emb.shape[0], emb.shape[2]))
    counts = observed.sum(axis=1)
    for k in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == k)
        cols = np.nonzero(observed[rows])[1].reshape(rows.size, k)
        means[rows] = emb[rows[:, None], cols].mean(axis=1)
    return means
