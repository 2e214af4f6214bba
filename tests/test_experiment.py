"""Tests for experiment orchestration, scoring, reports, and embedding export."""

import json
import math
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import qimpute.experiment as experiment_module
from qimpute.encoding import CellEmbedder, EmbedderVariant, fit_preprocessor
from qimpute.errors import ConfigError
from qimpute.experiment import (
    ExperimentConfig,
    ablation_suite,
    export_embeddings,
    prepare_split,
    run_experiment,
    run_method,
    score_imputation,
)
from qimpute.model import Batch, ModelConfig, forward
from qimpute.tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    missing_mask,
    save_csv,
    save_schema,
)
from qimpute.training import TrainConfig, train

FAST_MODEL = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, embed_dim=4)
FAST_TRAIN = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3)


def fast_config(**overrides):
    defaults = dict(
        dataset_kind="synthetic",
        n_rows=50,
        missing_rate=0.2,
        methods=("mean_mode", "knn"),
        seeds=(0, 1),
        model=FAST_MODEL,
        train=FAST_TRAIN,
        n_qubits=4,
        n_layers=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# prepare_split / leakage
# ---------------------------------------------------------------------------


def test_prepare_split_blanks_held_out_cells():
    split = prepare_split(fast_config(), seed=0)
    rows, cols = np.nonzero(split.eval_mask.matrix)
    assert rows.size > 0
    for r, c in zip(rows, cols):
        assert split.working.rows[r][c] is None
        assert split.truth.rows[r][c] is not None


def test_prepare_split_working_hash_independent_of_truth():
    split = prepare_split(fast_config(), seed=1)
    before = split.working.content_hash()
    split.truth.rows[0][0] = 999.0  # scramble the sidecar
    assert split.working.content_hash() == before


def test_prepare_split_deterministic():
    a = prepare_split(fast_config(), seed=3)
    b = prepare_split(fast_config(), seed=3)
    assert a.working.content_hash() == b.working.content_hash()
    assert a.mask_hash == b.mask_hash


def test_prepare_split_includes_mnar_in_eval_mask():
    config = fast_config()
    split = prepare_split(config, seed=0)
    bp = split.schema.index("blood_pressure")
    diag = split.schema.index("diagnosis")
    stable_rows = [
        r for r in range(split.truth.n_rows) if split.truth.rows[r][diag] == "stable"
    ]
    assert stable_rows
    assert all(split.eval_mask.matrix[r, bp] for r in stable_rows)


# ---------------------------------------------------------------------------
# scoring against the sidecar
# ---------------------------------------------------------------------------


def test_mean_mode_rmse_matches_independent_recomputation():
    config = fast_config(methods=("mean_mode",), seeds=(0,))
    split = prepare_split(config, seed=0)
    imputed = run_method("mean_mode", split, config, seed=0)
    rmse, _, _ = score_imputation(imputed, split)

    # Independent recomputation: column means over the working table,
    # normalized errors at eval positions with truth.
    schema = split.schema
    sq = []
    for j in schema.indices_of(ColumnKind.NUMERIC):
        observed = [row[j] for row in split.working.rows if row[j] is not None]
        mean = sum(observed) / len(observed)
        col = split.stats.for_column(schema.columns[j].name)
        span = col.vmax - col.vmin
        for r in np.flatnonzero(split.eval_mask.matrix[:, j]):
            truth_value = split.truth.rows[r][j]
            if truth_value is None:
                continue
            a = (mean - col.vmin) / span if span > 0 else 0.0
            b = (truth_value - col.vmin) / span if span > 0 else 0.0
            sq.append((a - b) ** 2)
    expected = math.sqrt(sum(sq) / len(sq))
    assert rmse == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_report_structure_one_row_per_method():
    config = fast_config()
    report = run_experiment(config)
    assert [r.method for r in report.results] == list(config.methods)
    for result in report.results:
        assert [s.seed for s in result.per_seed] == list(config.seeds)
        for s in result.per_seed:
            assert s.error is None
            assert s.rmse is not None and s.rmse >= 0.0
            assert s.macro_f1 is not None and 0.0 <= s.macro_f1 <= 1.0


def test_report_files_byte_identical(tmp_path):
    config = fast_config()
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "timings.json").exists()


def test_report_aggregates_match_per_seed_values():
    report = run_experiment(fast_config())
    for result in report.results:
        values = [s.rmse for s in result.per_seed]
        mean, std = result.aggregate("rmse")
        assert mean == pytest.approx(np.mean(values), abs=1e-12)
        assert std == pytest.approx(np.std(values), abs=1e-12)


def test_method_failure_recorded_without_aborting(monkeypatch):
    def explode(table, mask):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(experiment_module, "mean_mode_impute", explode)
    report = run_experiment(fast_config(methods=("mean_mode", "knn"), seeds=(0,)))
    mean_mode = report.results[0]
    assert mean_mode.per_seed[0].error is not None
    assert "synthetic failure" in mean_mode.per_seed[0].error
    knn = report.results[1]
    assert knn.per_seed[0].error is None
    assert knn.per_seed[0].rmse is not None


def test_transformer_method_runs_end_to_end():
    config = fast_config(methods=("quantum_iqp",), seeds=(0,), n_rows=40)
    report = run_experiment(config)
    score = report.results[0].per_seed[0]
    assert score.error is None
    assert score.rmse is not None and score.macro_f1 is not None


def test_run_experiment_prepares_one_split_per_seed(monkeypatch):
    prepared = []
    original = experiment_module.prepare_split

    def counting(config, seed):
        prepared.append(seed)
        return original(config, seed)

    monkeypatch.setattr(experiment_module, "prepare_split", counting)
    config = fast_config(methods=("mean_mode", "knn", "iterative_ridge"), seeds=(0, 1, 2))
    report = run_experiment(config)
    assert prepared == [0, 1, 2]
    assert [[s.seed for s in r.per_seed] for r in report.results] == [[0, 1, 2]] * 3
    assert all(s.error is None for r in report.results for s in r.per_seed)


def test_methods_leave_the_shared_split_unchanged():
    config = fast_config(n_rows=40)
    split = prepare_split(config, seed=0)
    working, full_mask = split.working.content_hash(), split.full_mask.matrix.copy()
    stats = pickle.dumps(split.stats)
    for method in ("mean_mode", "knn", "iterative_ridge", "quantum_iqp"):
        run_method(method, split, config, seed=0)
        assert split.working.content_hash() == working, method
        assert np.array_equal(split.full_mask.matrix, full_mask), method
        assert pickle.dumps(split.stats) == stats, method


def test_threads_parallel_matches_sequential(tmp_path):
    config = fast_config(seeds=(0, 1))
    run_experiment(config, out_dir=tmp_path / "seq")
    parallel = ExperimentConfig(
        **{**config.__dict__, "threads": 2}
    )
    run_experiment(parallel, out_dir=tmp_path / "par")
    assert (tmp_path / "seq" / "report.json").read_bytes() == (
        tmp_path / "par" / "report.json"
    ).read_bytes()


def test_pooled_transformer_reruns_are_byte_identical(tmp_path):
    # Transformer scores may differ in the last digits between threads = 1
    # and threads > 1 (BLAS thread counts differ); reruns at one threads
    # value may not.
    config = fast_config(methods=("quantum_iqp",), threads=2)
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # a count the caller chose is kept
    before = dict(os.environ)
    spawn = multiprocessing.get_context("spawn")
    with experiment_module._one_blas_thread_in_new_processes(), ProcessPoolExecutor(
        max_workers=1, mp_context=spawn
    ) as pool:
        seen = pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result()
        kept = pool.submit(os.getenv, "MKL_NUM_THREADS").result()
    assert (seen, kept) == ("1", "3")
    assert dict(os.environ) == before


def test_csv_dataset_kind(tmp_path):
    schema = DatasetSchema(
        (
            ColumnSpec("x", ColumnKind.NUMERIC),
            ColumnSpec("y", ColumnKind.NUMERIC),
            ColumnSpec("g", ColumnKind.CATEGORICAL),
        ),
        name="csvset",
    )
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(40):
        x = float(rng.uniform(0, 1))
        rows.append([x, 2 * x, "hi" if x > 0.5 else "lo"])
    table = Table(schema, rows)
    csv_path = tmp_path / "d.csv"
    schema_path = tmp_path / "d.schema"
    save_csv(table, csv_path)
    save_schema(schema, schema_path)
    config = fast_config(
        dataset_kind="csv",
        csv_path=str(csv_path),
        schema_path=str(schema_path),
        methods=("mean_mode", "iterative_ridge"),
        seeds=(0,),
    )
    report = run_experiment(config)
    ridge = report.results[1].per_seed[0]
    assert ridge.error is None
    assert ridge.rmse < report.results[0].per_seed[0].rmse  # ridge beats mean here


def test_config_validation():
    with pytest.raises(ConfigError):
        fast_config(methods=("nope",))
    with pytest.raises(ConfigError):
        fast_config(seeds=())
    with pytest.raises(ConfigError):
        fast_config(dataset_kind="csv")  # missing paths


# ---------------------------------------------------------------------------
# ablation suite
# ---------------------------------------------------------------------------


def test_ablation_three_variants_and_identical_masks():
    config = fast_config(seeds=(0, 1), n_rows=40)
    report = ablation_suite(config)
    assert [r.method for r in report.results] == [
        "random_projection", "classical_mlp", "quantum_iqp",
    ]
    for idx in range(2):
        hashes = {r.per_seed[idx].mask_hash for r in report.results}
        assert len(hashes) == 1


def test_ablation_reports_each_seeds_independently_prepared_mask():
    config = fast_config(seeds=(0, 3), n_rows=30)
    report = ablation_suite(config)
    expected = [prepare_split(config, seed).mask_hash for seed in config.seeds]
    assert expected[0] != expected[1]
    for result in report.results:
        assert [s.mask_hash for s in result.per_seed] == expected, result.method


# ---------------------------------------------------------------------------
# embedding export
# ---------------------------------------------------------------------------


def export_setup():
    config = fast_config(n_rows=30)
    split = prepare_split(config, seed=0)
    return split


def test_export_row_mean_shape(tmp_path):
    split = export_setup()
    path = tmp_path / "emb.csv"
    export_embeddings(
        split.working, split.schema, split.stats, EmbedderVariant.QUANTUM_IQP,
        seed=0, label_column="diagnosis", path=path, mode="row_mean", n_qubits=4,
    )
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + split.working.n_rows
    header = lines[0].split(",")
    assert header == ["row_id", "label"] + [f"e_{i}" for i in range(4)]
    for line in lines[1:]:
        fields = line.split(",")
        values = [float(v) for v in fields[2:]]
        assert all(-1.0 <= v <= 1.0 for v in values)


def test_export_cell_mode_counts_observed_cells(tmp_path):
    split = export_setup()
    path = tmp_path / "emb.csv"
    export_embeddings(
        split.working, split.schema, split.stats, EmbedderVariant.QUANTUM_IQP,
        seed=0, label_column="diagnosis", path=path, mode="cell", n_qubits=4,
    )
    observed = sum(
        1 for row in split.working.rows for v in row if v is not None
    )
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + observed


def test_export_unknown_label_column(tmp_path):
    split = export_setup()
    with pytest.raises(ConfigError, match="label"):
        export_embeddings(
            split.working, split.schema, split.stats, EmbedderVariant.QUANTUM_IQP,
            seed=0, label_column="nonexistent", path=tmp_path / "x.csv",
        )


def test_export_classical_mlp_cell_matches_forward(tmp_path):
    split = export_setup()
    table = split.working
    observed = ~missing_mask(table).matrix
    embedder = CellEmbedder(
        split.schema, split.stats, EmbedderVariant.CLASSICAL_MLP, seed=0, n_qubits=4
    )
    no_holdout = Mask(np.zeros(observed.shape, dtype=bool))
    params = train(
        table, no_holdout, split.schema, split.stats, embedder,
        FAST_MODEL, TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3),
    ).params
    path = tmp_path / "emb.csv"
    export_embeddings(
        table, split.schema, split.stats, EmbedderVariant.CLASSICAL_MLP,
        seed=0, label_column="diagnosis", path=path, mode="cell", n_qubits=4,
        params=params,
    )
    batch = Batch(token_masked=~observed, xc=embedder.classical_table(table))
    _, cache = forward(params, batch)
    lines = path.read_text().strip().split("\n")[1:]
    cells = [(r, c) for r in range(table.n_rows) for c in np.flatnonzero(observed[r])]
    assert len(lines) == len(cells)
    for line, (r, c) in zip(lines, cells):
        fields = line.split(",")
        assert (int(fields[0]), fields[1]) == (r, split.schema.columns[c].name)
        assert fields[3:] == [format(v, ".17g") for v in cache.emb[r, c]]

    with pytest.raises(ConfigError, match="params"):
        export_embeddings(
            table, split.schema, split.stats, EmbedderVariant.CLASSICAL_MLP,
            seed=0, label_column="diagnosis", path=tmp_path / "x.csv", n_qubits=4,
        )
