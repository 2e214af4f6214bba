"""Tests for experiment orchestration, scoring, reports, and embedding export."""

import csv
import itertools
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import qimpute.experiment as experiment_module
from qimpute.baselines import iterative_ridge_impute, knn_impute, mean_mode_impute
from qimpute.encoding import CellEmbedder, EmbedderVariant, TextEmbeddings, fit_preprocessor
from qimpute.errors import ConfigError
from qimpute.experiment import (
    BASELINE_METHODS,
    ExperimentConfig,
    ablation_suite,
    export_embeddings,
    prepare_split,
    run_experiment,
    run_method,
    score_imputation,
)
from qimpute.model import Batch, ModelConfig, forward, mlp_embed
from qimpute.tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    empty_mask,
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
    def explode(frame):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(experiment_module, "_mean_mode", explode)
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
    working, mask_hash = split.working.content_hash(), split.mask_hash
    stats = pickle.dumps(split.stats)
    for method in ("mean_mode", "knn", "iterative_ridge", "quantum_iqp"):
        run_method(method, split, config, seed=0)
        assert split.working.content_hash() == working, method
        assert split.mask_hash == mask_hash == missing_mask(split.working).content_hash(), method
        assert pickle.dumps(split.stats) == stats, method


def test_split_frame_is_read_only():
    frame = prepare_split(fast_config(n_rows=40), seed=0).frame
    for array in (frame.observed, frame.num_values, frame.num_norm, frame.cat_idx):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


@pytest.mark.parametrize("methods", list(itertools.permutations(BASELINE_METHODS)))
def test_baselines_on_the_shared_frame_match_fresh_frames(methods):
    """Whatever order the baselines run in on one split's frame, each gives
    what its public function gives on a frame of its own."""
    config = fast_config(n_rows=60)
    split = prepare_split(config, seed=2)
    working, extra = split.working, empty_mask(split.working)
    expected = {
        "mean_mode": mean_mode_impute(working, extra),
        "knn": knn_impute(working, extra, k=config.baseline.k),
        "iterative_ridge": iterative_ridge_impute(working, extra, config.baseline),
    }
    for method in methods:
        got = run_method(method, split, config, seed=2)
        assert got.content_hash() == expected[method].content_hash(), method


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
    config = fast_config(methods=("quantum_iqp",), threads=2)
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


SRC = Path(__file__).resolve().parents[1] / "src"
CLI = "import sys; from qimpute.cli import main; sys.exit(main(sys.argv[1:]))"


def test_transformer_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits long reductions across its threads: two BLAS threads
    # against one, and serial against pooled runs, must give the same bytes.
    config = tmp_path / "eval.cfg"
    config.write_text(
        "dataset.rows = 60\nmethods = quantum_iqp, classical_mlp\nseeds = 0, 1\n"
        "train.epochs = 1\n"
    )
    reports = []
    for blas, threads in (("2", 1), ("2", 2), ("1", 1)):
        out = tmp_path / f"blas{blas}-threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": str(SRC)}
        result = subprocess.run(
            [sys.executable, "-c", CLI, "eval", "--config", str(config),
             "--threads", str(threads), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


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


def test_the_model_embed_dim_is_the_embedding_width():
    # FAST_MODEL is 4 wide; the fixed-embedding variants must embed with 4 qubits.
    config = fast_config(n_rows=30, methods=("quantum_iqp", "random_projection"))
    assert config.model.embed_dim == 4
    report = run_experiment(config)
    for result in report.results:
        assert [s.error for s in result.per_seed] == [None, None], result.method
        assert all(s.rmse is not None and s.macro_f1 is not None for s in result.per_seed)


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


def test_export_uses_the_precomputed_text_vectors_of_its_stats(tmp_path):
    split = export_setup()
    table, schema = split.working, split.schema
    notes = sorted(set(table.column(schema.index("triage_note"), range(table.n_rows))) - {None})
    rng = np.random.default_rng(0)
    vectors = {("triage_note", note): rng.normal(size=3) for note in notes}
    stats = fit_preprocessor(table, schema, text_embeddings=TextEmbeddings(dim=3, vectors=vectors))
    path = tmp_path / "emb.csv"
    export_embeddings(
        table, schema, stats, EmbedderVariant.QUANTUM_IQP,
        seed=0, label_column="diagnosis", path=path, mode="cell", n_qubits=4,
    )
    emb = CellEmbedder(schema, stats, EmbedderVariant.QUANTUM_IQP, seed=0, n_qubits=4)
    hashed = fit_preprocessor(table, schema, text_dim=3)
    plain = CellEmbedder(schema, hashed, EmbedderVariant.QUANTUM_IQP, seed=0, n_qubits=4)
    expected, without = emb.embed_table(table), plain.embed_table(table)
    note = schema.index("triage_note")
    lines = path.read_text().strip().split("\n")[1:]
    for line in lines:
        row, column, _, *values = line.split(",")
        r, c = int(row), schema.index(column)
        assert values == [format(v, ".17g") for v in expected[r, c]]
        if c == note:
            assert not np.array_equal(expected[r, c], without[r, c])
    assert sum(line.split(",")[1] == "triage_note" for line in lines) == len(
        [v for v in table.column(note, range(table.n_rows)) if v is not None]
    )


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
    batch = Batch(token_masked=~observed, features=embedder.embed_table(table))
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


@pytest.mark.parametrize("mode", ["row_mean", "cell"])
def test_export_classical_mlp_rows_are_as_wide_as_the_header(tmp_path, mode):
    # The MLP's output width is the model's embed_dim (4), whatever n_qubits says.
    split = export_setup()
    embedder = CellEmbedder(split.schema, split.stats, EmbedderVariant.CLASSICAL_MLP, seed=0)
    params = train(
        split.working, empty_mask(split.working), split.schema, split.stats, embedder,
        FAST_MODEL, TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3),
    ).params
    path = tmp_path / "emb.csv"
    export_embeddings(
        split.working, split.schema, split.stats, EmbedderVariant.CLASSICAL_MLP,
        seed=0, label_column="diagnosis", path=path, mode=mode, params=params,
    )
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert [h for h in header if h.startswith("e_")] == [f"e_{i}" for i in range(4)]
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


# Ten columns; each row below observes the listed ones. Row 0 observes
# nothing, and the observed-count groups 1, 7 and 9 hold one row each.
EXPORT_COLUMNS = (
    ColumnSpec("ward", ColumnKind.CATEGORICAL),
    *(ColumnSpec(f"x{i}", ColumnKind.NUMERIC) for i in range(6)),
    ColumnSpec("g", ColumnKind.CATEGORICAL),
    ColumnSpec("note", ColumnKind.TEXT),
    ColumnSpec("y", ColumnKind.NUMERIC),
)
EXPORT_OBSERVED = (
    (), (3,), (0, 1, 2, 4, 6, 8, 9), range(8), range(1, 9), range(9), range(10), range(10),
    (0, 2, 3, 4, 5, 6, 7, 9),
)
EXPORT_LABELS = ("a,b", 'say "hi"', "plain", "a,b")


def export_reference_table() -> Table:
    rng = np.random.default_rng(5)
    full = [
        [EXPORT_LABELS[r % 4], *rng.normal(size=6).tolist(), "pq"[r % 2], f"note {r % 3}", r / 2]
        for r in range(len(EXPORT_OBSERVED))
    ]
    rows = [
        [v if c in seen else None for c, v in enumerate(row)]
        for row, seen in zip(full, EXPORT_OBSERVED)
    ]
    return Table(DatasetSchema(EXPORT_COLUMNS, name="export"), rows)


def reference_records(table: Table, emb: np.ndarray, mode: str) -> list[list[str]]:
    """The export's records, built per row: each row's own np.mean (or each
    cell), every value written with format(v, ".17g"), labels from column 0."""
    observed = ~missing_mask(table).matrix
    labels = [row[0] or "" for row in table.rows]

    def text(vector):
        return [format(v, ".17g") for v in vector]

    if mode == "row_mean":
        means = [
            emb[r][observed[r]].mean(axis=0) if observed[r].any() else np.zeros(emb.shape[2])
            for r in range(table.n_rows)
        ]
        return [[str(r), labels[r], *text(m)] for r, m in enumerate(means)]
    names = table.schema.names
    return [[str(r), names[c], labels[r], *text(emb[r, c])] for r, c in zip(*np.nonzero(observed))]


@pytest.mark.parametrize("block_rows", [2, 256])
@pytest.mark.parametrize("variant", list(EmbedderVariant), ids=lambda v: v.value)
def test_export_is_bitwise_the_per_row_reference(tmp_path, monkeypatch, variant, block_rows):
    # Each line is exactly the per-row np.mean (or the cell) written with
    # format(v, ".17g"), whatever block or observed-count group it falls in.
    monkeypatch.setattr(experiment_module, "_EXPORT_BLOCK_ROWS", block_rows)
    table = export_reference_table()
    schema = table.schema
    stats = fit_preprocessor(table, schema, text_dim=3)
    embedder = CellEmbedder(schema, stats, variant, seed=2, n_qubits=4)
    emb, params = embedder.embed_table(table), None
    if embedder.mlp_d_in:
        params = train(
            table, empty_mask(table), schema, stats, embedder, FAST_MODEL,
            TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3),
        ).params
        emb = mlp_embed(params.tensors, emb)[0]
    lines = {}
    for mode in ("row_mean", "cell"):
        export_embeddings(
            table, schema, stats, variant, seed=2, label_column="ward",
            path=tmp_path / f"{mode}.csv", mode=mode, n_qubits=4, params=params,
        )
        with open(tmp_path / f"{mode}.csv", encoding="utf-8", newline="") as fh:
            lines[mode] = list(csv.reader(fh))[1:]
    assert lines["row_mean"][0][2:] == ["0"] * emb.shape[2]
    assert lines["row_mean"] == reference_records(table, emb, "row_mean")
    assert lines["cell"] == reference_records(table, emb, "cell")
    assert len(lines["cell"]) == sum(len(seen) for seen in EXPORT_OBSERVED)


# comma, quote, lone carriage return, newline, leading space, plain
AWKWARD_LABELS = ("a,b", 'say "hi"', "cr\ronly", "two\nlines", " lead", "plain")


@pytest.mark.parametrize("block_rows", [2, 256])
def test_export_bytes_are_the_csv_writers(tmp_path, monkeypatch, block_rows):
    # Parsed fields would not show a writer that quotes otherwise: the files
    # must be the bytes csv.writer writes, for labels that need quoting, one
    # that looks as if it might (a lone CR, which it leaves bare), a missing
    # (empty) label and, in cell mode, a column name holding a comma.
    monkeypatch.setattr(experiment_module, "_EXPORT_BLOCK_ROWS", block_rows)
    base = export_reference_table()
    columns = (base.schema.columns[0], ColumnSpec("x,0", ColumnKind.NUMERIC),
               *base.schema.columns[2:])
    labelled = iter(AWKWARD_LABELS)
    rows = [[None if row[0] is None else next(labelled), *row[1:]] for row in base.rows]
    assert next(labelled, None) is None and any(row[0] is None for row in rows)
    table = Table(DatasetSchema(columns, name="export"), rows)
    stats = fit_preprocessor(table, table.schema, text_dim=3)
    variant = EmbedderVariant.RANDOM_PROJECTION
    emb = CellEmbedder(table.schema, stats, variant, seed=2, n_qubits=4).embed_table(table)
    header = {"row_mean": ["row_id", "label"], "cell": ["row_id", "column_name", "label"]}
    for mode, keys in header.items():
        export_embeddings(
            table, table.schema, stats, variant, seed=2, label_column="ward",
            path=tmp_path / f"{mode}.csv", mode=mode, n_qubits=4,
        )
        with open(tmp_path / f"reference-{mode}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(keys + [f"e_{i}" for i in range(4)])
            writer.writerows(reference_records(table, emb, mode))
        assert (tmp_path / f"{mode}.csv").read_bytes() == (
            tmp_path / f"reference-{mode}.csv"
        ).read_bytes()
