"""Tests for Adam, the training loop, imputation, and checkpoints."""

import json
import logging
import re
import shutil
import tracemalloc

import numpy as np
import pytest

import qimpute.model as model_module
import qimpute.training as training_module
from qimpute.baselines import (
    BaselineConfig,
    iterative_ridge_impute,
    knn_impute,
    mean_mode_impute,
)
from qimpute.datasets import make_toy_table, synth_healthcare_generate
from qimpute.encoding import CellEmbedder, EmbedderVariant, TextEmbeddings, fit_preprocessor
from qimpute.errors import (
    CheckpointError,
    ContractViolation,
    FitError,
    TrainingDiverged,
)
from qimpute.metrics import macro_f1_categorical, rmse_numeric, rmse_raw_per_column
from qimpute.model import LossBreakdown, ModelConfig, init_params
from qimpute.tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    apply_mask,
    inject_mcar,
)
from qimpute.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    CheckpointBundle,
    TrainConfig,
    adam_step,
    impute_table,
    load_checkpoint,
    save_checkpoint,
    train,
)

SMALL_MODEL = ModelConfig(d_model=16, n_blocks=1, n_heads=2, d_ff=32, embed_dim=4)


def toy_setup(n_rows=60, seed=5, variant=EmbedderVariant.QUANTUM_IQP, rate=0.2):
    table = make_toy_table(n_rows=n_rows, seed=seed)
    mask = inject_mcar(table, rate, seed=seed)
    stats = fit_preprocessor(table, table.schema)
    embedder = CellEmbedder(table.schema, stats, variant, seed=seed, n_qubits=4, n_layers=2)
    return table, mask, stats, embedder


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def scalar_params():
    schema = DatasetSchema((ColumnSpec("v", ColumnKind.NUMERIC),))
    stats = fit_preprocessor(Table(schema, [[0.0], [1.0]]), schema)
    config = ModelConfig(d_model=2, n_blocks=1, n_heads=1, d_ff=2, embed_dim=2)
    return init_params(schema, stats, config, seed=0)


def test_adam_zero_gradient_leaves_params_unchanged():
    params = scalar_params()
    before = {k: v.copy() for k, v in params.tensors.items()}
    state = AdamState.for_params(params)
    adam_step(params, params.zero_like_tensors(), state, TrainConfig())
    for name in before:
        assert np.array_equal(params.tensors[name], before[name])


def test_adam_first_step_hand_value():
    # Single scalar with g=1, lr=1e-4: bias correction makes m_hat = v_hat = 1,
    # so the update is exactly -1e-4 / (1 + 1e-8).
    params = scalar_params()
    params.tensors["head.num.v.b"] = np.array(0.5)
    grads = params.zero_like_tensors()
    grads["head.num.v.b"] = np.array(1.0)
    state = AdamState.for_params(params)
    adam_step(params, grads, state, TrainConfig(learning_rate=1e-4))
    expected = 0.5 - 1e-4 / (1.0 + 1e-8)
    assert params.tensors["head.num.v.b"] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.499900000001, abs=1e-12)


def test_adam_equal_gradients_update_equally():
    params = scalar_params()
    grads = params.zero_like_tensors()
    grads["mask_emb"] = np.array([0.3, 0.3])
    state = AdamState.for_params(params)
    adam_step(params, grads, state, TrainConfig())
    assert params.tensors["mask_emb"][0] == params.tensors["mask_emb"][1]


def test_adam_momentum_carries_after_zero_grad():
    params = scalar_params()
    grads = params.zero_like_tensors()
    grads["mask_emb"] = np.array([1.0, 0.0])
    state = AdamState.for_params(params)
    adam_step(params, grads, state, TrainConfig())
    first = params.tensors["mask_emb"][0]
    adam_step(params, params.zero_like_tensors(), state, TrainConfig())
    # nonzero first moment keeps moving the parameter
    assert params.tensors["mask_emb"][0] != first


def test_adam_in_place_matches_out_of_place_formula():
    rng = np.random.default_rng(8)
    params = scalar_params()
    config = TrainConfig(learning_rate=3e-3)
    ref = {k: v.copy() for k, v in params.tensors.items()}
    ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
    ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
    state = AdamState.for_params(params)
    for step in range(1, 4):
        grads = {k: rng.normal(size=v.shape) for k, v in params.tensors.items()}
        before = {k: g.copy() for k, g in grads.items()}
        adam_step(params, grads, state, config)
        for name, g in grads.items():
            assert np.array_equal(g, before[name]), name  # grads are only read
        bc1 = 1.0 - ADAM_BETA1**step
        bc2 = 1.0 - ADAM_BETA2**step
        for name in ref:
            g = before[name]
            ref_m[name] = ADAM_BETA1 * ref_m[name] + (1.0 - ADAM_BETA1) * g
            ref_v[name] = ADAM_BETA2 * ref_v[name] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = ref_m[name] / bc1
            v_hat = ref_v[name] / bc2
            ref[name] = ref[name] - config.learning_rate * m_hat / (
                np.sqrt(v_hat) + ADAM_EPSILON
            )
    assert state.t == 3
    for name in ref:
        assert np.array_equal(params.tensors[name], ref[name]), name
        assert np.array_equal(state.m[name], ref_m[name]), name
        assert np.array_equal(state.v[name], ref_v[name]), name


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_smoke_finite_history():
    table, mask, stats, embedder = toy_setup(n_rows=50)
    config = TrainConfig(epochs=3, batch_size=16, seed=5, learning_rate=1e-3)
    result = train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)
    assert len(result.loss_history) == 3
    assert all(np.isfinite(loss) for loss in result.loss_history)
    assert result.loss_history[0] > 0.0


def test_train_deterministic_bitwise():
    table, mask, stats, embedder = toy_setup(n_rows=40)
    config = TrainConfig(epochs=2, batch_size=16, seed=9, learning_rate=1e-3)
    a = train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)
    b = train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)
    assert a.loss_history == b.loss_history
    for name in a.params.tensors:
        assert np.array_equal(a.params.tensors[name], b.params.tensors[name])


def test_train_loss_decreases_on_toy_data():
    table, mask, stats, embedder = toy_setup(n_rows=120, seed=3)
    config = TrainConfig(epochs=10, batch_size=32, seed=3, learning_rate=3e-3)
    result = train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)
    assert result.loss_history[-1] < result.loss_history[0]


def test_train_mlp_variant_updates_mlp_weights():
    table, mask, stats, embedder = toy_setup(n_rows=40, variant=EmbedderVariant.CLASSICAL_MLP)
    config = TrainConfig(epochs=2, batch_size=16, seed=4, learning_rate=1e-3)
    result = train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)
    assert result.params.with_mlp
    fresh = init_params(
        table.schema, stats, SMALL_MODEL, seed=4, mlp_d_in=embedder.d_in_max
    )
    assert not np.array_equal(result.params.tensors["mlp.w1"], fresh.tensors["mlp.w1"])


def test_train_leaves_attention_key_bias_exactly_zero():
    # q . bk shifts all scores of a query row alike, so its gradient is
    # exactly zero and Adam never moves it from its zero init.
    table, mask, stats, embedder = toy_setup(n_rows=40)
    model = ModelConfig(d_model=16, n_blocks=2, n_heads=2, d_ff=32, embed_dim=4)
    config = TrainConfig(epochs=2, batch_size=16, seed=6, learning_rate=1e-3)
    tensors = train(table, mask, table.schema, stats, embedder, model, config).params.tensors
    names = [name for name in tensors if name.endswith(".attn.bk")]
    assert names == ["block0.attn.bk", "block1.attn.bk"]
    for name in names:
        assert np.all(tensors[name] == 0.0), name
    assert np.any(tensors["block1.attn.bq"] != 0.0)


def test_train_rejects_category_outside_fitted_vocabulary():
    schema = DatasetSchema(
        (ColumnSpec("v", ColumnKind.NUMERIC), ColumnSpec("g", ColumnKind.CATEGORICAL))
    )
    stats = fit_preprocessor(Table(schema, [[0.0, "x"], [1.0, "x"]]), schema)
    table = Table(schema, [[0.2, "x"], [0.7, "y"], [0.9, "y"]])
    embedder = CellEmbedder(schema, stats, EmbedderVariant.QUANTUM_IQP, seed=1, n_qubits=4)
    no_mask = Mask(np.zeros((3, 2), dtype=bool))
    with pytest.raises(FitError, match=r"column 'g'.*'y' \(row 1\)"):
        train(table, no_mask, schema, stats, embedder, SMALL_MODEL, TrainConfig(epochs=1))
    # A held-out cell is never a target, so its category need not be known.
    held_out = np.zeros((3, 2), dtype=bool)
    held_out[1:, 1] = True
    train(table, Mask(held_out), schema, stats, embedder, SMALL_MODEL, TrainConfig(epochs=1))


def test_masking_hygiene_missing_cells_never_supervised(monkeypatch):
    table, mask, stats, embedder = toy_setup(n_rows=50, rate=0.35)
    full_missing = np.array(
        [[cell is None for cell in row] for row in table.rows]
    ) | mask.matrix

    captured = []
    original = training_module.loss_and_gradients

    def recording(params, batch):
        captured.append(batch)
        return original(params, batch)

    monkeypatch.setattr(training_module, "loss_and_gradients", recording)
    config = TrainConfig(epochs=2, batch_size=16, seed=7, learning_rate=1e-3)
    train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)

    # Need the global row ids: re-derive the shuffle order the loop used.
    from qimpute.rng import SHUFFLE, substream

    rng = substream(7, SHUFFLE)
    orders = [rng.permutation(table.n_rows) for _ in range(2)]
    i = 0
    for epoch in range(2):
        for start in range(0, table.n_rows, 16):
            rows = orders[epoch][start : start + 16]
            batch = captured[i]
            i += 1
            for br, col in zip(*np.nonzero(batch.supervised)):
                assert not full_missing[rows[br], col]
    assert i == len(captured)

    # The toy table has no text column; the synthetic one has two.
    data = synth_healthcare_generate(40, seed=3)
    stats = fit_preprocessor(data.table, data.schema)
    embedder = CellEmbedder(data.schema, stats, EmbedderVariant.QUANTUM_IQP, seed=3, n_qubits=4)
    n_toy = len(captured)
    config = TrainConfig(epochs=1, batch_size=16, seed=3, learning_rate=1e-3, mask_rate=0.5)
    train(data.table, inject_mcar(data.table, 0.2, seed=3), data.schema, stats, embedder,
          SMALL_MODEL, config)
    text = list(data.schema.indices_of(ColumnKind.TEXT))
    assert len(captured) > n_toy and text
    for batch in captured:
        assert not (batch.supervised & ~batch.token_masked).any()  # no target is visible
    for batch in captured[n_toy:]:
        assert not batch.supervised[:, text].any()


def test_blocks_see_only_rows_with_a_query(monkeypatch):
    # Training queries are the supervised cells, imputation queries the
    # missing non-text cells; the blocks must never see any other row.
    table, mask, stats, embedder = toy_setup(n_rows=50, rate=0.1)
    n_cols = table.schema.n_columns
    scored = np.array([spec.kind != ColumnKind.TEXT for spec in table.schema.columns])
    steps = []  # (live rows, batch rows, block calls)

    def expecting(step, live_rows):
        def wrapped(params, batch):
            steps.append((live_rows(batch), batch.n_rows, []))
            return step(params, batch)

        return wrapped

    original_block = model_module._block_forward

    def guard(t, p, x_in, shape, cfg, store, keep):
        steps[-1][2].append((shape, x_in.shape[0]))
        return original_block(t, p, x_in, shape, cfg, store, keep)

    def supervised_rows(batch):
        return int(batch.supervised.any(axis=1).sum())

    def rows_with_masked_scored_cell(batch):
        return int((batch.token_masked & scored).any(axis=1).sum())

    monkeypatch.setattr(model_module, "_block_forward", guard)
    monkeypatch.setattr(
        training_module,
        "loss_and_gradients",
        expecting(training_module.loss_and_gradients, supervised_rows),
    )
    monkeypatch.setattr(
        training_module,
        "predict_masked",
        expecting(training_module.predict_masked, rows_with_masked_scored_cell),
    )
    model = ModelConfig(d_model=16, n_blocks=2, n_heads=2, d_ff=32, embed_dim=4)
    config = TrainConfig(epochs=2, batch_size=16, seed=8, learning_rate=1e-3, mask_rate=0.05)
    result = train(table, mask, table.schema, stats, embedder, model, config)
    n_train = len(steps)
    monkeypatch.setattr(training_module, "_IMPUTE_BLOCK_ROWS", 16)
    impute_table(table, mask, table.schema, stats, embedder, result.params)
    assert n_train == 8 and len(steps) == 12
    for live, _, blocks in steps:
        assert blocks == [((live, n_cols), live * n_cols)] * 2
    assert any(live < n_rows for live, n_rows, _ in steps[:n_train])
    assert any(live < n_rows for live, n_rows, _ in steps[n_train:])


def test_empty_batches_are_counted_warned_once_and_leave_params(caplog):
    # At a vanishing mask rate no batch draws a target: every step reaches
    # the blocks with zero rows, its loss is 0 and every gradient exactly 0,
    # so Adam leaves the parameters at their init.
    table, mask, stats, embedder = toy_setup(n_rows=40)
    config = TrainConfig(epochs=3, batch_size=16, seed=2, learning_rate=1e-3, mask_rate=1e-12)
    with caplog.at_level(logging.WARNING, logger="qimpute.training"):
        result = train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)
    assert result.empty_batches == 9
    assert result.loss_history == [0.0, 0.0, 0.0]
    warnings = [r for r in caplog.records if "no supervision targets" in r.getMessage()]
    assert len(warnings) == 1
    fresh = init_params(table.schema, stats, SMALL_MODEL, seed=2)
    for name, tensor in result.params.tensors.items():
        assert np.array_equal(tensor, fresh.tensors[name]), name


def test_training_diverged_error(monkeypatch):
    table, mask, stats, embedder = toy_setup(n_rows=30)

    def exploding(params, batch):
        return (
            LossBreakdown(float("nan"), float("nan"), 0.0, 1, 0),
            params.zero_like_tensors(),
        )

    monkeypatch.setattr(training_module, "loss_and_gradients", exploding)
    config = TrainConfig(epochs=1, batch_size=16, seed=1)
    with pytest.raises(TrainingDiverged, match="learning rate"):
        train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mask_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


@pytest.mark.parametrize(
    "field",
    ["learning_rate", "mask_rate", "numeric_loss_weight", "categorical_loss_weight"],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: bad})


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


def trained_toy(seed=5, epochs=4):
    table, mask, stats, embedder = toy_setup(n_rows=60, seed=seed)
    config = TrainConfig(epochs=epochs, batch_size=16, seed=seed, learning_rate=1e-3)
    result = train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config)
    return table, mask, stats, embedder, result.params


def test_impute_no_missing_is_identity():
    table, mask, stats, embedder, params = trained_toy()
    empty = Mask(np.zeros((table.n_rows, table.schema.n_columns), dtype=bool))
    out = impute_table(table, empty, table.schema, stats, embedder, params)
    # cells that were observed in the table remain identical; the toy table
    # has no native missing cells so everything should match
    assert out.content_hash() == table.content_hash()


def test_impute_fills_all_masked_cells_within_bounds():
    table, mask, stats, embedder, params = trained_toy()
    out = impute_table(table, mask, table.schema, stats, embedder, params)
    for r in range(table.n_rows):
        for c in range(table.schema.n_columns):
            assert out.rows[r][c] is not None
            if not mask.matrix[r, c]:
                assert out.rows[r][c] == table.rows[r][c]
    for j in table.schema.indices_of(ColumnKind.NUMERIC):
        col = stats.for_column(table.schema.columns[j].name)
        span = col.vmax - col.vmin
        for r in np.flatnonzero(mask.matrix[:, j]):
            v = out.rows[r][j]
            assert col.vmin - 0.1 * span <= v <= col.vmax + 0.1 * span


def test_impute_all_missing_categorical_column_stays_in_vocab():
    table, _, stats, embedder, params = trained_toy()
    level = table.schema.index("level")
    matrix = np.zeros((table.n_rows, table.schema.n_columns), dtype=bool)
    matrix[:, level] = True
    out = impute_table(table, Mask(matrix), table.schema, stats, embedder, params)
    vocab = set(stats.for_column("level").vocabulary)
    assert all(row[level] in vocab for row in out.rows)


def test_impute_deterministic():
    table, mask, stats, embedder, params = trained_toy()
    a = impute_table(table, mask, table.schema, stats, embedder, params)
    b = impute_table(table, mask, table.schema, stats, embedder, params)
    assert a.content_hash() == b.content_hash()


def synthetic_setup(n_rows, seed=3, epochs=1):
    """A synthetic table with 20% MCAR, its quantum embedder, and a model trained ``epochs``."""
    data = synth_healthcare_generate(n_rows, seed)
    table, schema = data.table, data.schema
    mask = inject_mcar(table, 0.2, seed=seed)
    stats = fit_preprocessor(table, schema)
    embedder = CellEmbedder(schema, stats, EmbedderVariant.QUANTUM_IQP, seed=seed, n_qubits=8)
    if epochs:
        config = TrainConfig(epochs=epochs, seed=seed, learning_rate=1e-3)
        params = train(table, mask, schema, stats, embedder, ModelConfig(), config).params
    else:
        params = init_params(schema, stats, ModelConfig(), seed=seed)
    return table, mask, stats, embedder, params


def test_impute_block_size_changes_no_output(monkeypatch):
    table, mask, stats, embedder, params = synthetic_setup(300)
    hashes = {}
    for rows in (1, 7, 64, 256):
        monkeypatch.setattr(training_module, "_IMPUTE_BLOCK_ROWS", rows)
        hashes[rows] = impute_table(
            table, mask, table.schema, stats, embedder, params
        ).content_hash()
    assert len(set(hashes.values())) == 1, hashes


def test_impute_memory_is_bounded_by_its_row_blocks():
    # A block's attention arrays set the peak: 256-row blocks reached 28 MB
    # here, the default 64-row blocks stay near 8 MB.
    table, mask, stats, embedder, params = synthetic_setup(1000, epochs=0)
    tracemalloc.start()
    try:
        impute_table(table, mask, table.schema, stats, embedder, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"impute_table peaked at {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("what", ["stats", "schema"])
def test_train_and_impute_reject_a_schema_or_stats_not_the_embedders(what):
    # Stats refit on five other rows would rescale every numeric fill without
    # an error; the model reads its inputs only through its embedder's own.
    table, mask, stats, embedder, params = trained_toy(epochs=1)
    schema = table.schema
    if what == "stats":
        stats = fit_preprocessor(make_toy_table(n_rows=5, seed=9), schema)
    else:
        schema = DatasetSchema(schema.columns[::-1], name=schema.name)
    config = TrainConfig(epochs=1, batch_size=16, seed=5, learning_rate=1e-3)
    with pytest.raises(ContractViolation, match="embedder's own"):
        impute_table(table, mask, schema, stats, embedder, params)
    with pytest.raises(ContractViolation, match="embedder's own"):
        train(table, mask, schema, stats, embedder, SMALL_MODEL, config)


@pytest.fixture(scope="module")
def trained_one_epoch():
    return trained_toy(epochs=1)


@pytest.mark.parametrize("shape", ["(1, C)", "(n, 1)", "(n + 1, C)"])
@pytest.mark.parametrize(
    "entry",
    ["embed_table", "train", "impute_table", "mean_mode", "knn", "iterative_ridge",
     "apply_mask", "rmse_numeric", "macro_f1_categorical", "rmse_raw_per_column"],
)
def test_a_mask_of_another_shape_than_the_table_is_rejected(trained_one_epoch, shape, entry):
    # Broadcast over the table, a (1, C) mask holding column 0 would hold
    # out all of column 0, impute_table would overwrite its observed cells,
    # and a metric would score the wrong cells.
    table, _, stats, embedder, params = trained_one_epoch
    n, c = table.n_rows, table.schema.n_columns
    matrix = np.zeros({"(1, C)": (1, c), "(n, 1)": (n, 1), "(n + 1, C)": (n + 1, c)}[shape])
    matrix[:, 0] = 1
    mask, schema = Mask(matrix), table.schema
    config = TrainConfig(epochs=1, batch_size=16, seed=5, learning_rate=1e-3)
    calls = {
        "embed_table": lambda: embedder.embed_table(table, mask),
        "train": lambda: train(table, mask, schema, stats, embedder, SMALL_MODEL, config),
        "impute_table": lambda: impute_table(table, mask, schema, stats, embedder, params),
        "mean_mode": lambda: mean_mode_impute(table, mask),
        "knn": lambda: knn_impute(table, mask, k=3),
        "iterative_ridge": lambda: iterative_ridge_impute(table, mask, BaselineConfig()),
        "apply_mask": lambda: apply_mask(table, mask),
        "rmse_numeric": lambda: rmse_numeric(table, table, mask, stats),
        "macro_f1_categorical": lambda: macro_f1_categorical(table, table, mask),
        "rmse_raw_per_column": lambda: rmse_raw_per_column(table, table, mask),
    }
    message = f"mask has shape {matrix.shape}, the table has shape {(n, c)}"
    with pytest.raises(ContractViolation, match=re.escape(message)):
        calls[entry]()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def toy_checkpoint(tmp_path, embedder, params):
    """Save a toy model as ``tmp_path / "model.npz"`` and return that path."""
    path = tmp_path / "model.npz"
    save_checkpoint(path, CheckpointBundle(params=params, embedder=embedder))
    return path


def rewrite_checkpoint(path, edit):
    """Apply ``edit(meta, arrays)`` to a saved checkpoint and write it back."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(str(arrays["__checkpoint_meta__"]))
    edit(meta, arrays)
    arrays["__checkpoint_meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def test_checkpoint_round_trip(tmp_path):
    table, mask, stats, embedder, params = trained_toy()
    path = toy_checkpoint(tmp_path, embedder, params)
    loaded = load_checkpoint(path, expected_schema=table.schema)
    for name in params.tensors:
        assert np.array_equal(loaded.params.tensors[name], params.tensors[name])
    assert loaded.embedder.variant == embedder.variant
    assert loaded.embedder.schema == table.schema

    again = impute_table(
        table, mask, table.schema, loaded.embedder.stats, loaded.embedder, loaded.params
    )
    direct = impute_table(table, mask, table.schema, stats, embedder, params)
    assert again.content_hash() == direct.content_hash()


def test_checkpoint_round_trip_carries_the_embedder(tmp_path):
    table, mask, stats, embedder, params = trained_toy(epochs=1)
    loaded = load_checkpoint(toy_checkpoint(tmp_path, embedder, params)).embedder
    assert (loaded.variant, loaded.seed, loaded.n_layers) == (
        embedder.variant, embedder.seed, embedder.n_layers
    )
    assert loaded.n_qubits == params.config.embed_dim
    assert loaded.stats.per_column.keys() == stats.per_column.keys()
    for name, column in stats.per_column.items():
        assert type(loaded.stats.for_column(name)) is type(column)
        for field, value in vars(column).items():
            assert np.array_equal(getattr(loaded.stats.for_column(name), field), value)


def text_override_setup(seed=3):
    """A synthetic table whose triage notes have precomputed vectors, and a model trained on it."""
    data = synth_healthcare_generate(40, seed)
    table, schema = data.table, data.schema
    notes = table.column(schema.index("triage_note"), range(table.n_rows))
    rng = np.random.default_rng(seed)
    distinct = sorted(set(notes) - {None})
    overrides = TextEmbeddings(
        dim=3, vectors={("triage_note", note): rng.normal(size=3) for note in distinct}
    )
    mask = inject_mcar(table, 0.2, seed=seed)
    stats = fit_preprocessor(table, schema, text_embeddings=overrides)
    embedder = CellEmbedder(schema, stats, EmbedderVariant.QUANTUM_IQP, seed=seed, n_qubits=4)
    config = TrainConfig(epochs=1, batch_size=16, seed=seed, learning_rate=1e-3)
    params = train(table, mask, schema, stats, embedder, SMALL_MODEL, config).params
    return table, mask, stats, embedder, params


def test_text_overrides_follow_their_text_on_a_row_permuted_table():
    table, mask, stats, embedder, params = text_override_setup()
    order = np.random.default_rng(0).permutation(table.n_rows)
    permuted = Table(table.schema, [list(table.rows[r]) for r in order])
    permuted_mask = Mask(mask.matrix[order])
    assert embedder.embed_table(permuted, permuted_mask).tobytes() == (
        embedder.embed_table(table, mask)[order].tobytes()
    )
    imputed = impute_table(table, mask, table.schema, stats, embedder, params)
    again = impute_table(permuted, permuted_mask, table.schema, stats, embedder, params)
    expected = Table(table.schema, [imputed.rows[r] for r in order])
    assert again.content_hash() == expected.content_hash()


def test_checkpoint_keeps_the_precomputed_text_vectors(tmp_path):
    table, mask, stats, embedder, params = text_override_setup()
    loaded = load_checkpoint(toy_checkpoint(tmp_path, embedder, params)).embedder
    vectors = stats.for_column("triage_note").vectors
    loaded_vectors = loaded.stats.for_column("triage_note").vectors
    assert list(loaded_vectors) == list(vectors)
    for text, vec in vectors.items():
        assert loaded_vectors[text].tobytes() == vec.tobytes()
    assert loaded.stats.for_column("nursing_note").vectors == {}
    assert loaded.embed_table(table, mask).tobytes() == embedder.embed_table(table, mask).tobytes()


def test_checkpoint_schema_mismatch(tmp_path):
    table, mask, stats, embedder, params = trained_toy()
    path = toy_checkpoint(tmp_path, embedder, params)
    other = DatasetSchema(
        (ColumnSpec("different", ColumnKind.NUMERIC),), name="other"
    )
    with pytest.raises(CheckpointError, match="schema"):
        load_checkpoint(path, expected_schema=other)


@pytest.mark.parametrize(
    "name,value,message",
    [
        ("in_proj.w", np.zeros((3, 16)), r"'in_proj.w' is \(3, 16\), expected shape \(4, 16\)"),
        ("mask_emb", None, "'mask_emb' is missing"),
        ("bogus", np.zeros(2), "unexpected tensor 'bogus'"),
    ],
    ids=["wrong_shape", "missing", "extra"],
)
def test_checkpoint_rejects_mismatched_tensors(tmp_path, name, value, message):
    table, mask, stats, embedder, params = trained_toy(epochs=1)
    path = toy_checkpoint(tmp_path, embedder, params)

    def tamper(meta, arrays):
        if value is None:
            del arrays[f"tensor/{name}"]
        else:
            arrays[f"tensor/{name}"] = value

    rewrite_checkpoint(path, tamper)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_stores_nothing_derivable(tmp_path):
    table, mask, stats, embedder, params = trained_toy(epochs=1)
    path = toy_checkpoint(tmp_path, embedder, params)
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["__checkpoint_meta__"]))
    assert sorted(meta) == ["embedder", "format_version", "model_config", "schema", "stats"]
    assert sorted(meta["embedder"]) == ["n_layers", "seed", "variant"]


def test_checkpoint_ignores_the_derived_fields_older_files_stored(tmp_path):
    # Older files also stored the heads, the MLP input width, the qubit count
    # and the text width. A stale copy must not matter: here the heads rename
    # a column that has held-out cells to impute.
    table, mask, stats, embedder, params = trained_toy(epochs=1)
    clean = toy_checkpoint(tmp_path, embedder, params)
    legacy = shutil.copy(clean, tmp_path / "legacy.npz")
    numeric = table.schema.indices_of(ColumnKind.NUMERIC)
    renamed = next(j for j in numeric if mask.matrix[:, j].any())

    def add_legacy_fields(meta, arrays):
        meta["columns"] = [
            [
                "renamed" if j == renamed else spec.name,
                spec.kind.value,
                list(stats.for_column(spec.name).vocabulary)
                if spec.kind == ColumnKind.CATEGORICAL else None,
            ]
            for j, spec in enumerate(table.schema.columns)
        ]
        meta["mlp_d_in"] = 0
        meta["embedder"].update(n_qubits=embedder.n_qubits, text_dim=16)

    rewrite_checkpoint(legacy, add_legacy_fields)
    hashes = []
    for path in (clean, legacy):
        bundle = load_checkpoint(path, expected_schema=table.schema)
        imputed = impute_table(
            table, mask, table.schema, bundle.embedder.stats, bundle.embedder, bundle.params
        )
        hashes.append(imputed.content_hash())
    assert hashes[0] == hashes[1]


def test_classical_mlp_checkpoint_without_mlp_tensors_fails_at_load(tmp_path):
    table, mask, stats, embedder = toy_setup(n_rows=40, variant=EmbedderVariant.CLASSICAL_MLP)
    config = TrainConfig(epochs=1, batch_size=16, seed=4, learning_rate=1e-3)
    params = train(table, mask, table.schema, stats, embedder, SMALL_MODEL, config).params
    path = toy_checkpoint(tmp_path, embedder, params)

    def drop_mlp(meta, arrays):
        # An older file's own MLP width agreed with its tensors; the variant decides.
        meta["mlp_d_in"] = 0
        for name in [k for k in arrays if k.startswith("tensor/mlp.")]:
            del arrays[name]

    rewrite_checkpoint(path, drop_mlp)
    with pytest.raises(CheckpointError, match="'mlp.w1' is missing"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda meta: meta.pop("stats"), r"KeyError: 'stats'\)"),
        (lambda meta: meta["model_config"].update(bogus=1), "unexpected keyword argument 'bogus'"),
        (lambda meta: meta["model_config"].update(d_model=0), "d_model must be >= 1"),
        (lambda meta: meta.update(extra=1), "unknown key 'extra' in the metadata"),
        (lambda meta: meta["embedder"].update(variant="bogus"), "'bogus' is not a valid"),
        (lambda meta: meta["embedder"].pop("n_layers"), r"KeyError: 'n_layers'\)"),
        (lambda meta: meta["stats"].pop("x1"), r"KeyError: 'x1'\)"),
    ],
    ids=["no_stats", "unknown_config_key", "bad_config_value", "unknown_key", "bad_variant",
         "no_n_layers", "no_column_stats"],
)
def test_checkpoint_with_malformed_metadata_is_a_checkpoint_error(tmp_path, edit, message):
    table, mask, stats, embedder, params = trained_toy(epochs=1)
    path = toy_checkpoint(tmp_path, embedder, params)
    rewrite_checkpoint(path, lambda meta, arrays: edit(meta))
    prefix = re.escape(f"{path}: malformed checkpoint metadata (")
    with pytest.raises(CheckpointError, match=prefix + ".*" + message):
        load_checkpoint(path)
