"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The ablation criterion
trains fifteen models and dominates the runtime; everything else finishes
in seconds.
"""

import math
import time

import numpy as np
import pytest

from qimpute.baselines import BaselineConfig, iterative_ridge_impute, mean_mode_impute
from qimpute.datasets import make_toy_table, synth_healthcare_generate
from qimpute.encoding import CellEmbedder, EmbedderVariant, fit_preprocessor
from qimpute.experiment import (
    ExperimentConfig,
    ablation_suite,
    run_experiment,
)
from qimpute.metrics import macro_f1_categorical, rmse_numeric
from qimpute.model import (
    Batch,
    ModelConfig,
    init_params,
    loss_and_gradients,
    loss_value,
)
from qimpute.quantum import (
    IqpParams,
    circuit_state,
    iqp_embed,
    n_pair_angles,
    oracle_apply,
)
from qimpute.tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    apply_mask,
    inject_mcar,
)
from qimpute.training import TrainConfig, train


def _report(num, name, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[ACCEPTANCE] criterion {num:02d} PASS: {name}{suffix}")


# ---------------------------------------------------------------------------
# 1. quantum simulator oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_01_simulator_matches_dense_oracle():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for n_layers in (1, 2, 3):
            rng = np.random.default_rng(9000 + 10 * n + n_layers)
            for _ in range(100):
                params = IqpParams(
                    n_qubits=n,
                    n_layers=n_layers,
                    singles=rng.uniform(-np.pi, np.pi, size=(n_layers, n)),
                    pairs=rng.uniform(-np.pi, np.pi, size=(n_layers, n_pair_angles(n))),
                )
                fast = circuit_state(params).amplitudes
                dense = oracle_apply(params).amplitudes
                gap = float(np.max(np.abs(fast - dense)))
                worst = max(worst, gap)
                assert gap < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, "fast simulator matches dense oracle",
            f"n 1..6, L 1..3, 100 draws each; worst gap {worst:.2e}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. closed-form single-qubit sweep
# ---------------------------------------------------------------------------


def test_criterion_02_single_qubit_closed_form():
    worst = 0.0
    for theta in np.linspace(0.0, np.pi, 50):
        params = IqpParams(1, 1, np.array([[theta]]), np.zeros((1, 0)))
        err = abs(iqp_embed(params).values[0] - math.cos(2.0 * theta))
        worst = max(worst, err)
        assert err < 1e-9
    _report(2, "single-qubit <Z> equals cos(2 theta)", f"50-point sweep, worst {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. zero-angle identity at the default configuration
# ---------------------------------------------------------------------------


def test_criterion_03_zero_angles_identity_n8_l2():
    params = IqpParams(8, 2, np.zeros((2, 8)), np.zeros((2, 28)))
    values = iqp_embed(params).values
    worst = float(np.max(np.abs(values - 1.0)))
    assert worst <= 1e-12
    _report(3, "all-zero angles give <Z_i> = 1 at n=8, L=2", f"worst deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. gradient correctness on a tiny imputer
# ---------------------------------------------------------------------------

TINY_SCHEMA = DatasetSchema(
    (
        ColumnSpec("n1", ColumnKind.NUMERIC),
        ColumnSpec("n2", ColumnKind.NUMERIC),
        ColumnSpec("c1", ColumnKind.CATEGORICAL),
        ColumnSpec("c2", ColumnKind.CATEGORICAL),
    ),
    name="tiny",
)


def test_criterion_04_gradients_match_finite_differences():
    table = Table(
        TINY_SCHEMA,
        [[0.0, 1.0, "a", "x"], [1.0, 2.0, "b", "y"], [0.5, 3.0, "a", "z"]],
    )
    stats = fit_preprocessor(table, TINY_SCHEMA)
    config = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, embed_dim=4)
    params = init_params(TINY_SCHEMA, stats, config, seed=31, mlp_d_in=6)
    rng = np.random.default_rng(31)
    token_masked = np.zeros((3, 4), dtype=bool)
    token_masked[0, 0] = token_masked[1, 2] = token_masked[2, 3] = True
    xc = rng.normal(size=(3, 4, 6))
    xc[token_masked] = 0.0
    supervised = np.zeros((3, 4), dtype=bool)
    supervised[0, 0] = supervised[1, 2] = True
    numeric_targets = np.zeros((3, 4))
    numeric_targets[0, 0] = 0.6
    categorical_targets = np.zeros((3, 4), dtype=int)
    categorical_targets[1, 2] = 1
    batch = Batch(
        token_masked=token_masked,
        features=xc,
        supervised=supervised,
        numeric_targets=numeric_targets,
        categorical_targets=categorical_targets,
    )
    _, grads = loss_and_gradients(params, batch)

    h, rtol = 1e-5, 1e-4
    worst = 0.0
    checked = 0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        grad_flat = np.asarray(grads[name]).reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            up = loss_value(params, batch).total
            flat[idx] = original - h
            down = loss_value(params, batch).total
            flat[idx] = original
            fd = (up - down) / (2.0 * h)
            analytic = grad_flat[idx]
            denom = max(abs(fd), abs(analytic))
            checked += 1
            if denom > 1e-6:
                err = abs(fd - analytic) / denom
                worst = max(worst, err)
                assert err < rtol, f"{name}[{idx}]"
            else:
                assert abs(fd - analytic) < 1e-8, f"{name}[{idx}]"
    _report(4, "analytic gradients match central finite differences",
            f"{checked} entries over {len(params.tensors)} tensors, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. training sanity on the separable toy dataset
# ---------------------------------------------------------------------------


def test_criterion_05_training_halves_loss_on_toy_data():
    start = time.perf_counter()
    table = make_toy_table(n_rows=200, seed=0)
    mask = inject_mcar(table, 0.2, seed=0)
    working = apply_mask(table, mask)
    stats = fit_preprocessor(working, table.schema)
    embedder = CellEmbedder(
        table.schema, stats, EmbedderVariant.QUANTUM_IQP, seed=0, n_qubits=8, n_layers=2
    )
    empty = Mask(np.zeros(mask.matrix.shape, dtype=bool))
    result = train(
        working, empty, table.schema, stats, embedder, ModelConfig(),
        TrainConfig(epochs=30, batch_size=32, learning_rate=1e-3, seed=0),
    )
    elapsed = time.perf_counter() - start
    first, last = result.loss_history[0], result.loss_history[-1]
    assert last <= 0.5 * first
    assert elapsed < 120.0
    _report(5, "final-epoch loss is at most half the first epoch's",
            f"{first:.4f} -> {last:.4f} over 30 epochs in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. metric oracles
# ---------------------------------------------------------------------------


def test_criterion_06_metric_hand_values():
    num_schema = DatasetSchema((ColumnSpec("v", ColumnKind.NUMERIC),))
    stats = fit_preprocessor(Table(num_schema, [[0.0], [1.0]]), num_schema)
    truth = Table(num_schema, [[0.0], [0.0]])
    imputed = Table(num_schema, [[0.3], [0.4]])
    mask = Mask(np.array([[True], [True]]))
    rmse = rmse_numeric(imputed, truth, mask, stats)
    assert abs(rmse - math.sqrt((0.09 + 0.16) / 2.0)) < 1e-12

    cat_schema = DatasetSchema((ColumnSpec("g", ColumnKind.CATEGORICAL),))
    truth_cat = Table(cat_schema, [["a"], ["a"], ["b"], ["b"]])
    pred_cat = Table(cat_schema, [["a"], ["b"], ["b"], ["b"]])
    mask_cat = Mask(np.full((4, 1), True))
    f1 = macro_f1_categorical(pred_cat, truth_cat, mask_cat)
    assert abs(f1 - 11.0 / 15.0) < 1e-12
    _report(6, "RMSE and macro F1 reproduce the hand-computed examples",
            f"rmse {rmse:.6f}, macro F1 {f1:.6f} = 11/15")


# ---------------------------------------------------------------------------
# 7. baseline oracles
# ---------------------------------------------------------------------------


def test_criterion_07_baseline_hand_values():
    # Mean imputation on a fixed 6-cell column: observed {0,2,4,6}, masked
    # truths {8,10}; fitted range [0,6]; hand value sqrt(37)/6.
    schema = DatasetSchema((ColumnSpec("v", ColumnKind.NUMERIC),))
    table = Table(schema, [[0.0], [2.0], [4.0], [6.0], [8.0], [10.0]])
    mask = Mask(np.array([[False], [False], [False], [False], [True], [True]]))
    working = apply_mask(table, mask)
    stats = fit_preprocessor(working, schema)
    imputed = mean_mode_impute(working, Mask(np.zeros((6, 1), dtype=bool)))
    assert imputed.rows[4][0] == 3.0 and imputed.rows[5][0] == 3.0
    rmse = rmse_numeric(imputed, table, mask, stats)
    assert abs(rmse - math.sqrt(37.0) / 6.0) < 1e-12

    # Iterative ridge recovers the collinear relation y = 2x at tiny lambda.
    two = DatasetSchema(
        (ColumnSpec("x", ColumnKind.NUMERIC), ColumnSpec("y", ColumnKind.NUMERIC))
    )
    xs = np.linspace(0.0, 1.0, 100)
    rows = [[float(x), float(2.0 * x)] for x in xs]
    rows[30][1] = None
    ridge_table = Table(two, rows)
    out = iterative_ridge_impute(
        ridge_table,
        Mask(np.zeros((100, 2), dtype=bool)),
        BaselineConfig(ridge_lambda=1e-6),
    )
    ridge_err = abs(out.rows[30][1] - 2.0 * xs[30])
    assert ridge_err < 1e-6
    _report(7, "mean-imputation RMSE and collinear ridge recovery match hand values",
            f"rmse sqrt(37)/6, ridge error {ridge_err:.2e}")


# ---------------------------------------------------------------------------
# 8. MCAR protocol fidelity
# ---------------------------------------------------------------------------


def test_criterion_08_mcar_binomial_bound():
    data = synth_healthcare_generate(1000, seed=0)
    eligible = 0
    schema = data.schema
    text_cols = set(schema.indices_of(ColumnKind.TEXT))
    for row in data.table.rows:
        for c, v in enumerate(row):
            if c not in text_cols and v is not None:
                eligible += 1
    assert eligible >= 10_000
    p = 0.2
    sigma = math.sqrt(eligible * p * (1 - p))
    counts = []
    for seed in range(5):
        count = inject_mcar(data.table, p, seed=seed).count
        counts.append(count)
        assert abs(count - eligible * p) <= 3.0 * sigma
    _report(8, "MCAR mask counts within 3 binomial sigma per seed",
            f"{eligible} eligible cells, expected {eligible * p:.0f}, got {counts}")


# ---------------------------------------------------------------------------
# 9. MNAR rule fidelity
# ---------------------------------------------------------------------------


def test_criterion_09_mnar_rule():
    data = synth_healthcare_generate(2000, seed=4)
    diag = data.schema.index("diagnosis")
    bp = data.schema.index("blood_pressure")
    stable = 0
    for row in data.table.rows:
        if row[diag] == "stable":
            stable += 1
            assert row[bp] is None
    assert stable > 0
    _report(9, "every stable-diagnosis row has blood pressure missing",
            f"{stable} stable rows of 2000")


# ---------------------------------------------------------------------------
# 10. ablation ordering
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_ablation_ordering():
    start = time.perf_counter()
    config = ExperimentConfig(
        dataset_kind="synthetic",
        n_rows=1000,
        missing_rate=0.2,
        methods=("quantum_iqp",),  # replaced by the ablation variants
        seeds=(0, 1, 2, 3, 4),
        model=ModelConfig(),
        train=TrainConfig(epochs=30, batch_size=32, learning_rate=1e-3),
        n_layers=2,
        threads=2,
    )
    report = ablation_suite(config)
    per = {r.method: r.per_seed for r in report.results}
    rmse_wins = 0
    f1_wins = 0
    mlp_rmse_wins = 0
    lines = []
    for idx, seed in enumerate(config.seeds):
        quantum = per["quantum_iqp"][idx]
        randproj = per["random_projection"][idx]
        mlp = per["classical_mlp"][idx]
        assert quantum.error is None and randproj.error is None and mlp.error is None
        rmse_wins += quantum.rmse <= randproj.rmse
        f1_wins += quantum.macro_f1 >= randproj.macro_f1
        mlp_rmse_wins += quantum.rmse <= mlp.rmse
        lines.append(
            f"seed {seed}: quantum rmse {quantum.rmse:.4f} f1 {quantum.macro_f1:.4f} | "
            f"randproj rmse {randproj.rmse:.4f} f1 {randproj.macro_f1:.4f} | "
            f"mlp rmse {mlp.rmse:.4f} f1 {mlp.macro_f1:.4f}"
        )
    elapsed = time.perf_counter() - start
    print()
    for line in lines:
        print("  " + line)
    # Reported but not gating: quantum vs classical MLP ordering.
    print(f"  quantum beats classical_mlp on RMSE in {mlp_rmse_wins}/5 seeds (not gating)")
    print(f"  ordering tally: rmse {rmse_wins}/5, macro F1 {f1_wins}/5 (both must reach 4/5)")
    if rmse_wins < 4 or f1_wins < 4:
        print(
            "  note: with a trained input projection in front of every variant, any\n"
            "  information-preserving fixed embedding is adapted away during training,\n"
            "  so at this scale the two variants measure as statistically tied; the\n"
            "  per-seed deltas above are the honest outcome of this run."
        )
    assert elapsed < 1800.0, f"ablation took {elapsed:.0f}s"
    assert rmse_wins >= 4, f"quantum RMSE <= random projection in only {rmse_wins}/5 seeds"
    assert f1_wins >= 4, f"quantum macro F1 >= random projection in only {f1_wins}/5 seeds"
    _report(10, "quantum beats random projection in at least 4 of 5 seeds",
            f"rmse {rmse_wins}/5, f1 {f1_wins}/5, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11. end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_11_byte_identical_reports(tmp_path):
    config = ExperimentConfig(
        dataset_kind="synthetic",
        n_rows=60,
        missing_rate=0.2,
        methods=("mean_mode", "knn", "quantum_iqp"),
        seeds=(0, 1),
        model=ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, embed_dim=4),
        train=TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3),
    )
    run_experiment(config, out_dir=tmp_path / "first")
    run_experiment(config, out_dir=tmp_path / "second")
    first = (tmp_path / "first" / "report.json").read_bytes()
    second = (tmp_path / "second" / "report.json").read_bytes()
    assert first == second
    _report(11, "identical configs produce byte-identical reports",
            f"{len(first)} bytes compared")
