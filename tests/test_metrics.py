"""Tests for RMSE and macro F1, including brute-force oracle agreement."""

import math
import re

import numpy as np
import pytest

from qimpute.encoding import fit_preprocessor
from qimpute.errors import ContractViolation
from qimpute.metrics import macro_f1_categorical, rmse_numeric, rmse_raw_per_column
from qimpute.tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
)

NUM_SCHEMA = DatasetSchema((ColumnSpec("v", ColumnKind.NUMERIC),))
CAT_SCHEMA = DatasetSchema((ColumnSpec("g", ColumnKind.CATEGORICAL),))


def mask_for(schema, flags):
    return Mask(np.array(flags, dtype=bool))


def stats_minmax(vmin, vmax):
    table = Table(NUM_SCHEMA, [[float(vmin)], [float(vmax)]])
    return fit_preprocessor(table, NUM_SCHEMA)


# ---------------------------------------------------------------------------
# RMSE
# ---------------------------------------------------------------------------


def test_rmse_perfect_imputation_is_zero():
    truth = Table(NUM_SCHEMA, [[0.4], [0.9]])
    imputed = Table(NUM_SCHEMA, [[0.4], [0.9]])
    value = rmse_numeric(imputed, truth, mask_for(NUM_SCHEMA, [[True], [True]]), stats_minmax(0, 1))
    assert value == 0.0


def test_rmse_single_cell():
    truth = Table(NUM_SCHEMA, [[0.5]])
    imputed = Table(NUM_SCHEMA, [[0.8]])
    value = rmse_numeric(imputed, truth, mask_for(NUM_SCHEMA, [[True]]), stats_minmax(0, 1))
    assert value == pytest.approx(0.3, abs=1e-12)


def test_rmse_two_cells_hand_value():
    truth = Table(NUM_SCHEMA, [[0.0], [0.0]])
    imputed = Table(NUM_SCHEMA, [[0.3], [0.4]])
    value = rmse_numeric(
        imputed, truth, mask_for(NUM_SCHEMA, [[True], [True]]), stats_minmax(0, 1)
    )
    assert value == pytest.approx(math.sqrt((0.09 + 0.16) / 2.0), abs=1e-12)
    assert value == pytest.approx(0.35355339059327373, abs=1e-12)


def test_rmse_no_masked_cells_is_absent():
    truth = Table(NUM_SCHEMA, [[0.5]])
    imputed = Table(NUM_SCHEMA, [[0.5]])
    assert rmse_numeric(imputed, truth, mask_for(NUM_SCHEMA, [[False]]), stats_minmax(0, 1)) is None


def test_rmse_skips_cells_without_truth():
    truth = Table(NUM_SCHEMA, [[None], [0.5]])
    imputed = Table(NUM_SCHEMA, [[0.9], [0.7]])
    value = rmse_numeric(
        imputed, truth, mask_for(NUM_SCHEMA, [[True], [True]]), stats_minmax(0, 1)
    )
    assert value == pytest.approx(0.2, abs=1e-12)


def test_rmse_uses_fitted_normalization():
    stats = stats_minmax(0.0, 50.0)
    truth = Table(NUM_SCHEMA, [[50.0]])
    imputed = Table(NUM_SCHEMA, [[25.0]])
    value = rmse_numeric(imputed, truth, mask_for(NUM_SCHEMA, [[True]]), stats)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_rmse_raw_per_column():
    truth = Table(NUM_SCHEMA, [[10.0], [20.0]])
    imputed = Table(NUM_SCHEMA, [[13.0], [16.0]])
    raw = rmse_raw_per_column(imputed, truth, mask_for(NUM_SCHEMA, [[True], [True]]))
    assert raw["v"] == pytest.approx(math.sqrt((9.0 + 16.0) / 2.0), abs=1e-12)


@pytest.mark.parametrize(
    "score",
    [
        lambda imputed, truth, mask: rmse_numeric(imputed, truth, mask, stats_minmax(0, 20)),
        rmse_raw_per_column,
    ],
    ids=["rmse_numeric", "rmse_raw_per_column"],
)
def test_rmse_rejects_unfilled_masked_cell(score):
    truth = Table(NUM_SCHEMA, [[10.0], [20.0]])
    imputed = Table(NUM_SCHEMA, [[13.0], [None]])
    with pytest.raises(ValueError, match=r"still missing cell \(row 1, column 'v'\)"):
        score(imputed, truth, mask_for(NUM_SCHEMA, [[True], [True]]))


@pytest.mark.parametrize("truth_rows", [1, 3])
@pytest.mark.parametrize(
    "score",
    [
        lambda imputed, truth, mask: rmse_numeric(imputed, truth, mask, stats_minmax(0, 20)),
        rmse_raw_per_column,
        macro_f1_categorical,
    ],
    ids=["rmse_numeric", "rmse_raw_per_column", "macro_f1_categorical"],
)
def test_a_truth_table_of_another_row_count_is_rejected(score, truth_rows):
    # Read unchecked, a shorter truth raised a bare IndexError and a longer
    # one was scored on the rows the two tables share.
    schema = DatasetSchema(
        (ColumnSpec("v", ColumnKind.NUMERIC), ColumnSpec("g", ColumnKind.CATEGORICAL))
    )
    imputed = Table(schema, [[13.0, "a"], [16.0, "b"]])
    truth = Table(schema, [[10.0, "a"]] * truth_rows)
    message = f"mask has shape (2, 2), the table has shape ({truth_rows}, 2)"
    with pytest.raises(ContractViolation, match=re.escape(message)):
        score(imputed, truth, Mask(np.ones((2, 2), dtype=bool)))


# ---------------------------------------------------------------------------
# macro F1
# ---------------------------------------------------------------------------


def cat_tables(truth_vals, pred_vals):
    truth = Table(CAT_SCHEMA, [[v] for v in truth_vals])
    imputed = Table(CAT_SCHEMA, [[v] for v in pred_vals])
    mask = mask_for(CAT_SCHEMA, [[True]] * len(truth_vals))
    return imputed, truth, mask


def test_macro_f1_all_correct():
    imputed, truth, mask = cat_tables(["a", "b", "a", "b"], ["a", "b", "a", "b"])
    assert macro_f1_categorical(imputed, truth, mask) == 1.0


def test_macro_f1_worked_example_eleven_fifteenths():
    imputed, truth, mask = cat_tables(["a", "a", "b", "b"], ["a", "b", "b", "b"])
    value = macro_f1_categorical(imputed, truth, mask)
    assert value == pytest.approx(11.0 / 15.0, abs=1e-12)


def test_macro_f1_unpredicted_class_scores_zero():
    imputed, truth, mask = cat_tables(["a", "a", "b"], ["a", "a", "a"])
    # class a: P=2/3, R=1 -> F1=0.8; class b never predicted -> F1=0
    value = macro_f1_categorical(imputed, truth, mask)
    assert value == pytest.approx(0.4, abs=1e-12)


def test_macro_f1_no_masked_cells_is_absent():
    imputed, truth, _ = cat_tables(["a"], ["a"])
    assert macro_f1_categorical(imputed, truth, mask_for(CAT_SCHEMA, [[False]])) is None


def test_macro_f1_pools_per_column_classes():
    schema = DatasetSchema(
        (
            ColumnSpec("g1", ColumnKind.CATEGORICAL),
            ColumnSpec("g2", ColumnKind.CATEGORICAL),
        )
    )
    truth = Table(schema, [["a", "a"], ["b", "a"]])
    imputed = Table(schema, [["a", "a"], ["b", "a"]])
    mask = Mask(np.ones((2, 2), dtype=bool))
    # identical category strings in different columns stay separate classes
    assert macro_f1_categorical(imputed, truth, mask) == 1.0


# ---------------------------------------------------------------------------
# brute-force oracle agreement on random instances
# ---------------------------------------------------------------------------


def brute_force_rmse(imputed, truth, mask, stats):
    errors = []
    schema = imputed.schema
    for j, spec in enumerate(schema.columns):
        if spec.kind != ColumnKind.NUMERIC:
            continue
        col = stats.for_column(spec.name)
        span = col.vmax - col.vmin
        for r in range(imputed.n_rows):
            if not mask.matrix[r, j] or truth.rows[r][j] is None:
                continue
            if span > 0:
                a = (imputed.rows[r][j] - col.vmin) / span
                b = (truth.rows[r][j] - col.vmin) / span
            else:
                a = b = 0.0
            errors.append((a - b) ** 2)
    if not errors:
        return None
    return math.sqrt(sum(errors) / len(errors))


def brute_force_macro_f1(imputed, truth, mask):
    pairs = []
    schema = imputed.schema
    for j, spec in enumerate(schema.columns):
        if spec.kind != ColumnKind.CATEGORICAL:
            continue
        for r in range(imputed.n_rows):
            if mask.matrix[r, j] and truth.rows[r][j] is not None:
                pairs.append(((j, truth.rows[r][j]), (j, imputed.rows[r][j])))
    if not pairs:
        return None
    classes = sorted({t for t, _ in pairs})
    f1s = []
    for cls in classes:
        tp = sum(1 for t, p in pairs if t == cls and p == cls)
        fp = sum(1 for t, p in pairs if t != cls and p == cls)
        fn = sum(1 for t, p in pairs if t == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(f1s) / len(f1s)


def test_metrics_match_brute_force_on_random_instances():
    schema = DatasetSchema(
        (
            ColumnSpec("v1", ColumnKind.NUMERIC),
            ColumnSpec("v2", ColumnKind.NUMERIC),
            ColumnSpec("g1", ColumnKind.CATEGORICAL),
            ColumnSpec("g2", ColumnKind.CATEGORICAL),
        )
    )
    rng = np.random.default_rng(77)
    categories = ["a", "b", "c"]
    for trial in range(20):
        n = int(rng.integers(3, 12))
        truth_rows = [
            [
                float(rng.uniform(0, 10)),
                float(rng.uniform(-5, 5)),
                categories[rng.integers(0, 3)],
                categories[rng.integers(0, 2)],
            ]
            for _ in range(n)
        ]
        imputed_rows = [
            [
                float(rng.uniform(0, 10)),
                float(rng.uniform(-5, 5)),
                categories[rng.integers(0, 3)],
                categories[rng.integers(0, 2)],
            ]
            for _ in range(n)
        ]
        truth = Table(schema, [list(r) for r in truth_rows])
        imputed = Table(schema, [list(r) for r in imputed_rows])
        mask = Mask(rng.random((n, 4)) < 0.6)
        stats = fit_preprocessor(truth, schema)

        ours = rmse_numeric(imputed, truth, mask, stats)
        brute = brute_force_rmse(imputed, truth, mask, stats)
        if ours is None:
            assert brute is None
        else:
            assert ours == pytest.approx(brute, abs=1e-12)

        ours_f1 = macro_f1_categorical(imputed, truth, mask)
        brute_f1 = brute_force_macro_f1(imputed, truth, mask)
        if ours_f1 is None:
            assert brute_f1 is None
        else:
            assert ours_f1 == pytest.approx(brute_f1, abs=1e-12)
