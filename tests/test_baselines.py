"""Tests for the classical imputation baselines."""

import numpy as np
import pytest

from qimpute import baselines
from qimpute.baselines import (
    BaselineConfig,
    iterative_ridge_impute,
    iterative_ridge_with_trace,
    knn_impute,
    mean_mode_impute,
)
from qimpute.datasets import synth_healthcare_generate
from qimpute.errors import ConfigError, FitError
from qimpute.tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    apply_mask,
    inject_mcar,
)


def no_extra_mask(table):
    return Mask(np.zeros((table.n_rows, table.schema.n_columns), dtype=bool))


# ---------------------------------------------------------------------------
# mean / mode
# ---------------------------------------------------------------------------


def test_mean_imputation():
    schema = DatasetSchema((ColumnSpec("v", ColumnKind.NUMERIC),))
    table = Table(schema, [[2.0], [None], [4.0]])
    out = mean_mode_impute(table, no_extra_mask(table))
    assert out.rows[1][0] == 3.0


def test_mode_imputation():
    schema = DatasetSchema((ColumnSpec("g", ColumnKind.CATEGORICAL),))
    table = Table(schema, [["a"], ["a"], ["b"], [None]])
    out = mean_mode_impute(table, no_extra_mask(table))
    assert out.rows[3][0] == "a"


def test_mode_tie_resolves_to_vocab_order():
    schema = DatasetSchema((ColumnSpec("g", ColumnKind.CATEGORICAL),))
    table = Table(schema, [["a"], ["b"], [None]])
    out = mean_mode_impute(table, no_extra_mask(table))
    assert out.rows[2][0] == "a"


def test_mean_mode_leaves_observed_untouched():
    schema = DatasetSchema(
        (ColumnSpec("v", ColumnKind.NUMERIC), ColumnSpec("g", ColumnKind.CATEGORICAL))
    )
    table = Table(schema, [[1.25, "x"], [None, None], [2.5, "y"]])
    out = mean_mode_impute(table, no_extra_mask(table))
    assert out.rows[0] == [1.25, "x"] and out.rows[2] == [2.5, "y"]


def test_mean_mode_all_missing_column_errors():
    schema = DatasetSchema((ColumnSpec("v", ColumnKind.NUMERIC),))
    table = Table(schema, [[None], [None]])
    with pytest.raises(FitError):
        mean_mode_impute(table, no_extra_mask(table))


def test_mean_mode_respects_extra_mask():
    schema = DatasetSchema((ColumnSpec("v", ColumnKind.NUMERIC),))
    table = Table(schema, [[2.0], [10.0], [4.0]])
    mask = Mask(np.array([[False], [True], [False]]))
    out = mean_mode_impute(table, mask)
    assert out.rows[1][0] == 3.0  # the masked 10.0 is held out of the mean


# ---------------------------------------------------------------------------
# k-NN
# ---------------------------------------------------------------------------

TWO_NUM = DatasetSchema(
    (ColumnSpec("x", ColumnKind.NUMERIC), ColumnSpec("y", ColumnKind.NUMERIC))
)


def test_knn_duplicate_row_k1_copies_value():
    schema = DatasetSchema(
        (
            ColumnSpec("x", ColumnKind.NUMERIC),
            ColumnSpec("y", ColumnKind.NUMERIC),
            ColumnSpec("g", ColumnKind.CATEGORICAL),
        )
    )
    table = Table(
        schema,
        [
            [1.0, 2.0, "a"],
            [1.0, None, "a"],
            [9.0, 70.0, "b"],
        ],
    )
    out = knn_impute(table, no_extra_mask(table), k=1)
    assert out.rows[1][1] == 2.0


def test_knn_hand_example_k2():
    # distances from row 0 over the single shared feature x:
    # 0.1 (row 1), 0.2 (row 2), 1.0 (row 3) -> neighbors rows 1, 2 -> mean 15
    table = Table(
        TWO_NUM,
        [
            [0.0, None],
            [0.1, 10.0],
            [0.2, 20.0],
            [1.0, 30.0],
        ],
    )
    out = knn_impute(table, no_extra_mask(table), k=2)
    assert out.rows[0][1] == 15.0


def test_knn_k_larger_than_candidates_is_mean():
    table = Table(
        TWO_NUM,
        [
            [0.0, None],
            [0.1, 10.0],
            [0.9, 30.0],
        ],
    )
    out = knn_impute(table, no_extra_mask(table), k=50)
    assert out.rows[0][1] == 20.0


def test_knn_fallback_when_no_shared_features():
    schema = DatasetSchema(
        (
            ColumnSpec("a", ColumnKind.NUMERIC),
            ColumnSpec("b", ColumnKind.NUMERIC),
            ColumnSpec("c", ColumnKind.NUMERIC),
        )
    )
    table = Table(
        schema,
        [
            [1.0, None, None],
            [None, 7.0, 3.0],
            [None, 9.0, 4.0],
        ],
    )
    out = knn_impute(table, no_extra_mask(table), k=1)
    assert out.rows[0][1] == 8.0  # column mean fallback
    assert out.rows[0][2] == 3.5


def test_knn_categorical_neighbor_mode():
    schema = DatasetSchema(
        (ColumnSpec("x", ColumnKind.NUMERIC), ColumnSpec("g", ColumnKind.CATEGORICAL))
    )
    table = Table(
        schema,
        [
            [0.0, None],
            [0.05, "a"],
            [0.1, "a"],
            [0.15, "b"],
            [1.0, "b"],
        ],
    )
    out = knn_impute(table, no_extra_mask(table), k=3)
    assert out.rows[0][1] == "a"


def test_knn_deterministic():
    table = Table(
        TWO_NUM,
        [[0.0, None], [0.3, 1.0], [0.6, 2.0], [0.9, None], [0.5, 4.0]],
    )
    a = knn_impute(table, no_extra_mask(table), k=2)
    b = knn_impute(table, no_extra_mask(table), k=2)
    assert a.content_hash() == b.content_hash()


def test_knn_output_does_not_depend_on_the_query_group_size(monkeypatch):
    """Distances add one numeric column at a time within each query group,
    so 1-, 7- and 64-row groups give the same table on an 800-row split
    with 12 numeric columns."""
    data = synth_healthcare_generate(800, seed=1)
    working = apply_mask(data.table, inject_mcar(data.table, 0.2, seed=1))
    hashes = set()
    for rows in (1, 7, 64):
        monkeypatch.setattr(baselines, "_KNN_GROUP_ROWS", rows)
        hashes.add(knn_impute(working, no_extra_mask(working), k=5).content_hash())
    assert len(hashes) == 1


# ---------------------------------------------------------------------------
# iterative ridge
# ---------------------------------------------------------------------------


def test_ridge_recovers_collinear_relation():
    n = 100
    xs = np.linspace(0.0, 1.0, n)
    rows = [[float(x), float(2.0 * x)] for x in xs]
    rows[30][1] = None
    table = Table(TWO_NUM, rows)
    config = BaselineConfig(ridge_lambda=1e-6)
    out = iterative_ridge_impute(table, no_extra_mask(table), config)
    assert out.rows[30][1] == pytest.approx(2.0 * xs[30], abs=1e-6)


def test_ridge_uninformative_predictors_fall_back_to_mean():
    schema = DatasetSchema(
        (ColumnSpec("k", ColumnKind.NUMERIC), ColumnSpec("y", ColumnKind.NUMERIC))
    )
    table = Table(schema, [[5.0, 1.0], [5.0, 2.0], [5.0, 6.0], [5.0, None]])
    config = BaselineConfig()
    out = iterative_ridge_impute(table, no_extra_mask(table), config)
    assert out.rows[3][1] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize(
    "column, cells, expected",
    [
        (ColumnSpec("v", ColumnKind.NUMERIC), [0.0, 2.0, 4.0, None], 2.0),
        (ColumnSpec("g", ColumnKind.CATEGORICAL), ["a", "b", "b", None], "b"),
    ],
    ids=["numeric", "categorical"],
)
def test_ridge_with_no_predictor_columns_fills_the_mean_or_mode(column, cells, expected):
    """Text is never a predictor, so a lone imputable column is fitted on
    zero columns: the centred ridge then predicts its mean (mode)."""
    schema = DatasetSchema((column, ColumnSpec("note", ColumnKind.TEXT)))
    table = Table(schema, [[v, "x"] for v in cells])
    out = iterative_ridge_impute(table, no_extra_mask(table), BaselineConfig())
    assert out.rows[3][0] == expected


def test_ridge_converges_and_records_changes():
    n = 60
    xs = np.linspace(0.0, 1.0, n)
    rows = [[float(x), float(2.0 * x)] for x in xs]
    for r in (5, 20, 40):
        rows[r][1] = None
    table = Table(TWO_NUM, rows)
    config = BaselineConfig(ridge_lambda=1e-6)
    _, changes, converged = iterative_ridge_with_trace(table, no_extra_mask(table), config)
    assert converged
    assert len(changes) <= 10
    assert all(np.isfinite(c) for c in changes)


def test_ridge_uses_categorical_predictors():
    schema = DatasetSchema(
        (ColumnSpec("g", ColumnKind.CATEGORICAL), ColumnSpec("y", ColumnKind.NUMERIC))
    )
    rows = []
    for i in range(30):
        g = "a" if i % 2 == 0 else "b"
        rows.append([g, 1.0 if g == "a" else 5.0])
    rows[10][1] = None  # g == "a" there
    table = Table(schema, rows)
    config = BaselineConfig(ridge_lambda=1e-6)
    out = iterative_ridge_impute(table, no_extra_mask(table), config)
    assert out.rows[10][1] == pytest.approx(1.0, abs=1e-3)


def test_ridge_categorical_target():
    schema = DatasetSchema(
        (ColumnSpec("x", ColumnKind.NUMERIC), ColumnSpec("g", ColumnKind.CATEGORICAL))
    )
    rows = []
    for i in range(40):
        x = i / 39.0
        rows.append([x, "hi" if x > 0.5 else "lo"])
    rows[3][1] = None   # x small -> lo
    rows[36][1] = None  # x large -> hi
    table = Table(schema, rows)
    config = BaselineConfig(ridge_lambda=1e-3)
    out = iterative_ridge_impute(table, no_extra_mask(table), config)
    assert out.rows[3][1] == "lo"
    assert out.rows[36][1] == "hi"


def test_baselines_ignore_text_columns():
    schema = DatasetSchema(
        (
            ColumnSpec("x", ColumnKind.NUMERIC),
            ColumnSpec("y", ColumnKind.NUMERIC),
            ColumnSpec("t", ColumnKind.TEXT),
        )
    )
    table = Table(
        schema,
        [[0.0, 1.0, "alpha"], [1.0, None, None], [0.5, 3.0, "gamma"]],
    )
    for func in (
        lambda t, m: mean_mode_impute(t, m),
        lambda t, m: knn_impute(t, m, k=1),
        lambda t, m: iterative_ridge_impute(t, m, BaselineConfig()),
    ):
        out = func(table, no_extra_mask(table))
        assert out.rows[1][1] is not None
        assert out.rows[1][2] is None  # text never imputed
        assert out.rows[0][2] == "alpha"


@pytest.mark.parametrize("k", [0, -3])
def test_knn_rejects_k_below_one_as_config_error(k):
    # As BaselineConfig(k=0) does; ConfigError is also a ValueError.
    table = Table(TWO_NUM, [[0.0, None], [0.1, 10.0]])
    with pytest.raises(ConfigError, match="k must be >= 1"):
        knn_impute(table, no_extra_mask(table), k=k)


def test_baseline_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(k=0)
    with pytest.raises(ValueError):
        BaselineConfig(ridge_lambda=0.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("ridge_lambda", float("inf")),
        ("tolerance", float("nan")),
        ("tolerance", float("inf")),
        ("tolerance", -1.0),
    ],
)
def test_baseline_config_rejects_non_finite_or_negative(field, value):
    # nan or a negative tolerance never converges; an infinite lambda gives nan fills
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        BaselineConfig(**{field: value})
