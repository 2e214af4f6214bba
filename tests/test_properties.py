"""Property tests: every imputer keeps observed cells and fills masked ones.

Random small mixed tables (missing cells, degenerate columns, signed
zeros) with a random held-out mask on top; the draws are derandomized so
the suite stays reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimpute.baselines import (
    BaselineConfig,
    iterative_ridge_impute,
    knn_impute,
    mean_mode_impute,
)
from qimpute.encoding import CellEmbedder, EmbedderVariant, fit_preprocessor
from qimpute.model import ModelConfig, init_params
from qimpute.tabular import ColumnKind, ColumnSpec, DatasetSchema, Mask, Table, apply_mask
from qimpute.training import impute_table

SCHEMA = DatasetSchema(
    (
        ColumnSpec("x", ColumnKind.NUMERIC),
        ColumnSpec("g", ColumnKind.CATEGORICAL),
        ColumnSpec("note", ColumnKind.TEXT),
        ColumnSpec("y", ColumnKind.NUMERIC),
        ColumnSpec("h", ColumnKind.CATEGORICAL),
    ),
    name="prop",
)
CELLS = {
    ColumnKind.NUMERIC: st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ColumnKind.CATEGORICAL: st.sampled_from(["a", "b", "c"]),
    ColumnKind.TEXT: st.sampled_from(["chest pain", "all clear", ""]),
}
SMALL_MODEL = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=8, embed_dim=4)
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=30, deadline=None)


@st.composite
def masked_tables(draw):
    """(table, mask): about a quarter of the cells missing and a quarter of
    the rest held out, with one observed, unmasked anchor cell per column."""
    n_rows = draw(st.integers(2, 8))
    one_in_four = st.integers(0, 3).map(lambda i: i == 0)
    rows, held = [], np.zeros((n_rows, SCHEMA.n_columns), dtype=bool)
    for r in range(n_rows):
        row = []
        for c, spec in enumerate(SCHEMA.columns):
            row.append(None if draw(one_in_four) else draw(CELLS[spec.kind]))
            held[r, c] = row[-1] is not None and draw(one_in_four)
        rows.append(row)
    for c, spec in enumerate(SCHEMA.columns):
        anchor = draw(st.integers(0, n_rows - 1))
        if rows[anchor][c] is None:
            rows[anchor][c] = draw(CELLS[spec.kind])
        held[anchor, c] = False
    return Table(SCHEMA, rows), Mask(held)


def check_imputation(table: Table, mask: Mask, before: list, out: Table) -> None:
    assert table.rows == before, "input table was mutated"
    for r, row in enumerate(before):
        for c, value in enumerate(row):
            if value is not None and not mask.matrix[r, c]:
                assert repr(out.rows[r][c]) == repr(value), (r, c)
            elif SCHEMA.kind(c) != ColumnKind.TEXT:
                assert out.rows[r][c] is not None, (r, c)
                if SCHEMA.kind(c) == ColumnKind.NUMERIC:
                    assert isinstance(out.rows[r][c], float) and np.isfinite(out.rows[r][c])
                else:
                    assert out.rows[r][c] in {"a", "b", "c"}


@pytest.mark.parametrize(
    "impute",
    [
        mean_mode_impute,
        lambda table, mask: knn_impute(table, mask, k=2),
        lambda table, mask: iterative_ridge_impute(table, mask, BaselineConfig(max_sweeps=3)),
    ],
    ids=["mean_mode", "knn", "iterative_ridge"],
)
@PROPERTY_SETTINGS
@given(case=masked_tables())
def test_baselines_keep_observed_and_fill_masked(impute, case):
    table, mask = case
    before = [list(row) for row in table.rows]
    check_imputation(table, mask, before, impute(table, mask))


@PROPERTY_SETTINGS
@given(case=masked_tables(), variant=st.sampled_from(list(EmbedderVariant)))
def test_impute_table_keeps_observed_and_fills_masked(case, variant):
    table, mask = case
    before = [list(row) for row in table.rows]
    stats = fit_preprocessor(apply_mask(table, mask), SCHEMA, text_dim=4)
    embedder = CellEmbedder(SCHEMA, stats, variant, seed=1, n_qubits=4, n_layers=1)
    mlp_d_in = embedder.d_in_max if variant == EmbedderVariant.CLASSICAL_MLP else 0
    params = init_params(SCHEMA, stats, SMALL_MODEL, seed=0, mlp_d_in=mlp_d_in)
    out = impute_table(table, mask, SCHEMA, stats, embedder, params, batch_rows=3)
    check_imputation(table, mask, before, out)
