"""Property tests: every imputer keeps observed cells and fills masked ones,
blocked k-NN matches its one-row-at-a-time reference, and tables survive a
CSV save/load round trip.

Random small mixed tables (missing cells, degenerate columns, signed
zeros) with a random held-out mask on top; the draws are derandomized so
the suite stays reproducible.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qimpute import baselines
from qimpute.baselines import (
    BaselineConfig,
    iterative_ridge_impute,
    knn_impute,
    mean_mode_impute,
)
from qimpute.encoding import CellEmbedder, EmbedderVariant, fit_preprocessor
from qimpute.errors import ContractViolation
from qimpute.model import ModelConfig, init_params
from qimpute.tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    apply_mask,
    load_csv,
    save_csv,
)
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


# ---------------------------------------------------------------------------
# blocked k-NN against the one-query-row-at-a-time loop
# ---------------------------------------------------------------------------


def knn_one_row_at_a_time(table: Table, mask: Mask, k: int) -> Table:
    """k-NN as it was computed before distances were blocked: one distance
    vector per query row, one lexsort per imputed cell."""
    frame = baselines._Frame(table, mask)
    num_obs = ~np.isnan(frame.num_norm)
    cat_obs = frame.cat_idx >= 0
    num_fill, cat_fill = frame.column_fills()

    def nearest(d, candidate):
        rows = np.flatnonzero(candidate & np.isfinite(d))
        return rows[np.lexsort((rows, d[rows]))][:k]

    for r in np.flatnonzero(~num_obs.all(axis=1) | ~cat_obs.all(axis=1)):
        shared_num = num_obs[r][None, :] & num_obs
        diffs = np.where(shared_num, frame.num_norm[r][None, :] - frame.num_norm, 0.0)
        euclid = np.sqrt(np.nansum(diffs**2, axis=1))
        shared_cat = cat_obs[r][None, :] & cat_obs
        hamming = (shared_cat & (frame.cat_idx[r][None, :] != frame.cat_idx)).sum(axis=1)
        counts = shared_num.sum(axis=1) + shared_cat.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(counts > 0, (euclid + hamming) / counts, np.inf)
        d[r] = np.inf
        for s in np.flatnonzero(~num_obs[r]):
            neighbors = nearest(d, num_obs[:, s])
            if neighbors.size:
                num_fill[r, s] = np.mean(frame.num_values[neighbors, s])
        for s in np.flatnonzero(~cat_obs[r]):
            neighbors = nearest(d, cat_obs[:, s])
            if neighbors.size:
                cat_fill[r, s] = baselines._mode(
                    frame.cat_idx[neighbors, s], len(frame.vocabularies[s])
                )
    return frame.completed(num_fill, cat_fill)


BLOCK = baselines._KNN_BLOCK_ROWS
KNN_COLUMNS = [c for c, spec in enumerate(SCHEMA.columns) if spec.kind != ColumnKind.TEXT]
# Few distinct numeric values, so unrelated rows also tie exactly.
KNN_CELLS = {
    **CELLS,
    ColumnKind.NUMERIC: st.sampled_from([0.0, 0.5, 2.0, -7.25]) | CELLS[ColumnKind.NUMERIC],
}


@st.composite
def knn_cases(draw):
    """(table, mask, k). Query rows (rows with a missing or held-out numeric
    or categorical cell) number one, a block, a block plus one, or several
    blocks; each is often a copy of an earlier one (exact distance ties) and
    has about half its cells missing, so some rows share no observed
    feature. One to three fully observed rows keep every column fitted and
    are never held out; k can exceed the candidate count."""
    n_query = draw(st.sampled_from([1, BLOCK, BLOCK + 1, 3 * BLOCK + 2]))
    full = [
        [draw(KNN_CELLS[spec.kind]) for spec in SCHEMA.columns]
        for _ in range(draw(st.integers(1, 3)))
    ]
    queries = []
    for _ in range(n_query):
        if queries and draw(st.booleans()):
            queries.append(list(draw(st.sampled_from(queries))))
            continue
        row = [
            None if draw(st.booleans()) else draw(KNN_CELLS[spec.kind])
            for spec in SCHEMA.columns
        ]
        row[draw(st.sampled_from(KNN_COLUMNS))] = None
        queries.append(row)
    rows = draw(st.permutations(full + queries))
    held = np.zeros((len(rows), SCHEMA.n_columns), dtype=bool)
    for r, row in enumerate(rows):
        if any(row is q for q in queries):
            held[r] = [v is not None and draw(st.integers(0, 4)) == 0 for v in row]
    k = draw(st.integers(1, len(rows) + 2))
    return Table(SCHEMA, rows), Mask(held), k


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=knn_cases())
def test_blocked_knn_matches_one_row_at_a_time(case):
    table, mask, k = case
    expected = knn_one_row_at_a_time(table, mask, k)
    assert knn_impute(table, mask, k=k).content_hash() == expected.content_hash()


# ---------------------------------------------------------------------------
# CSV save/load round trip
# ---------------------------------------------------------------------------

# Quotes, delimiters, line breaks (CR on its own too), tabs, NUL and
# non-ASCII text, mixed with any other character.
ADVERSARIAL_TEXT = st.text(
    alphabet=st.sampled_from(list('",\n\r \t\x00aé€😀')) | st.characters(), max_size=8
)
MISSING_TOKENS = st.sampled_from(["", "NA", "?", '"', "a,b", "\r\n"])
CSV_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def csv_tables(draw):
    """A table over SCHEMA with a random missing token; no present cell
    reads as the token or as an empty field."""
    token = draw(MISSING_TOKENS)
    schema = DatasetSchema(SCHEMA.columns, missing_token=token, name="csv")
    strings = ADVERSARIAL_TEXT.filter(lambda s: s not in ("", token))
    cells = {
        ColumnKind.NUMERIC: st.floats(allow_nan=False, allow_infinity=False),
        ColumnKind.CATEGORICAL: strings,
        ColumnKind.TEXT: strings,
    }
    rows = [
        [draw(st.none() | cells[spec.kind]) for spec in schema.columns]
        for _ in range(draw(st.integers(0, 5)))
    ]
    return Table(schema, rows)


@CSV_SETTINGS
@given(table=csv_tables())
def test_csv_round_trip_is_exact(tmp_path, table):
    path = tmp_path / "table.csv"
    save_csv(table, path)
    back = load_csv(path, table.schema)
    assert [[repr(v) for v in row] for row in back.rows] == [
        [repr(v) for v in row] for row in table.rows
    ]


@CSV_SETTINGS
@given(table=csv_tables(), data=st.data())
def test_csv_save_refuses_a_cell_that_would_load_as_missing(tmp_path, table, data):
    rows = [list(row) for row in table.rows] or [[1.0, "a", "b", 2.0, "c"]]
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.sampled_from([1, 2, 4]))  # categorical and text columns
    rows[r][c] = data.draw(st.sampled_from(["", table.schema.missing_token]))
    path = tmp_path / f"refused{r}{c}.csv"
    with pytest.raises(ContractViolation, match=f"row {r}, column '{SCHEMA.columns[c].name}'"):
        save_csv(Table(table.schema, rows), path)
    assert not path.exists()
