"""Property tests: every imputer keeps observed cells and fills masked ones,
blocked k-NN and iterative ridge match their reference implementations
bitwise, tables survive a CSV save/load round trip, ``Mask.union``
keeps its algebra, and cell embeddings, their CSV export and the
transformer's imputations follow a permutation of the table's rows
bitwise.

Random small mixed tables (missing cells, degenerate columns, signed
zeros) with a random held-out mask on top; the draws are derandomized so
the suite stays reproducible.
"""

import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qimpute import baselines, experiment, training
from qimpute.baselines import (
    BaselineConfig,
    iterative_ridge_impute,
    iterative_ridge_with_trace,
    knn_impute,
    mean_mode_impute,
)
from qimpute.encoding import CellEmbedder, EmbedderVariant, fit_preprocessor
from qimpute.errors import ContractViolation
from qimpute.experiment import export_embeddings
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
def masked_tables(draw, schema=SCHEMA, max_rows=8):
    """(table, mask): about a quarter of the cells missing and a quarter of
    the rest held out, with one observed, unmasked anchor cell per column."""
    n_rows = draw(st.integers(2, max_rows))
    one_in_four = st.integers(0, 3).map(lambda i: i == 0)
    rows, held = [], np.zeros((n_rows, schema.n_columns), dtype=bool)
    for r in range(n_rows):
        row = []
        for c, spec in enumerate(schema.columns):
            row.append(None if draw(one_in_four) else draw(CELLS[spec.kind]))
            held[r, c] = row[-1] is not None and draw(one_in_four)
        rows.append(row)
    for c, spec in enumerate(schema.columns):
        anchor = draw(st.integers(0, n_rows - 1))
        if rows[anchor][c] is None:
            rows[anchor][c] = draw(CELLS[spec.kind])
        held[anchor, c] = False
    return Table(schema, rows), Mask(held)


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
    params = init_params(SCHEMA, stats, SMALL_MODEL, seed=0, mlp_d_in=embedder.mlp_d_in)
    with mock.patch.object(training, "_IMPUTE_BLOCK_ROWS", 3):
        out = impute_table(table, mask, SCHEMA, stats, embedder, params)
    check_imputation(table, mask, before, out)


@pytest.mark.parametrize("block_rows", [1, 7, 256])
# No shrinking: every example runs two imputations of up to 40 rows, and
# shrinking a failure took minutes.
@settings(PROPERTY_SETTINGS, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    case=masked_tables(max_rows=40),
    variant=st.sampled_from(list(EmbedderVariant)),
    data=st.data(),
)
def test_impute_table_follows_a_row_permutation_bitwise(block_rows, case, variant, data):
    # A row's fills do not depend on its block, its place in the block or
    # the block's row count.
    table, mask = case
    perm = data.draw(st.permutations(range(table.n_rows)))
    stats = fit_preprocessor(apply_mask(table, mask), SCHEMA, text_dim=4)
    embedder = CellEmbedder(SCHEMA, stats, variant, seed=1, n_qubits=4, n_layers=1)
    params = init_params(SCHEMA, stats, SMALL_MODEL, seed=0, mlp_d_in=embedder.mlp_d_in)
    permuted = Table(SCHEMA, [list(table.rows[p]) for p in perm])
    with mock.patch.object(training, "_IMPUTE_BLOCK_ROWS", block_rows):
        out = impute_table(table, mask, SCHEMA, stats, embedder, params)
        again = impute_table(permuted, Mask(mask.matrix[perm]), SCHEMA, stats, embedder, params)
    assert again.content_hash() == Table(SCHEMA, [out.rows[p] for p in perm]).content_hash()


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


GROUP = baselines._KNN_GROUP_ROWS
KNN_COLUMNS = [c for c, spec in enumerate(SCHEMA.columns) if spec.kind != ColumnKind.TEXT]
# Few distinct numeric values, so unrelated rows also tie exactly.
KNN_CELLS = {
    **CELLS,
    ColumnKind.NUMERIC: st.sampled_from([0.0, 0.5, 2.0, -7.25]) | CELLS[ColumnKind.NUMERIC],
}


@st.composite
def knn_cases(draw):
    """(table, mask, k). Query rows (rows with a missing or held-out numeric
    or categorical cell) number one, a group, a group plus one, or several
    groups; each is often a copy of an earlier one (exact distance ties) and
    has about half its cells missing, so some rows share no observed
    feature. One to three fully observed rows keep every column fitted and
    are never held out; k can exceed the candidate count."""
    n_query = draw(st.sampled_from([1, GROUP, GROUP + 1, 3 * GROUP + 2]))
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


WIDE_SCHEMA = DatasetSchema(
    tuple(ColumnSpec(f"x{i}", ColumnKind.NUMERIC) for i in range(9))
    + (ColumnSpec("g", ColumnKind.CATEGORICAL),),
    name="wide",
)


def distances_by_python_sums(table: Table) -> np.ndarray:
    """k-NN distances from every query row (a row with a missing cell) to
    every row: the squared differences over mutually observed numeric
    columns added by plain Python floats in schema order, then Hamming over
    mutually observed categoricals, over the shared-feature count."""
    shape = (table.n_rows, table.schema.n_columns)
    frame = baselines._Frame(table, Mask(np.zeros(shape, dtype=bool)))
    norm = frame.num_norm.tolist()
    cats = frame.cat_idx.tolist()
    queries = [r for r in range(table.n_rows) if np.isnan(norm[r]).any() or -1 in cats[r]]
    out = np.empty((len(queries), table.n_rows))
    for q, r in enumerate(queries):
        for i in range(table.n_rows):
            squares, counts, hamming = 0.0, 0, 0
            for a, b in zip(norm[r], norm[i]):
                if not (np.isnan(a) or np.isnan(b)):
                    squares += (a - b) * (a - b)
                    counts += 1
            for a, b in zip(cats[r], cats[i]):
                if a >= 0 and b >= 0:
                    hamming += a != b
                    counts += 1
            out[q, i] = (np.sqrt(squares) + hamming) / counts if counts else np.inf
    return out


@st.composite
def wide_tables(draw):
    """Tables with 9 numeric columns (where numpy's pairwise sum over a row
    of squares and a sequential one differ) and about a third of the cells
    missing; the first row is fully observed."""
    n_rows = draw(st.integers(2, 24))
    cells = [CELLS[spec.kind] for spec in WIDE_SCHEMA.columns]
    rows = [[draw(cell) for cell in cells]]
    for _ in range(n_rows - 1):
        rows.append([None if draw(st.integers(0, 2)) == 0 else draw(cell) for cell in cells])
    return Table(WIDE_SCHEMA, rows)


@PROPERTY_SETTINGS
@given(table=wide_tables())
def test_knn_distances_add_squares_in_schema_order(table):
    """The distances knn_impute orders, group by group (5 query rows each),
    are bitwise those of the plain-Python reference."""
    seen = []
    pick = baselines._neighbour_order
    with mock.patch.object(baselines, "_KNN_GROUP_ROWS", 5), mock.patch.object(
        baselines, "_neighbour_order", lambda d: (seen.append(d.copy()), pick(d))[1]
    ):
        knn_impute(table, Mask(np.zeros((table.n_rows, WIDE_SCHEMA.n_columns), dtype=bool)))
    expected = distances_by_python_sums(table)
    got = np.concatenate(seen) if seen else np.empty((0, table.n_rows))
    assert np.array_equal(got, expected)


def assert_knn_matches_one_row_at_a_time(rows, k):
    table = Table(SCHEMA, rows)
    mask = Mask(np.zeros((len(rows), SCHEMA.n_columns), dtype=bool))
    expected = knn_one_row_at_a_time(table, mask, k)
    assert knn_impute(table, mask, k=k).content_hash() == expected.content_hash()


def test_knn_neighbour_groups_shorter_than_k_sum_as_np_mean():
    """k = 10 with 9 candidates for x and 5 for y: both short groups must add
    up in np.mean's order, which for 5 values differs from that of a
    zero-padded row of 10. h has 11 candidates, so row 11 takes a full group."""
    rng = np.random.default_rng(5)
    wide = lambda: float(rng.standard_normal() * 10.0 ** rng.integers(-4, 5))
    rows = [
        [wide(), "abc"[r % 3], "", wide() if r < 5 else None, "ab"[r % 2]]
        for r in range(9)
    ]
    rows += [[None, "abc"[r % 3], "", None, "ab"[r % 2]] for r in range(2)]
    rows += [[None, "c", "", None, None]]
    assert_knn_matches_one_row_at_a_time(rows, k=10)


def test_knn_candidates_beyond_the_scanned_prefix():
    """k = 3. Each query row's twenty nearest rows (in tied pairs) miss x
    too, and only one of them is a candidate, so the first few dozen
    neighbours hold fewer than k candidates and the pick must read the whole
    order. One candidate shares no feature with any query row."""
    near = [[None, "a", "", 0.01 * (i // 2), "b"] for i in range(20)]
    near.insert(7, [4.5, "a", "", 0.035, "b"])
    far = [[float(v), "bca"[v % 3], "", 1.0 + v, "a"] for v in range(5)]
    stranger = [[9.0, None, "", None, None]]
    assert_knn_matches_one_row_at_a_time(near + far + stranger, k=3)


def test_knn_with_k_far_beyond_the_row_count():
    """k = 10**6 on 12 rows ("every row") takes all candidates, as slicing
    [:k] does, and sizes no array by k (uncapped, the picks alone would
    take 8 MB per query row)."""
    rows = [
        [float(r), "abc"[r % 3], "", None if r % 4 == 0 else r / 3, "ab"[r % 2]]
        for r in range(12)
    ]
    rows[5][1] = None
    assert_knn_matches_one_row_at_a_time(rows, k=10**6)
    table = Table(SCHEMA, rows)
    tracemalloc.start()
    try:
        knn_impute(table, Mask(np.zeros((12, SCHEMA.n_columns), dtype=bool)), k=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def knn_groups_seen(table: Table, k: int) -> list:
    """(d, order, n_finite) of every query group ``knn_impute`` orders."""
    seen = []
    pick = baselines._neighbour_order

    def recording(d):
        order, n_finite = pick(d)
        seen.append((d.copy(), order, n_finite))
        return order, n_finite

    with mock.patch.object(baselines, "_neighbour_order", recording):
        knn_impute(table, Mask(np.zeros((table.n_rows, table.schema.n_columns), dtype=bool)), k=k)
    return seen


CATEGORICAL_HEAVY = DatasetSchema(
    (ColumnSpec("x", ColumnKind.NUMERIC),)
    + tuple(ColumnSpec(f"c{i}", ColumnKind.CATEGORICAL) for i in range(4)),
    name="categorical_heavy",
)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_knn_matches_one_row_at_a_time_when_every_query_row_has_ties(k):
    """Four categoricals of two or three levels and a numeric column of two
    values: distances take few values, so each query row's order rests on
    the stable re-sort of exact ties, in every one of three query groups."""
    rng = np.random.default_rng(11)
    rows = [
        [
            None if rng.random() < 0.3 else float(rng.integers(2)),
            *(None if rng.random() < 0.2 else "abc"[rng.integers(2 + i % 2)] for i in range(4)),
        ]
        for _ in range(220)
    ]
    table = Table(CATEGORICAL_HEAVY, rows)
    seen = knn_groups_seen(table, k)
    assert len(seen) == 3
    for d, _, _ in seen:
        for row in d:
            finite = np.sort(row[np.isfinite(row)])
            assert (finite[1:] == finite[:-1]).any()
    mask = Mask(np.zeros((table.n_rows, CATEGORICAL_HEAVY.n_columns), dtype=bool))
    expected = knn_one_row_at_a_time(table, mask, k)
    assert knn_impute(table, mask, k=k).content_hash() == expected.content_hash()


def test_knn_row_with_one_column_settled_in_the_prefix_and_one_scanning_all():
    """k = 2, so the pick first reads 4k = 8 neighbours. Row 0 misses x and
    y; its ten nearest rows (distance 0) hold x but not y, and only three
    farther rows hold y. So in the same group row 0's x is settled inside
    the prefix while its y needs the whole order."""
    near = [[float(i), "a", "", None, "b"] for i in range(10)]
    far = [[20.0 + i, "b", "", 5.0 + i, "a"] for i in range(3)]
    rows = [[None, "a", "", None, "b"]] + near + far
    (d, order, n_finite), = knn_groups_seen(Table(SCHEMA, rows), k=2)
    prefix = order[0, :8]
    assert np.isfinite(d[0, prefix]).all() and n_finite[0] > 8
    assert sum(rows[r][0] is not None for r in prefix) >= 2
    assert all(rows[r][3] is None for r in prefix)
    assert_knn_matches_one_row_at_a_time(rows, k=2)


# ---------------------------------------------------------------------------
# iterative ridge against a predictor matrix rebuilt for every target
# ---------------------------------------------------------------------------


def ridge_with_predictor_matrix(table: Table, mask: Mask, config: BaselineConfig):
    """Iterative ridge as it was computed before one design matrix was kept:
    every target's predictors concatenated afresh from the working state."""
    frame = baselines._Frame(table, mask)
    n_rows = table.n_rows

    work_num = frame.num_norm.copy()
    for s, col in enumerate(work_num.T):
        col[np.isnan(col)] = np.nanmean(frame.num_norm[:, s])
    work_cat = np.where(frame.cat_idx < 0, frame.column_fills()[1], frame.cat_idx)

    schema_order = sorted(frame.numeric_cols + frame.categorical_cols)
    target_cols = [j for j in schema_order if not frame.observed[:, j].all()]

    def predictor_matrix(exclude: int) -> np.ndarray:
        parts = [work_num[:, s : s + 1] for s, j in enumerate(frame.numeric_cols) if j != exclude]
        parts += [
            np.eye(len(frame.vocabularies[s]))[work_cat[:, s]]
            for s, j in enumerate(frame.categorical_cols)
            if j != exclude
        ]
        return np.concatenate(parts, axis=1) if parts else np.zeros((n_rows, 0))

    def ridge_predict(x_train, y_train, x_all):
        x_mean = x_train.mean(axis=0)
        y_mean = y_train.mean(axis=0)
        xc = x_train - x_mean
        yc = y_train - y_mean
        gram = xc.T @ xc + config.ridge_lambda * np.eye(x_train.shape[1])
        beta = np.linalg.solve(gram, xc.T @ yc)
        return y_mean + (x_all - x_mean) @ beta

    changes: list[float] = []
    converged = False
    for _ in range(config.max_sweeps):
        deltas: list[float] = []
        for j in target_cols:
            missing_rows = np.flatnonzero(~frame.observed[:, j])
            train_rows = np.flatnonzero(frame.observed[:, j])
            x = predictor_matrix(exclude=j)
            if j in frame.numeric_cols:
                s = frame.numeric_cols.index(j)
                if x.shape[1] == 0:
                    preds = np.full(n_rows, frame.num_norm[train_rows, s].mean())
                else:
                    preds = ridge_predict(x[train_rows], frame.num_norm[train_rows, s], x)
                new = preds[missing_rows]
                deltas.extend(np.abs(new - work_num[missing_rows, s]).tolist())
                work_num[missing_rows, s] = new
            else:
                s = frame.categorical_cols.index(j)
                onehot = np.eye(len(frame.vocabularies[s]))[frame.cat_idx[train_rows, s]]
                if x.shape[1] == 0:
                    scores = np.tile(onehot.mean(axis=0), (n_rows, 1))
                else:
                    scores = ridge_predict(x[train_rows], onehot, x)
                new = np.argmax(scores[missing_rows], axis=1)
                deltas.extend((new != work_cat[missing_rows, s]).astype(float).tolist())
                work_cat[missing_rows, s] = new
        change = float(np.mean(deltas)) if deltas else 0.0
        changes.append(change)
        if change < config.tolerance:
            converged = True
            break

    num_fill = np.empty_like(work_num)
    for s, stats in enumerate(frame.num_stats):
        num_fill[:, s] = stats.denormalize(work_num[:, s])
    return frame.completed(num_fill, work_cat), changes, converged


def schema_of(*names: str) -> DatasetSchema:
    return DatasetSchema(tuple(spec for spec in SCHEMA.columns if spec.name in names), name="sub")


@pytest.mark.parametrize(
    "schema",
    [
        SCHEMA,
        schema_of("x", "y"),
        schema_of("g", "h"),
        schema_of("x", "note"),  # a target with no predictors
        schema_of("g", "note"),
    ],
    ids=["mixed", "numeric", "categorical", "numeric_alone", "categorical_alone"],
)
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    data=st.data(),
    config=st.builds(
        BaselineConfig,
        ridge_lambda=st.sampled_from([1.0, 0.01]),
        max_sweeps=st.integers(1, 6),
        tolerance=st.sampled_from([1e-4, 0.0]),
    ),
)
def test_iterative_ridge_matches_predictor_matrix_reference(schema, data, config):
    case = data.draw(masked_tables(schema, max_rows=24))
    table, mask = case
    completed, changes, converged = iterative_ridge_with_trace(table, mask, config)
    expected, expected_changes, expected_converged = ridge_with_predictor_matrix(
        table, mask, config
    )
    assert completed.content_hash() == expected.content_hash()
    assert [c.hex() for c in changes] == [c.hex() for c in expected_changes]
    assert converged == expected_converged


def ridge_with_design_matrix_per_sweep(table: Table, mask: Mask, config: BaselineConfig):
    """Iterative ridge as it was computed before each target's rows,
    predictors and centered target were planned once: every sweep finds
    them again, and the deltas are gathered as a list of Python floats."""
    frame = baselines._Frame(table, mask)
    n_rows = table.n_rows
    p_num = len(frame.numeric_cols)
    widths = [len(v) for v in frame.vocabularies]
    offsets = np.cumsum([p_num] + widths)

    # Working state in normalized space, initialized with mean/mode: the
    # design matrix holds the numeric slots, then each categorical's one-hot
    # block, and is updated in place after each column's prediction.
    design = np.zeros((n_rows, offsets[-1]))
    work_num = design[:, :p_num]  # view
    work_num[:] = frame.num_norm
    for s, col in enumerate(work_num.T):  # column views
        col[np.isnan(col)] = np.nanmean(frame.num_norm[:, s])
    work_cat = np.where(frame.cat_idx < 0, frame.column_fills()[1], frame.cat_idx)
    for s, offset in enumerate(offsets[:-1]):
        design[np.arange(n_rows), offset + work_cat[:, s]] = 1.0
    # Each column's design columns: its numeric slot or its one-hot block.
    blocks = {j: range(s, s + 1) for s, j in enumerate(frame.numeric_cols)}
    for s, j in enumerate(frame.categorical_cols):
        blocks[j] = range(offsets[s], offsets[s + 1])
    all_cols = np.arange(offsets[-1])

    schema_order = sorted(frame.numeric_cols + frame.categorical_cols)
    target_cols = [j for j in schema_order if not frame.observed[:, j].all()]

    def ridge_predict(x_train, y_train, x_all):
        """Centered closed-form ridge (the y mean when x has no columns); y may be 2-d."""
        x_mean = x_train.mean(axis=0)
        y_mean = y_train.mean(axis=0)
        xc = x_train - x_mean
        yc = y_train - y_mean
        gram = xc.T @ xc + config.ridge_lambda * np.eye(x_train.shape[1])
        beta = np.linalg.solve(gram, xc.T @ yc)
        return y_mean + (x_all - x_mean) @ beta

    changes: list[float] = []
    converged = False
    for _ in range(config.max_sweeps):
        deltas: list[float] = []
        for j in target_cols:
            missing_rows = np.flatnonzero(~frame.observed[:, j])
            train_rows = np.flatnonzero(frame.observed[:, j])
            # np.take, not design[:, keep]: BLAS results depend on the memory
            # layout, and np.take gives C-contiguous predictors.
            x = np.take(design, np.delete(all_cols, blocks[j]), axis=1)
            if j in frame.numeric_cols:
                s = frame.numeric_cols.index(j)
                new = ridge_predict(x[train_rows], frame.num_norm[train_rows, s], x)[missing_rows]
                deltas.extend(np.abs(new - work_num[missing_rows, s]).tolist())
                work_num[missing_rows, s] = new
            else:
                s = frame.categorical_cols.index(j)
                onehot = np.eye(widths[s])[frame.cat_idx[train_rows, s]]
                new = np.argmax(ridge_predict(x[train_rows], onehot, x)[missing_rows], axis=1)
                deltas.extend((new != work_cat[missing_rows, s]).astype(float).tolist())
                work_cat[missing_rows, s] = new
                design[missing_rows, blocks[j].start : blocks[j].stop] = 0.0
                design[missing_rows, blocks[j].start + new] = 1.0
        change = float(np.mean(deltas)) if deltas else 0.0
        changes.append(change)
        if change < config.tolerance:
            converged = True
            break

    num_fill = np.empty_like(work_num)
    for s, stats in enumerate(frame.num_stats):
        num_fill[:, s] = stats.denormalize(work_num[:, s])
    return frame.completed(num_fill, work_cat), changes, converged


@st.composite
def ridge_cases(draw, schema):
    """``masked_tables`` cases on which a drawn set of columns is made fully
    observed and unmasked, so that iterative ridge skips them as targets."""
    table, mask = draw(masked_tables(schema, max_rows=24))
    rows, held = [list(row) for row in table.rows], mask.matrix.copy()
    for c in draw(st.sets(st.sampled_from(range(schema.n_columns)))):
        for row in rows:
            if row[c] is None:
                row[c] = draw(CELLS[schema.kind(c)])
        held[:, c] = False
    return Table(schema, rows), Mask(held)


@pytest.mark.parametrize(
    "schema",
    [
        SCHEMA,
        schema_of("g", "h"),
        schema_of("x", "note"),  # a target with no predictors
        schema_of("g", "note"),
    ],
    ids=["mixed", "categorical", "numeric_alone", "categorical_alone"],
)
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    data=st.data(),
    config=st.builds(
        BaselineConfig,
        ridge_lambda=st.sampled_from([1.0, 0.01]),
        max_sweeps=st.integers(1, 6),
        tolerance=st.sampled_from([1e-4, 0.0]),
    ),
)
def test_iterative_ridge_matches_per_sweep_reference(schema, data, config):
    table, mask = data.draw(ridge_cases(schema))
    completed, changes, converged = iterative_ridge_with_trace(table, mask, config)
    expected, expected_changes, expected_converged = ridge_with_design_matrix_per_sweep(
        table, mask, config
    )
    assert completed.content_hash() == expected.content_hash()
    assert [c.hex() for c in changes] == [c.hex() for c in expected_changes]
    assert converged == expected_converged


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


# ---------------------------------------------------------------------------
# Mask.union
# ---------------------------------------------------------------------------


@st.composite
def mask_lists(draw):
    """One to four masks of one shape."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return [Mask(draw(arrays(bool, shape))) for _ in range(draw(st.integers(1, 4)))]


@PROPERTY_SETTINGS
@given(masks=mask_lists(), data=st.data())
def test_mask_union_algebra(masks, data):
    before = [m.matrix.copy() for m in masks]
    union = Mask.union(*masks)
    assert np.array_equal(union.matrix, np.logical_or.reduce(before))
    assert all(np.array_equal(m.matrix, b) for m, b in zip(masks, before)), "input mutated"
    # commutative: every order gives the same mask
    shuffled = Mask.union(*data.draw(st.permutations(masks)))
    assert np.array_equal(shuffled.matrix, union.matrix)
    # idempotent: a mask united with itself is itself
    for m in masks:
        again = Mask.union(m, m)
        assert np.array_equal(again.matrix, m.matrix)


@PROPERTY_SETTINGS
@given(masks=mask_lists(), grow=st.sampled_from([(1, 0), (0, 1), (1, 1)]), data=st.data())
def test_mask_union_rejects_a_shape_mismatch(masks, grow, data):
    rows, cols = masks[0].matrix.shape
    odd = Mask(np.zeros((rows + grow[0], cols + grow[1]), dtype=bool))
    at = data.draw(st.integers(0, len(masks)))
    with pytest.raises(ValueError, match="shapes differ"):
        Mask.union(*masks[:at], odd, *masks[at:])


# ---------------------------------------------------------------------------
# row order: embeddings and their export
# ---------------------------------------------------------------------------

MIXED_WIDE_SCHEMA = DatasetSchema(
    SCHEMA.columns + tuple(ColumnSpec(f"{spec.name}2", spec.kind) for spec in SCHEMA.columns),
    name="mixed_wide",
)


def exported_lines(path, rows):
    """The CSV's lines after the header, grouped by row_id."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))[1:]
    return [[rec[1:] for rec in records if rec[0] == str(r)] for r in range(rows)]


@CSV_SETTINGS
@given(
    case=masked_tables(schema=MIXED_WIDE_SCHEMA, max_rows=12),
    variant=st.sampled_from(list(EmbedderVariant)),
    data=st.data(),
)
def test_embeddings_and_export_follow_a_row_permutation(tmp_path, case, variant, data):
    # A row's embeddings and exported lines do not depend on which rows
    # share its 3-row export block or its observed-count group.
    table = apply_mask(*case)
    perm = data.draw(st.permutations(range(table.n_rows)))
    permuted = Table(MIXED_WIDE_SCHEMA, [table.rows[p] for p in perm])
    stats = fit_preprocessor(table, MIXED_WIDE_SCHEMA, text_dim=4)
    embedder = CellEmbedder(MIXED_WIDE_SCHEMA, stats, variant, seed=1, n_qubits=4, n_layers=1)
    assert np.array_equal(embedder.embed_table(permuted), embedder.embed_table(table)[perm])
    params = init_params(MIXED_WIDE_SCHEMA, stats, SMALL_MODEL, seed=0, mlp_d_in=embedder.mlp_d_in)
    for mode in ("row_mean", "cell"):
        lines = []
        for name, t in (("original", table), ("permuted", permuted)):
            path = tmp_path / f"{name}_{mode}.csv"
            with mock.patch.object(experiment, "_EXPORT_BLOCK_ROWS", 3):
                export_embeddings(
                    t, MIXED_WIDE_SCHEMA, stats, variant, seed=1, label_column="g", path=path,
                    mode=mode, n_qubits=4, n_layers=1, params=params,
                )
            lines.append(exported_lines(path, table.n_rows))
        assert lines[1] == [lines[0][p] for p in perm]
