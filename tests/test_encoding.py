"""Tests for preprocessing, classical encoding, and the embedding variants."""

import logging
import pickle

import numpy as np
import pytest

from qimpute.encoding import (
    CategoricalColumnStats,
    CellEmbedder,
    EmbedderVariant,
    NumericColumnStats,
    TextEmbeddings,
    encode_column,
    fit_preprocessor,
    load_text_embeddings,
    make_angle_projection,
    project_to_angles,
    text_embed_hashing,
)
from qimpute.errors import ConfigError, ContractViolation, FitError, QimputeError
from qimpute.quantum import oracle_apply, z_expectations
from qimpute.rng import EMBED, substream
from qimpute.tabular import ColumnKind, ColumnSpec, DatasetSchema, Mask, Table

SCHEMA = DatasetSchema(
    (
        ColumnSpec("reading", ColumnKind.NUMERIC),
        ColumnSpec("grade", ColumnKind.CATEGORICAL),
        ColumnSpec("note", ColumnKind.TEXT),
    ),
    name="enc",
)


def make_table():
    return Table(
        SCHEMA,
        [
            [2.0, "a", "chest pain"],
            [4.0, "b", "pain chest"],
            [None, "a", "all clear today"],
            [6.0, None, "chest pain again"],
        ],
    )


# ---------------------------------------------------------------------------
# fit_preprocessor
# ---------------------------------------------------------------------------


def test_fit_numeric_min_max_from_observed_only():
    stats = fit_preprocessor(make_table(), SCHEMA)
    num = stats.for_column("reading")
    assert num.vmin == 2.0 and num.vmax == 6.0
    assert not num.degenerate


def test_fit_categorical_first_appearance_order():
    stats = fit_preprocessor(make_table(), SCHEMA)
    assert stats.for_column("grade").vocabulary == ("a", "b")


def test_fit_constant_column_flagged_degenerate():
    schema = DatasetSchema((ColumnSpec("k", ColumnKind.NUMERIC),))
    stats = fit_preprocessor(Table(schema, [[5.0], [5.0], [5.0]]), schema)
    col = stats.for_column("k")
    assert col.vmin == col.vmax == 5.0
    assert col.degenerate


def test_fit_error_names_empty_column():
    schema = DatasetSchema((ColumnSpec("empty", ColumnKind.NUMERIC),))
    with pytest.raises(FitError, match="empty"):
        fit_preprocessor(Table(schema, [[None], [None]]), schema)


def test_fit_deterministic():
    a = fit_preprocessor(make_table(), SCHEMA)
    b = fit_preprocessor(make_table(), SCHEMA)
    assert a.for_column("reading") == b.for_column("reading")
    assert np.array_equal(a.for_column("note").dim_min, b.for_column("note").dim_min)


# ---------------------------------------------------------------------------
# encode_column
# ---------------------------------------------------------------------------


def test_numeric_endpoints_and_midpoint():
    stats = NumericColumnStats(vmin=2.0, vmax=6.0)
    assert encode_column([2.0], ColumnKind.NUMERIC, stats)[0, 0] == 0.0
    assert encode_column([6.0], ColumnKind.NUMERIC, stats)[0, 0] == np.pi
    assert encode_column([4.0], ColumnKind.NUMERIC, stats)[0, 0] == pytest.approx(np.pi / 2)


def test_numeric_out_of_range_clamped():
    stats = NumericColumnStats(vmin=0.0, vmax=1.0)
    assert encode_column([-5.0], ColumnKind.NUMERIC, stats)[0, 0] == 0.0
    assert encode_column([9.0], ColumnKind.NUMERIC, stats)[0, 0] == np.pi


def test_numeric_degenerate_encodes_zero():
    stats = NumericColumnStats(vmin=3.0, vmax=3.0)
    assert encode_column([3.0], ColumnKind.NUMERIC, stats)[0, 0] == 0.0


def test_categorical_one_hot():
    stats = CategoricalColumnStats(vocabulary=("a", "b", "c"))
    vec = encode_column(["b"], ColumnKind.CATEGORICAL, stats)[0]
    assert np.array_equal(vec, np.array([0.0, np.pi, 0.0]))


def unknown_category_warnings(caplog) -> int:
    return sum("unknown category" in r.getMessage() for r in caplog.records)


def test_unknown_category_zero_vector_and_counter(caplog):
    stats = CategoricalColumnStats(vocabulary=("a", "b"))
    with caplog.at_level(logging.WARNING, logger="qimpute.encoding"):
        vec = encode_column(["zzz"], ColumnKind.CATEGORICAL, stats)[0]
    assert np.array_equal(vec, np.zeros(2))
    assert unknown_category_warnings(caplog) == 1


def test_encoding_missing_cell_is_contract_violation():
    stats = NumericColumnStats(vmin=0.0, vmax=1.0)
    with pytest.raises(ContractViolation):
        encode_column([1.0, None], ColumnKind.NUMERIC, stats)


def test_encoding_nan_in_a_float_array_is_contract_violation():
    stats = NumericColumnStats(vmin=0.0, vmax=1.0)
    with pytest.raises(ContractViolation):
        encode_column(np.array([0.5, np.nan]), ColumnKind.NUMERIC, stats)


def test_text_encoding_in_angle_range():
    stats = fit_preprocessor(make_table(), SCHEMA)
    vec = encode_column(["chest pain"], ColumnKind.TEXT, stats.for_column("note"))[0]
    assert vec.shape == (16,)
    assert np.all(vec >= 0.0) and np.all(vec <= np.pi)


# ---------------------------------------------------------------------------
# text_embed_hashing
# ---------------------------------------------------------------------------


def test_hashing_empty_text_is_zero():
    assert np.array_equal(text_embed_hashing("", 8), np.zeros(8))
    assert np.array_equal(text_embed_hashing("   ", 8), np.zeros(8))


def test_hashing_deterministic_and_case_insensitive():
    a = text_embed_hashing("Chest Pain", 16)
    b = text_embed_hashing("chest pain", 16)
    assert np.array_equal(a, b)


def test_hashing_bag_of_words_order_invariance():
    a = text_embed_hashing("chest pain", 16)
    b = text_embed_hashing("pain chest", 16)
    assert np.array_equal(a, b)


def test_hashing_nonzero_is_unit_norm():
    v = text_embed_hashing("one two three", 16)
    assert np.linalg.norm(v) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# angle projection
# ---------------------------------------------------------------------------


def test_projection_reconstructible_bitwise():
    a = make_angle_projection(7, 3, 8)
    b = make_angle_projection(7, 3, 8)
    assert np.array_equal(a, b)
    c = make_angle_projection(8, 3, 8)
    assert not np.array_equal(a, c)


def test_projection_entry_scale():
    matrix = make_angle_projection(0, 4, 8)
    assert np.all(np.abs(matrix) <= 1.0 / np.sqrt(4))


def test_project_zero_vector_gives_zero_angles():
    matrix = make_angle_projection(1, 3, 4)
    params = project_to_angles(np.zeros(3), matrix, n_layers=2)
    assert np.all(params.singles == 0.0) and np.all(params.pairs == 0.0)


def test_project_single_feature_direct():
    matrix = np.zeros((1, 4))
    matrix[0, 0] = 1.0
    params = project_to_angles(np.array([np.pi]), matrix, n_layers=1)
    assert params.singles[0, 0] == np.pi
    assert np.all(params.singles[0, 1:] == 0.0)
    assert np.all(params.pairs == 0.0)


def test_project_matches_naive_matmul():
    rng = np.random.default_rng(5)
    matrix = make_angle_projection(3, 5, 6)
    x = rng.uniform(0, np.pi, size=5)
    params = project_to_angles(x, matrix, n_layers=2)
    naive = np.array([sum(x[i] * matrix[i, j] for i in range(5)) for j in range(6)])
    assert np.allclose(params.singles[0], naive, atol=1e-12)
    slot = 0
    for j in range(6):
        for k in range(j + 1, 6):
            assert params.pairs[0, slot] == pytest.approx(naive[j] * naive[k], abs=1e-12)
            slot += 1
    assert np.array_equal(params.singles[0], params.singles[1])


def test_project_dimension_mismatch():
    matrix = make_angle_projection(1, 3, 4)
    with pytest.raises(ValueError, match="shape"):
        project_to_angles(np.zeros(5), matrix, n_layers=1)


# ---------------------------------------------------------------------------
# CellEmbedder variants
# ---------------------------------------------------------------------------


def make_embedder(variant, seed=3):
    table = make_table()
    stats = fit_preprocessor(table, SCHEMA)
    return table, CellEmbedder(SCHEMA, stats, variant, seed=seed, n_qubits=4, n_layers=2)


def test_quantum_embedding_of_min_value_is_all_ones():
    # numeric min encodes to angle 0, the projection of zero is zero, and the
    # zero-angle circuit returns |0...0|, so every expectation is 1.
    table, emb = make_embedder(EmbedderVariant.QUANTUM_IQP)
    vec = emb.embed(0, 0, 2.0)
    assert np.allclose(vec, 1.0, atol=1e-12)


def test_quantum_embedding_bounds():
    table, emb = make_embedder(EmbedderVariant.QUANTUM_IQP)
    for r, row in enumerate(table.rows):
        for c, v in enumerate(row):
            if v is None:
                continue
            vec = emb.embed(r, c, v)
            assert np.all(vec >= -1.0) and np.all(vec <= 1.0)


def test_random_projection_matches_hand_matmul():
    table, emb = make_embedder(EmbedderVariant.RANDOM_PROJECTION)
    x_c = emb.classical_vector(0, 1, "a")
    width = x_c.size
    matrix = substream(3, EMBED, 1).uniform(-1.0, 1.0, size=(width, 4)) / np.sqrt(width)
    expected = x_c @ matrix
    assert np.array_equal(emb.embed(0, 1, "a"), expected)


def test_embedding_determinism_across_instances():
    _, emb1 = make_embedder(EmbedderVariant.QUANTUM_IQP, seed=9)
    _, emb2 = make_embedder(EmbedderVariant.QUANTUM_IQP, seed=9)
    assert np.array_equal(emb1.embed(0, 0, 3.3), emb2.embed(0, 0, 3.3))


def test_variant_isolation_same_shapes():
    table = make_table()
    vecs = {}
    for variant in (EmbedderVariant.QUANTUM_IQP, EmbedderVariant.RANDOM_PROJECTION):
        _, emb = make_embedder(variant)
        vecs[variant] = emb.embed_table(table)
    shapes = {v.shape for v in vecs.values()}
    assert len(shapes) == 1


def test_mlp_variant_has_no_fixed_embedding():
    _, emb = make_embedder(EmbedderVariant.CLASSICAL_MLP)
    with pytest.raises(ContractViolation):
        emb.embed(0, 0, 2.0)


def test_embed_table_zeroes_missing_cells():
    table, emb = make_embedder(EmbedderVariant.QUANTUM_IQP)
    out = emb.embed_table(table)
    assert out.shape == (4, 3, 4)
    assert np.all(out[2, 0] == 0.0)  # missing numeric cell
    assert np.all(out[3, 1] == 0.0)  # missing categorical cell


def make_unseen_table():
    """Same schema as make_table, with categories the fit never saw."""
    return Table(
        SCHEMA,
        [
            [2.0, "zzz", "chest pain"],
            [3.5, "b", "new words entirely"],
            [None, "zzz", "all clear today"],
            [6.0, "yyy", None],
            [3.5, "a", "chest pain"],
        ],
    )


def test_embed_table_matches_per_cell_oracle():
    _, emb = make_embedder(EmbedderVariant.QUANTUM_IQP)
    table = make_unseen_table()
    held = np.zeros((5, 3), dtype=bool)
    held[1, 0] = held[4, 2] = True
    out = emb.embed_table(table, Mask(held))
    for r, row in enumerate(table.rows):
        for c, value in enumerate(row):
            if value is None or held[r, c]:
                assert np.all(out[r, c] == 0.0)
                continue
            x_c = emb.classical_vector(r, c, value)
            proj = make_angle_projection(3, x_c.size, emb.n_qubits, c)
            state = oracle_apply(project_to_angles(x_c, proj, emb.n_layers))
            reference = z_expectations(state).values
            assert np.max(np.abs(out[r, c] - reference)) < 1e-12


def test_embed_table_counts_each_unseen_category_once(caplog):
    # One warning per distinct (column, value) encoded in a call: "zzz" and
    # "yyy", the repeated "zzz" embedded once. Nothing is kept between calls.
    _, emb = make_embedder(EmbedderVariant.QUANTUM_IQP)
    table = make_unseen_table()
    with caplog.at_level(logging.WARNING, logger="qimpute.encoding"):
        emb.embed_table(table)
        assert unknown_category_warnings(caplog) == 2
        emb.embed_table(table)
    assert unknown_category_warnings(caplog) == 4


@pytest.mark.parametrize("variant", list(EmbedderVariant))
def test_embed_table_leaves_the_embedder_unchanged(variant):
    _, emb = make_embedder(variant)
    table = make_unseen_table()
    before = pickle.dumps(emb)
    first = emb.embed_table(table)
    second = emb.embed_table(table)
    assert pickle.dumps(emb) == before
    assert np.array_equal(first, second)


def test_classical_table_matches_classical_vector(caplog):
    # The MLP variant's embed_table is the padded classical vectors. Every
    # unmasked observed cell warns once per unknown category, repeats
    # included: row 0 and row 2 both hold "zzz", row 3's "yyy" is held out.
    _, emb = make_embedder(EmbedderVariant.CLASSICAL_MLP)
    table = make_unseen_table()
    held = np.zeros((5, 3), dtype=bool)
    held[1, 0] = held[3, 1] = held[4, 2] = True
    with caplog.at_level(logging.WARNING, logger="qimpute.encoding"):
        out = emb.embed_table(table, Mask(held))
    assert unknown_category_warnings(caplog) == 2
    for r, row in enumerate(table.rows):
        for c, value in enumerate(row):
            if value is None or held[r, c]:
                assert np.all(out[r, c] == 0.0)
                continue
            vec = emb.classical_vector(r, c, value)
            assert np.array_equal(out[r, c, : vec.size], vec)
            assert np.all(out[r, c, vec.size :] == 0.0)


@pytest.mark.parametrize(
    "variant", [EmbedderVariant.QUANTUM_IQP, EmbedderVariant.RANDOM_PROJECTION]
)
def test_embed_bitwise_equals_embed_table(variant):
    table = make_unseen_table()
    _, whole = make_embedder(variant)
    out = whole.embed_table(table)
    _, single = make_embedder(variant)
    for r, row in enumerate(table.rows):
        for c, value in enumerate(row):
            if value is not None:
                assert np.array_equal(single.embed(r, c, value), out[r, c])


def signed_zero_table(first_zero):
    """A numeric column whose minimum is 0, held as both 0.0 and -0.0, with
    repeated values and values seen once; ``first_zero`` comes first."""
    schema = DatasetSchema(
        (ColumnSpec("x", ColumnKind.NUMERIC), ColumnSpec("g", ColumnKind.CATEGORICAL))
    )
    x = [3.0, first_zero, -first_zero, 3.0, 1.5, first_zero, 7.25, None, 3.0, -first_zero]
    return Table(schema, [[v, "ab"[r % 2]] for r, v in enumerate(x)])


@pytest.mark.parametrize("first_zero", [0.0, -0.0], ids=["0.0 first", "-0.0 first"])
@pytest.mark.parametrize("variant", list(EmbedderVariant), ids=lambda v: v.value)
def test_numeric_array_path_equals_the_per_cell_path_bitwise(variant, first_zero):
    # The fitted minimum is whichever zero comes first; 0.0 and -0.0 are one
    # distinct value, so both must get the bits a per-cell call gives either.
    table = signed_zero_table(first_zero)
    stats = fit_preprocessor(table, table.schema)
    emb = CellEmbedder(table.schema, stats, variant, seed=4, n_qubits=4)
    out = emb.embed_table(table)
    for r, row in enumerate(table.rows):
        for c, value in enumerate(row):
            if value is None:
                assert not out[r, c].any()
            elif emb.mlp_d_in:
                vec = emb.classical_vector(r, c, value)
                assert out[r, c, : vec.size].tobytes() == vec.tobytes()
                assert not out[r, c, vec.size :].any()
            else:
                assert out[r, c].tobytes() == emb.embed(r, c, value).tobytes()


@pytest.mark.parametrize("n_qubits,n_layers", [(0, 2), (4, 0)])
def test_embedder_rejects_empty_circuit(n_qubits, n_layers):
    stats = fit_preprocessor(make_table(), SCHEMA)
    with pytest.raises(ConfigError, match="must be >= 1"):
        CellEmbedder(
            SCHEMA, stats, EmbedderVariant.QUANTUM_IQP, seed=3,
            n_qubits=n_qubits, n_layers=n_layers,
        )


def test_classical_table_padding():
    table, emb = make_embedder(EmbedderVariant.CLASSICAL_MLP)
    out = emb.embed_table(table)
    assert out.shape == (4, 3, emb.d_in_max)
    assert emb.d_in_max == 16  # text dimension dominates
    # numeric column occupies slot 0 only
    assert np.all(out[0, 0, 1:] == 0.0)


# ---------------------------------------------------------------------------
# precomputed text embeddings
# ---------------------------------------------------------------------------


def test_load_text_embeddings(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text(
        "column_name,value,e_0,e_1\n"
        "note,chest pain,0.5,0.25\n"
        "note,all clear,-0.5,1.0\n"
    )
    emb = load_text_embeddings(path)
    assert emb.dim == 2
    assert np.array_equal(emb.vectors[("note", "chest pain")], np.array([0.5, 0.25]))
    assert emb.vectors.get(("note", "fever")) is None


NOTES = ["chest pain", "pain chest", "all clear today", "chest pain again"]


def test_text_override_changes_fit_and_encoding(tmp_path):
    table = make_table()
    overrides = TextEmbeddings(
        dim=2,
        vectors={
            ("note", NOTES[r]): np.array([float(r), 1.0 - float(r)]) for r in range(4)
        },
    )
    stats = fit_preprocessor(table, SCHEMA, text_embeddings=overrides)
    note = stats.for_column("note")
    assert note.dim == 2
    assert note.dim_min[0] == 0.0 and note.dim_max[0] == 3.0
    emb = CellEmbedder(SCHEMA, stats, EmbedderVariant.RANDOM_PROJECTION, seed=1, n_qubits=4)
    x = emb.classical_vector(3, 2, "chest pain again")
    # raw override (3, -2) rescaled per fitted dims: dim0 -> pi, dim1 clamped to 0
    assert x[0] == pytest.approx(np.pi)
    assert x[1] == pytest.approx(0.0)


REPEATED_NOTES = ["chest pain", "all clear", "chest pain", "", "Chest  PAIN", "all clear"] * 3


def test_text_stats_from_repeated_values_equal_the_per_cell_fit():
    rows = [[float(r), "a", note] for r, note in enumerate(REPEATED_NOTES)]
    rows[4][2] = None
    table = Table(SCHEMA, rows)
    note = fit_preprocessor(table, SCHEMA, text_dim=8).for_column("note")
    per_cell = np.stack([text_embed_hashing(row[2], 8) for row in rows if row[2] is not None])
    assert note.dim == 8
    assert note.dim_min.tobytes() == per_cell.min(axis=0).tobytes()
    assert note.dim_max.tobytes() == per_cell.max(axis=0).tobytes()


def test_override_absent_at_fit_time_is_kept_and_used_at_encode_time():
    fever = np.array([0.25, -4.0])
    overrides = TextEmbeddings(
        dim=2, vectors={("note", "chest pain"): np.array([1.0, 0.0]), ("note", "fever"): fever}
    )
    stats = fit_preprocessor(make_table(), SCHEMA, text_embeddings=overrides)
    note = stats.for_column("note")
    # the range is fitted on the observed values only, "fever" is not one
    observed = note.raw(NOTES)
    assert np.array_equal(note.dim_min, observed.min(axis=0))
    assert np.array_equal(note.dim_max, observed.max(axis=0))
    assert np.array_equal(note.vectors["fever"], fever)
    later = Table(SCHEMA, [[2.0, "a", "fever"], [4.0, "b", "chest pain"]])
    expected = encode_column(["fever"], ColumnKind.TEXT, note)[0]
    span = note.dim_max - note.dim_min
    assert np.array_equal(expected, np.clip((fever - note.dim_min) / span, 0.0, 1.0) * np.pi)
    mlp = CellEmbedder(SCHEMA, stats, EmbedderVariant.CLASSICAL_MLP, seed=1, n_qubits=4)
    assert np.array_equal(mlp.embed_table(later)[0, 2, :2], expected)


@pytest.mark.parametrize(
    "variant", [EmbedderVariant.CLASSICAL_MLP, EmbedderVariant.QUANTUM_IQP]
)
def test_text_override_of_wrong_width_names_cell(variant):
    # The width is checked when the vectors are built, so an embedder of either
    # variant only ever receives vectors as wide as its fitted text stats.
    message = r"\('note', 'all clear'\) has shape \(3,\), expected \(2,\)"
    with pytest.raises(QimputeError, match=message):
        TextEmbeddings(dim=2, vectors={("note", "all clear"): np.array([0.5, 0.5, 0.5])})
    overrides = TextEmbeddings(dim=2, vectors={("note", "all clear"): np.array([0.5, 0.5])})
    stats = fit_preprocessor(make_table(), SCHEMA, text_embeddings=overrides)
    note = stats.for_column("note")
    assert np.array_equal(note.raw(["all clear"])[0], [0.5, 0.5])
    emb = CellEmbedder(SCHEMA, stats, variant, seed=1, n_qubits=4)
    out = emb.embed_table(Table(SCHEMA, [[2.0, "a", "all clear"]]))
    expected = encode_column(["all clear"], ColumnKind.TEXT, note)[0]
    assert np.array_equal(emb.classical_vector(0, 2, "all clear"), expected)
    if variant is EmbedderVariant.CLASSICAL_MLP:
        assert np.array_equal(out[0, 2, :2], expected)
    else:
        assert np.array_equal(out[0, 2], emb.embed(0, 2, "all clear"))


@pytest.mark.parametrize("column", ["grade", "notes"])
def test_fit_preprocessor_rejects_overrides_for_a_column_that_is_not_text(column):
    overrides = TextEmbeddings(dim=2, vectors={(column, "a"): np.array([0.5, 0.5])})
    with pytest.raises(QimputeError, match=f"column '{column}', which is not a text column"):
        fit_preprocessor(make_table(), SCHEMA, text_embeddings=overrides)


def test_load_text_embeddings_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("row,col,e_0\n0,note,1.0\n")
    with pytest.raises(Exception, match="header"):
        load_text_embeddings(path)
    # the earlier row-keyed layout fails on its header
    path.write_text("row_id,column_name,e_0\n0,note,1.0\n")
    with pytest.raises(QimputeError, match="expected header column_name,value"):
        load_text_embeddings(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_text_embeddings_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "emb.csv"
    path.write_text(
        "column_name,value,e_0,e_1\n"
        "note,chest pain,0.5,0.25\n"
        f"note,fever,{bad},1.0\n"
    )
    with pytest.raises(QimputeError, match="column 'note', value 'fever'"):
        load_text_embeddings(path)


def test_load_text_embeddings_rejects_a_repeated_pair(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text(
        "column_name,value,e_0,e_1\n"
        "note,fever,0.5,0.25\n"
        "note,chest pain,0.5,0.25\n"
        "note,fever,1.0,0.0\n"
    )
    message = r"line 4: column 'note', value 'fever' is given again \(first on line 2\)"
    with pytest.raises(QimputeError, match=message):
        load_text_embeddings(path)


@pytest.mark.parametrize(
    "record,message",
    [
        ("7,note,0.5,abc", "line 3: could not convert"),
        ("7", "line 3: expected 4 fields, got 1"),
        ("7,note,0.5", "line 3: expected 4 fields, got 3"),
    ],
)
def test_load_text_embeddings_rejects_malformed_record(tmp_path, record, message):
    path = tmp_path / "emb.csv"
    path.write_text("column_name,value,e_0,e_1\nnote,chest pain,0.5,0.25\n" + record + "\n")
    with pytest.raises(QimputeError, match=message):
        load_text_embeddings(path)
