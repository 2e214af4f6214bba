"""Tests for the table model, CSV round-trips and mask injection."""

import ast
from pathlib import Path

import numpy as np
import pytest

import qimpute
from qimpute.errors import ContractViolation, CsvLoadError
from qimpute.tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    apply_mask,
    inject_mcar,
    load_csv,
    load_mask,
    load_schema,
    missing_mask,
    save_csv,
    save_mask,
    save_schema,
)

SCHEMA = DatasetSchema(
    (
        ColumnSpec("amount", ColumnKind.NUMERIC),
        ColumnSpec("grade", ColumnKind.CATEGORICAL),
        ColumnSpec("note", ColumnKind.TEXT),
    ),
    name="mini",
)


def make_table():
    return Table(
        SCHEMA,
        [
            [3.5, "a", "all good"],
            [None, "b", "watch, with commas"],
            [7.25, None, None],
        ],
    )


def test_only_tabular_touches_table_rows():
    """Outside tabular.py, cells are read and written with Table.column and
    Table.filled, so a change of row layout stays inside one module."""
    touches = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(qimpute.__file__).parent.glob("*.py"))
        if path.name != "tabular.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]
    assert touches == []


def test_column_gathers_in_the_order_given():
    table = make_table()
    assert table.column(0, np.array([2, 0, 1])) == [7.25, 3.5, None]
    assert table.column(1, np.array([1, 1, 0])) == ["b", "b", "a"]
    assert table.column(2, np.array([], dtype=int)) == []


def test_filled_writes_only_the_given_cells():
    table = make_table()
    before = [list(row) for row in table.rows]
    out = table.filled([(0, np.array([1]), [4.0]), (1, [2, 0], ["c", "d"])])
    assert out.rows == [
        [3.5, "d", "all good"],
        [4.0, "b", "watch, with commas"],
        [7.25, "c", None],
    ]
    assert table.rows == before  # the source table is unchanged
    assert out.content_hash() != table.content_hash()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 3])
def test_filled_rejects_a_non_finite_or_non_float_numeric_value(bad):
    table = make_table()
    with pytest.raises(ValueError, match="finite float"):
        table.filled([(0, [1], [bad])])
    assert table.rows[1][0] is None


def test_filled_rejects_rows_and_values_of_different_lengths():
    with pytest.raises(ValueError):
        make_table().filled([(1, [0, 1], ["x"])])


def test_schema_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        DatasetSchema(
            (ColumnSpec("x", ColumnKind.NUMERIC), ColumnSpec("x", ColumnKind.TEXT))
        )


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="cells"):
        Table(SCHEMA, [[1.0, "a"]])


def test_table_rejects_non_finite_numeric():
    with pytest.raises(ValueError, match="finite"):
        Table(SCHEMA, [[float("inf"), "a", "t"]])


def test_table_rejects_an_int_numeric_cell():
    with pytest.raises(ValueError, match="finite float"):
        Table(SCHEMA, [[3.5, "a", "t"], [3, "b", None]])


def test_missing_mask():
    m = missing_mask(make_table())
    assert m.count == 3
    assert m.matrix[1, 0] and m.matrix[2, 1] and m.matrix[2, 2]


@pytest.mark.parametrize("case", ["no rows", "one column", "empty text", "negative zero"])
def test_missing_mask_is_the_per_cell_none_test(case):
    # A present empty text and a numeric -0.0 are not missing.
    table = {
        "no rows": Table(SCHEMA, []),
        "one column": Table(DatasetSchema((SCHEMA.columns[1],)), [["a"], [None], ["b"]]),
        "empty text": Table(SCHEMA, [[1.0, "a", ""], [None, "", None]]),
        "negative zero": Table(SCHEMA, [[-0.0, "a", "x"], [0.0, None, "y"]]),
    }[case]
    per_cell = np.array(
        [[cell is None for cell in row] for row in table.rows], dtype=bool
    ).reshape(table.n_rows, table.schema.n_columns)
    matrix = missing_mask(table).matrix
    assert matrix.dtype == bool and matrix.shape == per_cell.shape
    assert np.array_equal(matrix, per_cell)


def test_csv_round_trip(tmp_path):
    table = make_table()
    path = tmp_path / "mini.csv"
    save_csv(table, path)
    back = load_csv(path, SCHEMA)
    assert back.rows == table.rows
    assert back.content_hash() == table.content_hash()


def test_csv_17_digit_round_trip(tmp_path):
    value = 0.1 + 0.2  # not exactly representable as a short decimal
    table = Table(SCHEMA, [[value, "a", "x"]])
    path = tmp_path / "p.csv"
    save_csv(table, path)
    assert load_csv(path, SCHEMA).rows[0][0] == value


def test_load_csv_missing_token(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("amount,grade,note\n,b,hello\n")
    table = load_csv(path, SCHEMA)
    assert table.rows[0][0] is None


def test_load_csv_bad_number_names_coordinates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("amount,grade,note\nabc,b,hello\n")
    with pytest.raises(CsvLoadError, match=r"row 2.*'amount'"):
        load_csv(path, SCHEMA)


def test_load_csv_header_mismatch(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("wrong,grade,note\n1,b,c\n")
    with pytest.raises(CsvLoadError, match="header"):
        load_csv(path, SCHEMA)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("amount,grade,note\n1.0,b\n")
    with pytest.raises(CsvLoadError, match="ragged"):
        load_csv(path, SCHEMA)


@pytest.mark.parametrize(
    "body, message",
    [
        # three 2-field records hold six fields, which once reshaped into a 2x3 mask
        ("0,1\n1,0\n0,0\n", r"ragged mask row with 2 fields.*row 2"),
        ("0,1,0\n1,0\n", r"ragged mask row with 2 fields.*row 3"),
        ("0,yes,1\n", r"'yes' is not 0 or 1.*row 2, column 'grade'"),
        ("0,1,0\n0, 1,0\n", r"' 1' is not 0 or 1.*row 3, column 'grade'"),
        ("0,1,\n", r"'' is not 0 or 1.*row 2, column 'note'"),
    ],
    ids=["short_records", "short_second_record", "word", "padded_digit", "blank_field"],
)
def test_load_mask_rejects_malformed_records(tmp_path, body, message):
    path = tmp_path / "mask.csv"
    path.write_text("amount,grade,note\n" + body)
    with pytest.raises(CsvLoadError, match=message):
        load_mask(path, SCHEMA)


def test_load_mask_empty_file_names_it(tmp_path):
    path = tmp_path / "empty_mask.csv"
    path.write_text("")
    with pytest.raises(CsvLoadError, match="empty_mask.csv: mask file is empty"):
        load_mask(path, SCHEMA)


def test_schema_round_trip(tmp_path):
    path = tmp_path / "schema.txt"
    save_schema(SCHEMA, path)
    back = load_schema(path)
    assert back == SCHEMA


def test_mask_round_trip(tmp_path):
    table = make_table()
    mask = inject_mcar(table, 0.5, seed=3)
    path = tmp_path / "mask.csv"
    save_mask(mask, SCHEMA, path)
    back = load_mask(path, SCHEMA)
    assert np.array_equal(back.matrix, mask.matrix)


@pytest.mark.parametrize("width", [2, 4])
def test_save_mask_rejects_a_mask_of_another_width(tmp_path, width):
    # Written, its records would have another field count than the header.
    path = tmp_path / "mask.csv"
    with pytest.raises(ContractViolation, match=f"mask has {width} columns, the schema has 3"):
        save_mask(Mask(np.zeros((3, width), dtype=bool)), SCHEMA, path)
    assert not path.exists()


def test_apply_mask_blanks_cells():
    table = make_table()
    matrix = np.zeros((3, 3), dtype=bool)
    matrix[0, 0] = True
    worked = apply_mask(table, Mask(matrix))
    assert worked.rows[0][0] is None
    assert table.rows[0][0] == 3.5  # original untouched


def test_inject_mcar_rate_zero_and_one():
    table = make_table()
    assert inject_mcar(table, 0.0, seed=1).count == 0
    full = inject_mcar(table, 1.0, seed=1)
    # eligible: observed non-text cells = (0,0), (0,1), (1,1), (2,0)
    assert full.count == 4
    assert not full.matrix[:, 2].any()


def test_inject_mcar_never_covers_native_missing():
    table = make_table()
    native = missing_mask(table).matrix
    for seed in range(5):
        injected = inject_mcar(table, 0.9, seed=seed).matrix
        assert not (injected & native).any()


def test_inject_mcar_deterministic():
    table = make_table()
    a = inject_mcar(table, 0.4, seed=9)
    b = inject_mcar(table, 0.4, seed=9)
    assert np.array_equal(a.matrix, b.matrix)
    c = inject_mcar(table, 0.4, seed=10)
    assert not np.array_equal(a.matrix, c.matrix)


def test_inject_mcar_binomial_bound():
    # 10,000 eligible numeric cells at rate 0.2: count within 3 sigma.
    schema = DatasetSchema(
        tuple(ColumnSpec(f"c{i}", ColumnKind.NUMERIC) for i in range(10)),
        name="wide",
    )
    rows = [[float(i + j) for j in range(10)] for i in range(1000)]
    table = Table(schema, rows)
    n, p = 10_000, 0.2
    sigma = np.sqrt(n * p * (1 - p))
    for seed in (0, 1, 2):
        count = inject_mcar(table, p, seed=seed).count
        assert abs(count - n * p) <= 3 * sigma


def test_mask_union_of_disjoint_masks_counts_both():
    a = Mask(np.array([[True, False]]))
    b = Mask(np.array([[False, True]]))
    assert Mask.union(a, b).count == 2


def test_content_hash_changes_with_cells():
    t1 = make_table()
    t2 = make_table()
    assert t1.content_hash() == t2.content_hash()
    t2.rows[0][0] = 3.6
    assert t1.content_hash() != t2.content_hash()
