"""Tabular data model: typed schemas, cell-level tables, missingness masks, CSV io.

A cell is either a finite float (numeric columns), a string (categorical
and text columns), or ``None`` for missing. Masks are boolean overlays on
top of a table: ``True`` marks a cell as missing or held out. Injected
masks only ever cover cells that were observed in the source table.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolation, CsvLoadError, QimputeError
from .rng import MASK, substream

CellValue = float | str | None


class ColumnKind(Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    TEXT = "text"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: ColumnKind


@dataclass(frozen=True)
class DatasetSchema:
    """Ordered column descriptors plus the token used for missing cells."""

    columns: tuple[ColumnSpec, ...]
    missing_token: str = ""
    name: str = "dataset"

    def __post_init__(self):
        if not self.columns:
            raise ValueError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def kind(self, index: int) -> ColumnKind:
        return self.columns[index].kind

    def index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"no column named {name!r}")

    def indices_of(self, kind: ColumnKind) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.kind == kind)


@dataclass
class Table:
    """Row-major cell storage conforming to a schema; other modules reach
    cells only through :meth:`column` and :meth:`filled`."""

    schema: DatasetSchema
    rows: list[list[CellValue]]

    def __post_init__(self):
        n_cols = self.schema.n_columns
        for r, row in enumerate(self.rows):
            if len(row) != n_cols:
                raise ValueError(f"row {r} has {len(row)} cells, schema has {n_cols} columns")
        for j, spec in enumerate(self.schema.columns):
            _check_cells(spec, enumerate(row[j] for row in self.rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def _unchecked(cls, schema: DatasetSchema, rows: list[list[CellValue]]) -> "Table":
        """A table over ``rows`` as given, for cells its maker has already validated."""
        table = object.__new__(cls)
        table.schema, table.rows = schema, rows
        return table

    def copy(self) -> "Table":
        """A table over copies of the rows, whose cells are not validated again."""
        return Table._unchecked(self.schema, [list(row) for row in self.rows])

    def column(self, j: int, rows) -> list[CellValue]:
        """The cells of column ``j`` at ``rows``, in the order given."""
        return [self.rows[r][j] for r in np.asarray(rows).tolist()]

    def filled(self, cells) -> "Table":
        """A new table with each ``(column, rows, values)`` of ``cells`` written
        in and validated like the cells of a new table."""
        out = self.copy()
        for j, at, values in cells:
            at = np.asarray(at).tolist()
            for r, v in zip(at, values, strict=True):
                out.rows[r][j] = v
            _check_cells(self.schema.columns[j], ((r, out.rows[r][j]) for r in at))
        return out

    def content_hash(self) -> str:
        """Stable digest of schema + every cell; used for determinism checks."""
        h = hashlib.sha256()
        h.update(self.schema.name.encode())
        for spec in self.schema.columns:
            h.update(f"{spec.name}:{spec.kind.value};".encode())
        for row in self.rows:
            for v in row:
                h.update(_canonical_cell(v).encode())
                h.update(b"\x1f")
            h.update(b"\x1e")
        return h.hexdigest()


def _check_cells(spec: ColumnSpec, cells) -> None:
    """Raise unless each ``(row, value)`` of column ``spec`` is missing or of its kind:
    a finite float in a numeric column, a string in a categorical or text one."""
    numeric = spec.kind == ColumnKind.NUMERIC
    for r, v in cells:
        valid = isinstance(v, float) and math.isfinite(v) if numeric else isinstance(v, str)
        if v is not None and not valid:
            expected = "a finite float" if numeric else "a string"
            raise ValueError(
                f"{spec.kind.value} cell at row {r}, column {spec.name!r} is not {expected}: {v!r}"
            )


def _canonical_cell(v: CellValue) -> str:
    if v is None:
        return "\x00missing"
    if isinstance(v, float):
        return format(v, ".17g")
    return "s" + v


@dataclass
class Mask:
    """Boolean missing/held-out overlay; True marks a masked cell."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=bool)
        if self.matrix.ndim != 2:
            raise ValueError(f"mask must be 2-d, got shape {self.matrix.shape}")

    @property
    def count(self) -> int:
        return int(self.matrix.sum())

    def content_hash(self) -> str:
        return hashlib.sha256(np.packbits(self.matrix).tobytes()).hexdigest()

    @staticmethod
    def union(*masks: "Mask") -> "Mask":
        if not masks:
            raise ValueError("union of no masks")
        combined = masks[0].matrix.copy()
        for m in masks[1:]:
            if m.matrix.shape != combined.shape:
                raise ValueError("mask shapes differ")
            combined |= m.matrix
        return Mask(combined)


def missing_mask(table: Table) -> Mask:
    """Mask of the cells that are natively missing (``None``) in the table.

    This is the one presence test: every other module reads it.
    """
    cells = np.array(table.rows, dtype=object).reshape(table.n_rows, table.schema.n_columns)
    return Mask(np.equal(cells, None))


def held_out(table: Table, mask: Mask) -> np.ndarray:
    """The matrix of ``mask``, checked to have the table's shape.

    Combining a mask of another shape with the table's cells would
    broadcast it, holding out whole rows or columns, so it raises
    :class:`ContractViolation` naming both shapes.
    """
    shape = (table.n_rows, table.schema.n_columns)
    if mask.matrix.shape != shape:
        raise ContractViolation(
            f"mask has shape {mask.matrix.shape}, the table has shape {shape}"
        )
    return mask.matrix


def observed_cells(table: Table, mask: Mask) -> np.ndarray:
    """(rows, columns) bool: True where the table holds a value and ``mask`` does
    not hold it out; a mask of another shape raises, see :func:`held_out`."""
    return ~(missing_mask(table).matrix | held_out(table, mask))


def empty_mask(table: Table) -> Mask:
    """A mask of the table's shape that holds out no cell."""
    return Mask(np.zeros((table.n_rows, table.schema.n_columns), dtype=bool))


def apply_mask(table: Table, mask: Mask) -> Table:
    """Blank every masked cell, returning a new working table; a mask of
    another shape raises, see :func:`held_out`."""
    out = table.copy()
    for r, c in np.argwhere(held_out(table, mask)).tolist():
        out.rows[r][c] = None
    return out


def inject_mcar(table: Table, rate: float, seed: int) -> Mask:
    """Mark observed non-text cells missing, each independently with ``rate``.

    Text cells are exempt (they are never imputation targets), as are cells
    already missing. Deterministic per seed; the draw order is row-major
    over the full table so the mask is independent of which cells happen
    to be observed.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    n_rows, n_cols = table.n_rows, table.schema.n_columns
    rng = substream(seed, MASK)
    draws = rng.random((n_rows, n_cols))
    eligible = ~missing_mask(table).matrix
    for j in table.schema.indices_of(ColumnKind.TEXT):
        eligible[:, j] = False
    return Mask((draws < rate) & eligible)


# ---------------------------------------------------------------------------
# Schema and CSV files
# ---------------------------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in ColumnKind}


def save_schema(schema: DatasetSchema, path) -> None:
    """Plain-text schema file: directives, then one ``name:kind`` line per column."""
    lines = [f"dataset={schema.name}", f"missing_token={schema.missing_token}"]
    lines += [f"{c.name}:{c.kind.value}" for c in schema.columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_schema(path) -> DatasetSchema:
    name = "dataset"
    missing_token = ""
    columns: list[ColumnSpec] = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if line.startswith("dataset="):
                name = line[len("dataset="):]
            elif line.startswith("missing_token="):
                missing_token = line[len("missing_token="):]
            else:
                col_name, sep, kind_name = line.rpartition(":")
                if not sep or kind_name not in _KIND_BY_NAME:
                    raise QimputeError(
                        f"{path}: line {lineno}: expected 'name:kind' with kind in "
                        f"{sorted(_KIND_BY_NAME)}, got {line!r}"
                    )
                if col_name in first_line:
                    raise QimputeError(f"{path}: line {lineno}: column {col_name!r} "
                                       f"repeats line {first_line[col_name]}")
                first_line[col_name] = lineno
                columns.append(ColumnSpec(col_name, _KIND_BY_NAME[kind_name]))
    if not columns:
        raise QimputeError(f"{path}: schema file defines no columns")
    return DatasetSchema(tuple(columns), missing_token=missing_token, name=name)


def load_csv(path, schema: DatasetSchema) -> Table:
    """Parse a CSV against the schema.

    The header row must match the schema names in order. A field equal to
    the schema's missing token (or empty) loads as missing. Numeric parse
    failures, header mismatches and ragged rows are fatal, with 1-based
    row/column coordinates in the error.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvLoadError(f"{path}: file is empty") from None
        if tuple(header) != schema.names:
            raise CsvLoadError(
                f"{path}: header {header!r} does not match schema columns "
                f"{list(schema.names)!r}"
            )
        rows: list[list[CellValue]] = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != schema.n_columns:
                raise CsvLoadError(
                    f"{path}: ragged row with {len(record)} fields, "
                    f"expected {schema.n_columns}",
                    row=lineno,
                )
            row: list[CellValue] = []
            for j, text in enumerate(record):
                spec = schema.columns[j]
                if text == schema.missing_token or text == "":
                    row.append(None)
                elif spec.kind == ColumnKind.NUMERIC:
                    try:
                        value = float(text)
                    except ValueError:
                        raise CsvLoadError(
                            f"{path}: cannot parse {text!r} as a number",
                            row=lineno,
                            column=spec.name,
                        ) from None
                    if not math.isfinite(value):
                        raise CsvLoadError(
                            f"{path}: non-finite numeric value {text!r}",
                            row=lineno,
                            column=spec.name,
                        )
                    row.append(value)
                else:
                    row.append(text)
            rows.append(row)
    # every row has one cell per column and every numeric cell is a finite float
    return Table._unchecked(schema, rows)


def save_csv(table: Table, path) -> None:
    """Write the table; numeric cells carry 17 significant digits.

    Every table written round-trips exactly through :func:`load_csv`. A
    present cell whose field would equal the missing token or be empty
    would reload as missing, so it raises :class:`ContractViolation`
    naming the (0-based) table row and the column, and nothing is written.
    A record holding a carriage return is written with every field quoted:
    the writer quotes only fields holding a comma, a quote or a newline.
    """
    schema = table.schema
    records = [list(schema.names)]
    for r, row in enumerate(table.rows):
        record = []
        for spec, v in zip(schema.columns, row):
            if v is None:
                record.append(schema.missing_token)
                continue
            text = format(v, ".17g") if spec.kind == ColumnKind.NUMERIC else v
            if text == schema.missing_token or text == "":
                raise ContractViolation(
                    f"{path}: cell at row {r}, column {spec.name!r} is {text!r}, "
                    f"which would load back as missing"
                )
            record.append(text)
        records.append(record)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for record in records:
            (quote_all if any("\r" in text for text in record) else writer).writerow(record)


def save_mask(mask: Mask, schema: DatasetSchema, path) -> None:
    """Mask as CSV of 0/1 under the schema's column names.

    A mask with another number of columns than the schema's raises
    :class:`ContractViolation`, and nothing is written.
    """
    if mask.matrix.shape[1] != schema.n_columns:
        raise ContractViolation(
            f"{path}: mask has {mask.matrix.shape[1]} columns, "
            f"the schema has {schema.n_columns}"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema.names)
        for row in mask.matrix:
            writer.writerow(["1" if v else "0" for v in row])


def load_mask(path, schema: DatasetSchema) -> Mask:
    """Read a 0/1 mask CSV written by :func:`save_mask`.

    The header must match the schema; every record must have one field per
    column, each ``0`` or ``1``. Anything else is a :class:`CsvLoadError`
    with 1-based row/column coordinates.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvLoadError(f"{path}: mask file is empty") from None
        if tuple(header) != schema.names:
            raise CsvLoadError(f"{path}: mask header does not match schema")
        matrix = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != schema.n_columns:
                raise CsvLoadError(
                    f"{path}: ragged mask row with {len(record)} fields, "
                    f"expected {schema.n_columns}",
                    row=lineno,
                )
            for name, field in zip(schema.names, record):
                if field not in ("0", "1"):
                    raise CsvLoadError(
                        f"{path}: mask field {field!r} is not 0 or 1", row=lineno, column=name
                    )
            matrix.append([field == "1" for field in record])
    return Mask(np.array(matrix, dtype=bool).reshape(-1, schema.n_columns))
