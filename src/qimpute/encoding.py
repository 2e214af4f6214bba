"""Mixed-type cell encoding and the interchangeable cell-embedding variants.

Observed cells are first turned into classical feature vectors, one
column at a time, by :func:`encode_column`: numerics become a single angle
in [0, pi] via a fitted min-max map, categoricals a pi-scaled one-hot, and
text a deterministic hashed bag-of-words vector (or a precomputed one)
rescaled per dimension to [0, pi]. ``CellEmbedder.classical_vector`` is its
one-row form. From there one of three variants produces the per-cell
embedding:

* ``QUANTUM_IQP``: a fixed seeded linear projection maps the classical
  vector to circuit angles; the embedding is the circuit's vector of
  Pauli-Z expectations (always inside [-1, 1]).
* ``RANDOM_PROJECTION``: the same style of fixed seeded linear map,
  straight to the embedding space, no nonlinearity.
* ``CLASSICAL_MLP``: a small trainable perceptron whose weights live in
  the downstream model and train jointly; this module only supplies the
  (zero-padded) classical vectors, through the same ``embed_table``.

Missing cells are never encoded; attempting to is a contract violation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, ContractViolation, FitError, QimputeError
from .quantum import IqpParams, iqp_expectations
from .rng import EMBED, PROJECTION, substream
from .tabular import CellValue, ColumnKind, ColumnSpec, DatasetSchema, Mask, Table, missing_mask

logger = logging.getLogger(__name__)

DEFAULT_TEXT_DIM = 16


class EmbedderVariant(Enum):
    QUANTUM_IQP = "quantum_iqp"
    CLASSICAL_MLP = "classical_mlp"
    RANDOM_PROJECTION = "random_projection"


# ---------------------------------------------------------------------------
# Preprocessing statistics
# ---------------------------------------------------------------------------


@dataclass
class NumericColumnStats:
    vmin: float
    vmax: float

    @property
    def degenerate(self) -> bool:
        return self.vmax == self.vmin

    @property
    def span(self) -> float:
        return self.vmax - self.vmin

    def normalize(self, x) -> np.ndarray:
        """Min-max map to [0, 1] over the fitted range; 0 for a degenerate column."""
        x = np.asarray(x, dtype=np.float64)
        if self.degenerate:
            return np.zeros_like(x)
        return (x - self.vmin) / self.span

    def denormalize(self, x) -> np.ndarray:
        """Inverse of :meth:`normalize`, back to column units."""
        return np.asarray(x, dtype=np.float64) * self.span + self.vmin


@dataclass
class CategoricalColumnStats:
    vocabulary: tuple[str, ...]

    def codes(self, values) -> np.ndarray:
        """Vocabulary index of each value, compared as ``str``; -1 when unknown."""
        index = {category: i for i, category in enumerate(self.vocabulary)}
        return np.array([index.get(str(v), -1) for v in values], dtype=int)


@dataclass
class TextColumnStats:
    dim: int
    dim_min: np.ndarray
    dim_max: np.ndarray


ColumnStats = NumericColumnStats | CategoricalColumnStats | TextColumnStats


@dataclass
class PreprocessStats:
    """Per-column fit results, keyed by column name in schema order."""

    per_column: dict[str, ColumnStats]

    def for_column(self, name: str) -> ColumnStats:
        return self.per_column[name]

    def feature_width(self, name: str) -> int:
        stats = self.per_column[name]
        if isinstance(stats, NumericColumnStats):
            return 1
        if isinstance(stats, CategoricalColumnStats):
            return len(stats.vocabulary)
        return stats.dim


@dataclass(frozen=True)
class TextEmbeddings:
    """Precomputed text vectors keyed by (row index, column name).

    When supplied for a text column these override the hashing embedder,
    both at fit time and at encode time.
    """

    dim: int
    vectors: dict[tuple[int, str], np.ndarray]

    def lookup(self, row: int, column: str) -> np.ndarray | None:
        return self.vectors.get((row, column))


def load_text_embeddings(path) -> TextEmbeddings:
    """Load a precomputed-embedding CSV: row_id, column_name, e_0..e_{dim-1}."""
    import csv as _csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[:2] != ["row_id", "column_name"]:
            raise QimputeError(
                f"{path}: expected header row_id,column_name,e_0,... got {header!r}"
            )
        dim = len(header) - 2
        expected = [f"e_{i}" for i in range(dim)]
        if header[2:] != expected:
            raise QimputeError(f"{path}: embedding columns must be e_0..e_{dim - 1}")
        vectors: dict[tuple[int, str], np.ndarray] = {}
        for record in reader:
            where = f"{path}, line {reader.line_num}"
            if len(record) != len(header):
                raise QimputeError(
                    f"{where}: expected {len(header)} fields, got {len(record)}"
                )
            try:
                row_id = int(record[0])
                vec = np.array([float(x) for x in record[2:]], dtype=np.float64)
            except ValueError as exc:
                raise QimputeError(f"{where}: {exc}") from None
            if not np.all(np.isfinite(vec)):
                raise QimputeError(
                    f"{where}: non-finite text embedding for row {row_id}, "
                    f"column {record[1]!r}"
                )
            vectors[(row_id, record[1])] = vec
    return TextEmbeddings(dim=dim, vectors=vectors)


def text_embed_hashing(text: str, dim: int) -> np.ndarray:
    """Deterministic signed bag-of-words feature hashing.

    Tokens are lowercased whitespace splits; each token's 64-bit FNV-1a
    hash selects a bucket (mod dim) and a sign (bit 63). Nonzero vectors
    are L2-normalized; empty or whitespace-only text gives the zero vector.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    out = np.zeros(dim, dtype=np.float64)
    for token in text.lower().split():
        h = _fnv1a_64(token.encode("utf-8"))
        sign = -1.0 if (h >> 63) & 1 else 1.0
        out[h % dim] += sign
    norm = np.linalg.norm(out)
    if norm > 0.0:
        out /= norm
    return out


def _fnv1a_64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def fit_preprocessor(
    table: Table,
    schema: DatasetSchema,
    text_dim: int = DEFAULT_TEXT_DIM,
    text_embeddings: TextEmbeddings | None = None,
) -> PreprocessStats:
    """Fit every column's normalization constants from its observed cells."""
    observed = ~missing_mask(table).matrix
    per_column: dict[str, ColumnStats] = {}
    for j, spec in enumerate(schema.columns):
        rows = np.flatnonzero(observed[:, j]).tolist()
        per_column[spec.name] = fit_column(
            spec, table.column(j, rows), rows, text_dim, text_embeddings
        )
    return PreprocessStats(per_column=per_column)


def fit_column(
    spec: ColumnSpec,
    values: list[CellValue],
    rows: list[int] | None = None,
    text_dim: int = DEFAULT_TEXT_DIM,
    text_embeddings: TextEmbeddings | None = None,
) -> ColumnStats:
    """Fit one column from its observed values.

    Numeric columns record observed min/max, categoricals a vocabulary in
    first-appearance order, text columns the per-dimension range of the
    embedder output (``rows`` are the values' row ids, for looking up
    precomputed text vectors). A column with zero observed values is a fit
    error.
    """
    if not values:
        raise FitError(f"column {spec.name!r} has no observed values")
    if spec.kind == ColumnKind.NUMERIC:
        return NumericColumnStats(vmin=float(min(values)), vmax=float(max(values)))
    if spec.kind == ColumnKind.CATEGORICAL:
        return CategoricalColumnStats(vocabulary=tuple(dict.fromkeys(values)))
    if text_embeddings is None:
        # Min and max over the distinct values' vectors are those over all cells.
        dim = text_dim
        raw = np.stack([text_embed_hashing(v, dim) for v in dict.fromkeys(values)])
    else:
        dim = text_embeddings.dim
        raw = np.stack(
            [_raw_text_vector(r, spec.name, v, dim, text_embeddings) for r, v in zip(rows, values)]
        )
    return TextColumnStats(dim=dim, dim_min=raw.min(axis=0), dim_max=raw.max(axis=0))


def _raw_text_vector(
    row: int,
    column: str,
    value: str,
    dim: int,
    text_embeddings: TextEmbeddings | None,
) -> np.ndarray:
    if text_embeddings is not None:
        override = text_embeddings.lookup(row, column)
        if override is not None:
            if override.shape != (dim,):
                raise QimputeError(
                    f"text embedding for (row {row}, {column!r}) has shape "
                    f"{override.shape}, expected ({dim},)"
                )
            return override
    return text_embed_hashing(value, dim)


# ---------------------------------------------------------------------------
# Classical feature vectors
# ---------------------------------------------------------------------------


def encode_column(
    values: list[CellValue],
    kind: ColumnKind,
    stats: ColumnStats,
    column: str = "",
    raw_text: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Observed cells of one column -> (len(values), width) features in [0, pi].

    ``raw_text`` holds, per cell, the text vector to scale in place of the
    hashed value (``CellEmbedder`` passes its precomputed overrides).
    Encoding a missing value is a contract violation, not a silent zero.
    Each unknown category encoded logs one warning and maps to the
    all-zeros vector.
    """
    if any(v is None for v in values):
        raise ContractViolation(f"attempted to encode a missing cell in column {column!r}")
    if kind == ColumnKind.NUMERIC:
        assert isinstance(stats, NumericColumnStats)
        if stats.degenerate:
            return np.zeros((len(values), 1))
        # Scaled before dividing, unlike pi * stats.normalize(x), which
        # rounds differently and would move every embedding's last bits.
        x = np.array([float(v) for v in values], dtype=np.float64)
        angles = np.pi * (x - stats.vmin) / stats.span
        return np.clip(angles, 0.0, np.pi)[:, None]
    if kind == ColumnKind.CATEGORICAL:
        assert isinstance(stats, CategoricalColumnStats)
        codes = stats.codes(values)
        out = np.zeros((len(values), len(stats.vocabulary)))
        known = np.flatnonzero(codes >= 0)
        out[known, codes[known]] = np.pi
        for i in np.flatnonzero(codes < 0):
            logger.warning(
                "unknown category %r in column %r mapped to all-zeros", values[i], column
            )
        return out
    assert isinstance(stats, TextColumnStats)
    if not values:
        return np.zeros((0, stats.dim))
    if raw_text is None:
        raw_text = [text_embed_hashing(str(v), stats.dim) for v in values]
    span = stats.dim_max - stats.dim_min
    scaled = np.where(
        span > 0.0, (np.stack(raw_text) - stats.dim_min) / np.where(span > 0, span, 1.0), 0.0
    )
    return np.clip(scaled, 0.0, 1.0) * np.pi


# ---------------------------------------------------------------------------
# Angle projection and embedding variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleProjection:
    """Fixed seeded linear map from classical features to circuit angles."""

    matrix: np.ndarray
    seed: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[1]


def make_angle_projection(seed: int, d_in: int, d_out: int, *keys: int) -> AngleProjection:
    """Entries uniform on [-1, 1] scaled by 1/sqrt(d_in); bitwise-reproducible."""
    rng = substream(seed, PROJECTION, d_in, d_out, *keys)
    matrix = rng.uniform(-1.0, 1.0, size=(d_in, d_out)) / np.sqrt(d_in)
    return AngleProjection(matrix=matrix, seed=seed)


def project_to_angles(x_c: np.ndarray, proj: AngleProjection, n_layers: int) -> IqpParams:
    """x -> angles: singles are the projected vector, pairs its outer products.

    The same angle set is replicated across all layers.
    """
    values = np.asarray(x_c)
    if values.shape != (proj.d_in,):
        raise ValueError(
            f"feature vector has shape {values.shape}, projection expects ({proj.d_in},)"
        )
    projected = values @ proj.matrix
    n = proj.d_out
    iu = np.triu_indices(n, k=1)
    pairs = (projected[:, None] * projected[None, :])[iu]
    return IqpParams.replicated(projected, pairs, n_layers)


def _project(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(B, d_in) @ (d_in, d_out), accumulated one input feature at a time.

    A BLAS matmul sums in an order that depends on the batch size (gemv for
    one row, gemm for several), which would make a cell's embedding depend
    on the batch it was computed in; a fixed order keeps rows independent.
    """
    out = x[:, :1] * matrix[0]
    for i in range(1, matrix.shape[0]):
        out += x[:, i : i + 1] * matrix[i]
    return out


class CellEmbedder:
    """Per-cell embedding provider bound to a fitted preprocessor.

    For the fixed variants (quantum, random projection) embeddings are
    deterministic functions of (schema, stats, seed, value) and are
    memoized per (column, value). They are computed one batch per column,
    and a cell's embedding does not depend on the batch it is computed in,
    so :meth:`embed` and :meth:`embed_table` agree bitwise whatever the
    order of calls. The trainable MLP variant has no fixed embedding: its
    :meth:`embed_table` returns the padded classical vectors, and the
    perceptron weights live in the model.
    """

    def __init__(
        self,
        schema: DatasetSchema,
        stats: PreprocessStats,
        variant: EmbedderVariant,
        seed: int,
        n_qubits: int = 8,
        n_layers: int = 2,
        text_embeddings: TextEmbeddings | None = None,
    ):
        if n_qubits < 1:
            raise ConfigError(f"n_qubits must be >= 1, got {n_qubits}")
        if n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
        self.schema = schema
        self.stats = stats
        self.variant = variant
        self.seed = seed
        self.n_qubits = n_qubits
        self.n_layers = n_layers
        self.embed_dim = n_qubits
        self.text_embeddings = text_embeddings
        self._widths = [stats.feature_width(c.name) for c in schema.columns]
        self.d_in_max = max(self._widths)
        # the model's MLP input width; 0 when the variant's embedding is fixed
        self.mlp_d_in = self.d_in_max if variant == EmbedderVariant.CLASSICAL_MLP else 0
        # One fixed (width, n_qubits) matrix per column, each from its own
        # substream: to circuit angles (quantum) or to the embedding (random).
        self._proj: list[np.ndarray] = []
        if variant == EmbedderVariant.QUANTUM_IQP:
            self._proj = [
                make_angle_projection(seed, width, n_qubits, j).matrix
                for j, width in enumerate(self._widths)
            ]
        elif variant == EmbedderVariant.RANDOM_PROJECTION:
            self._proj = [
                substream(seed, EMBED, j).uniform(-1.0, 1.0, size=(width, n_qubits))
                / np.sqrt(width)
                for j, width in enumerate(self._widths)
            ]
        self._cache: dict[tuple[int, CellValue], np.ndarray] = {}

    def classical_vector(self, row: int, col: int, value: CellValue) -> np.ndarray:
        """Classical features of one observed cell (one-row :func:`encode_column`)."""
        return self._encode(col, [row], [value])[0]

    def _encode(self, col: int, rows: list[int], values: list[CellValue]) -> np.ndarray:
        """(len(rows), width) classical features of observed cells of one column."""
        spec = self.schema.columns[col]
        stats = self.stats.for_column(spec.name)
        raw_text = None
        if spec.kind == ColumnKind.TEXT and self.text_embeddings is not None:
            raw_text = [
                _raw_text_vector(r, spec.name, v, stats.dim, self.text_embeddings)
                for r, v in zip(rows, values)
            ]
        return encode_column(values, spec.kind, stats, spec.name, raw_text)

    def embed(self, row: int, col: int, value: CellValue) -> np.ndarray:
        """Fixed-variant embedding of one observed cell."""
        return self._embed_column(col, [row], [value])[0]

    def embed_table(self, table: Table, mask: Mask | None = None) -> np.ndarray:
        """The model input: (rows, columns, width), zeros at missing/masked cells.

        The width is ``embed_dim`` for the fixed variants, whose cells are
        embedded here. The MLP variant's input is each cell's classical
        vector zero-padded to ``mlp_d_in``; the model embeds it.
        """
        observed = ~missing_mask(table).matrix
        if mask is not None:
            observed &= ~mask.matrix
        out = np.zeros((table.n_rows, self.schema.n_columns, self.mlp_d_in or self.embed_dim))
        for c in range(self.schema.n_columns):
            rows = np.flatnonzero(observed[:, c]).tolist()
            if not rows:
                continue
            values = table.column(c, rows)
            if self.mlp_d_in:
                out[rows, c, : self._widths[c]] = self._encode(c, rows, values)
            else:
                out[rows, c] = self._embed_column(c, rows, values)
        return out

    def _embed_column(self, col: int, rows: list[int], values: list[CellValue]) -> np.ndarray:
        """(len(rows), embed_dim) embeddings of observed cells of one column.

        The column's distinct uncached values, plus every cell with a
        precomputed text override (those are never cached), are encoded and
        embedded as one batch; all other cells are read from the memo.
        """
        if self.variant == EmbedderVariant.CLASSICAL_MLP:
            raise ContractViolation(
                "the classical-MLP variant has no fixed embedding; its weights "
                "live in the model and are applied during the forward pass"
            )
        spec = self.schema.columns[col]
        overrides = self.text_embeddings if spec.kind == ColumnKind.TEXT else None
        batch: list[tuple[int, CellValue]] = []
        fresh: dict[CellValue, int] = {}  # uncached value -> batch slot
        override_slot: dict[int, int] = {}  # cell position -> batch slot
        for i, (r, v) in enumerate(zip(rows, values)):
            if overrides is not None and overrides.lookup(r, spec.name) is not None:
                override_slot[i] = len(batch)
                batch.append((r, v))
            elif (col, v) not in self._cache and v not in fresh:
                fresh[v] = len(batch)
                batch.append((r, v))
        if batch:
            x = self._encode(col, [r for r, _ in batch], [v for _, v in batch])
            vectors = _project(x, self._proj[col])
            if self.variant == EmbedderVariant.QUANTUM_IQP:
                # The projection gives circuit angles. project_to_angles
                # replicates one angle set over the layers, so the
                # layer-summed angles are n_layers times that set.
                angles = vectors
                js, ks = np.triu_indices(self.n_qubits, k=1)
                vectors = iqp_expectations(
                    self.n_layers * angles, self.n_layers * (angles[:, js] * angles[:, ks])
                )
            for v, slot in fresh.items():
                self._cache[(col, v)] = vectors[slot]
        return np.stack(
            [
                vectors[override_slot[i]] if i in override_slot else self._cache[(col, v)]
                for i, v in enumerate(values)
            ]
        )
