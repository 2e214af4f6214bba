"""Training loop, Adam optimizer, table imputation, and model checkpoints.

Training is BERT-style self-supervision: each batch redraws a set of
observed non-text cells, replaces their tokens with the learned mask
vector, and asks the heads to reconstruct them. Genuinely missing cells
are always mask tokens and never contribute to the loss. Numeric targets
live in min-max normalized [0, 1] space.

Everything is reproducible bitwise from the config seed: weight init,
epoch shuffling and supervision draws use separate named substreams.
"""

from __future__ import annotations

import json
import logging
import math
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .encoding import (
    CategoricalColumnStats,
    CellEmbedder,
    EmbedderVariant,
    NumericColumnStats,
    PreprocessStats,
    TextColumnStats,
)
from .errors import CheckpointError, ConfigError, ContractViolation, FitError, TrainingDiverged
from .model import (
    Batch,
    ModelConfig,
    ModelParams,
    init_params,
    loss_and_gradients,
    predict_masked,
)
from .rng import SHUFFLE, SUPERVISION, substream
from .tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    observed_cells,
)

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 1
IMPUTE_CLAMP_MARGIN = 0.1  # fraction of the fitted range allowed beyond min/max
_IMPUTE_BLOCK_ROWS = 64  # rows per impute_table block; bounds the model's working memory
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 30
    mask_rate: float = 0.15
    seed: int = 0
    numeric_loss_weight: float = 1.0
    categorical_loss_weight: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.mask_rate < 1.0:
            raise ConfigError(f"mask_rate must be in (0, 1), got {self.mask_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=params.zero_like_tensors(), v=params.zero_like_tensors())


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place.

    ``m``, ``v`` and the tensors are overwritten, not rebound, with the
    operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
    w = w - lr * (m/bc1) / (sqrt(v/bc2) + eps) in that order (b1, b2, eps:
    the ``ADAM_*`` constants), so the trajectory is bitwise that of the
    out-of-place formula. ``grads`` is only read.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, tensor in params.tensors.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        tensor -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


@dataclass
class TrainResult:
    params: ModelParams
    loss_history: list[float]
    empty_batches: int = 0


def _targets(
    table: Table, observed: np.ndarray, schema: DatasetSchema, stats: PreprocessStats
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized numeric and category-code targets at the observed cells.

    Every other position holds 0 and is never supervised. An observed
    category missing from the fitted vocabulary is a fit error, not a
    silent class-0 target.
    """
    num_targets = np.zeros(observed.shape)
    cat_targets = np.zeros(observed.shape, dtype=int)
    for j, spec in enumerate(schema.columns):
        rows = np.flatnonzero(observed[:, j])
        values = table.column(j, rows)
        col = stats.for_column(spec.name)
        if spec.kind == ColumnKind.NUMERIC:
            num_targets[rows, j] = col.normalize(values)
        elif spec.kind == ColumnKind.CATEGORICAL:
            codes = col.codes(values)
            unknown = np.flatnonzero(codes < 0)
            if unknown.size:
                raise FitError(
                    f"column {spec.name!r}: training category {values[unknown[0]]!r} "
                    f"(row {rows[unknown[0]]}) is not in the fitted vocabulary"
                )
            cat_targets[rows, j] = codes
    return num_targets, cat_targets


def _embedders_own(schema, stats, embedder: CellEmbedder):
    """The embedder's schema and stats; a caller's that are not the embedder's raise."""
    if schema.columns != embedder.schema.columns or stats is not embedder.stats:
        raise ContractViolation("the schema and stats passed must be the embedder's own")
    return embedder.schema, embedder.stats


def train(
    table: Table,
    mask: Mask,
    schema: DatasetSchema,
    stats: PreprocessStats,
    embedder: CellEmbedder,
    model_config: ModelConfig,
    config: TrainConfig,
) -> TrainResult:
    """Train a fresh model on the working table's observed cells.

    ``mask`` marks held-out cells on top of the table's own missing cells;
    both are treated as genuinely missing (mask tokens, never targets). A
    mask of another shape than the table's is a :class:`ContractViolation`.
    Returns the trained parameters and the per-epoch mean loss. ``schema``
    and ``stats`` must be the embedder's own.
    """
    schema, stats = _embedders_own(schema, stats, embedder)
    observed = observed_cells(table, mask)
    n_rows, n_cols = observed.shape

    eligible = observed.copy()
    for j in schema.indices_of(ColumnKind.TEXT):
        eligible[:, j] = False

    num_targets, cat_targets = _targets(table, observed, schema, stats)
    features = embedder.embed_table(table, mask)
    params = init_params(
        schema, stats, model_config, seed=config.seed, mlp_d_in=embedder.mlp_d_in
    )
    adam = AdamState.for_params(params)
    rng_shuffle = substream(config.seed, SHUFFLE)
    rng_sup = substream(config.seed, SUPERVISION)

    loss_history: list[float] = []
    empty_batches = 0
    for epoch in range(config.epochs):
        order = rng_shuffle.permutation(n_rows)
        batch_losses: list[float] = []
        for start in range(0, n_rows, config.batch_size):
            rows = order[start : start + config.batch_size]
            sup = (rng_sup.random((rows.size, n_cols)) < config.mask_rate) & eligible[rows]
            batch = Batch(
                token_masked=~observed[rows] | sup,
                features=features[rows],
                supervised=sup,
                numeric_targets=num_targets[rows],
                categorical_targets=cat_targets[rows],
                loss_weights=(config.numeric_loss_weight, config.categorical_loss_weight),
            )
            if not sup.any():
                empty_batches += 1
                if empty_batches == 1:
                    logger.warning("batch with no supervision targets; loss defined as 0")
            breakdown, grads = loss_and_gradients(params, batch)
            if not np.isfinite(breakdown.total):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch + 1}, batch "
                    f"{start // config.batch_size + 1}; try a smaller learning rate "
                    f"(current: {config.learning_rate})"
                )
            adam_step(params, grads, adam, config)
            batch_losses.append(breakdown.total)
        loss_history.append(float(np.mean(batch_losses)))
    return TrainResult(params=params, loss_history=loss_history, empty_batches=empty_batches)


def impute_table(
    table: Table,
    mask: Mask,
    schema: DatasetSchema,
    stats: PreprocessStats,
    embedder: CellEmbedder,
    params: ModelParams,
) -> Table:
    """Fill every missing non-text cell with the trained model's prediction.

    The model runs on ``_IMPUTE_BLOCK_ROWS`` rows at a time, which bounds memory;
    a row's prediction depends on neither the block nor its place in it.
    Numeric outputs are mapped back from normalized space to column units
    and clamped to the fitted range widened by 10% on each side;
    categorical outputs are the argmax category. Observed cells are copied
    unchanged; missing text cells stay missing. A mask of another shape
    than the table's is a :class:`ContractViolation`. ``schema`` and ``stats``
    must be the embedder's own.
    """
    schema, stats = _embedders_own(schema, stats, embedder)
    observed = observed_cells(table, mask)
    features = embedder.embed_table(table, mask)
    cells = []
    for start in range(0, table.n_rows, _IMPUTE_BLOCK_ROWS):
        rows = np.arange(start, min(start + _IMPUTE_BLOCK_ROWS, table.n_rows))
        batch = Batch(token_masked=~observed[rows], features=features[rows])
        preds = predict_masked(params, batch)
        for col, (batch_row_idx, values) in preds.items():
            spec = schema.columns[col]
            col_stats = stats.for_column(spec.name)
            if spec.kind == ColumnKind.NUMERIC:
                margin = IMPUTE_CLAMP_MARGIN * col_stats.span
                lo, hi = col_stats.vmin - margin, col_stats.vmax + margin
                fills = np.clip(col_stats.denormalize(values), lo, hi).tolist()
            else:
                fills = [col_stats.vocabulary[c] for c in np.argmax(values, axis=1)]
            cells.append((col, rows[batch_row_idx], fills))
    return table.filled(cells)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class CheckpointBundle:
    """Everything needed to re-run imputation: the params and their embedder."""

    params: ModelParams
    embedder: CellEmbedder


def _stats_to_json(stats: PreprocessStats) -> dict:
    out = {}
    for name, col in stats.per_column.items():
        if isinstance(col, NumericColumnStats):
            out[name] = {"kind": "numeric", "min": col.vmin, "max": col.vmax}
        elif isinstance(col, CategoricalColumnStats):
            out[name] = {"kind": "categorical", "vocabulary": list(col.vocabulary)}
        else:
            out[name] = {
                "kind": "text",
                "dim": col.dim,
                "dim_min": col.dim_min.tolist(),
                "dim_max": col.dim_max.tolist(),
            }
            if col.vectors:
                # JSON floats round-trip exactly; the vectors are keyed by text
                out[name]["vectors"] = {t: v.tolist() for t, v in col.vectors.items()}
    return out


def _stats_from_json(data: dict) -> PreprocessStats:
    per_column: dict = {}
    for name, entry in data.items():
        if entry["kind"] == "numeric":
            per_column[name] = NumericColumnStats(vmin=entry["min"], vmax=entry["max"])
        elif entry["kind"] == "categorical":
            per_column[name] = CategoricalColumnStats(vocabulary=tuple(entry["vocabulary"]))
        else:
            vectors = {t: np.array(v, dtype=float) for t, v in entry.get("vectors", {}).items()}
            if any(v.shape != (entry["dim"],) for v in vectors.values()):
                raise ValueError(f"a text vector of column {name!r} is not {entry['dim']} wide")
            per_column[name] = TextColumnStats(
                dim=entry["dim"],
                dim_min=np.array(entry["dim_min"]),
                dim_max=np.array(entry["dim_max"]),
                vectors=vectors,
            )
    return PreprocessStats(per_column=per_column)


def _savez_deterministic(path, arrays: dict[str, np.ndarray]) -> None:
    """npz writer with fixed zip timestamps so identical inputs give identical bytes."""
    import io

    from numpy.lib import format as npformat

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name, array in arrays.items():
            buffer = io.BytesIO()
            npformat.write_array(buffer, np.asarray(array))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buffer.getvalue())


def save_checkpoint(path, bundle: CheckpointBundle) -> None:
    """Single-file npz: version + schema + stats + embedder recipe + tensors, nothing derivable.

    A text column's stats carry its precomputed text vectors, if it has any.
    """
    embedder = bundle.embedder
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_config": asdict(bundle.params.config),
        "schema": {
            "name": embedder.schema.name,
            "missing_token": embedder.schema.missing_token,
            "columns": [[c.name, c.kind.value] for c in embedder.schema.columns],
        },
        "stats": _stats_to_json(embedder.stats),
        "embedder": {
            "variant": embedder.variant.value,
            "seed": embedder.seed,
            "n_layers": embedder.n_layers,
        },
    }
    arrays: dict[str, np.ndarray] = {"__checkpoint_meta__": np.array(json.dumps(meta))}
    arrays.update({f"tensor/{k}": v for k, v in bundle.params.tensors.items()})
    _savez_deterministic(path, arrays)


# Derivable metadata that earlier files also stored; read by nothing.
_IGNORED_META = {"": ("columns", "mlp_d_in"), "embedder": ("n_qubits", "text_dim")}


def _meta_entry(meta: dict, names: tuple[str, ...], section: str = "") -> list:
    """The values of ``names`` in one metadata section; any other key is an error."""
    unknown = set(meta) - set(names) - set(_IGNORED_META.get(section, ()))
    if unknown:
        raise TypeError(f"unknown key {min(unknown)!r} in {section or 'the metadata'}")
    return [meta[name] for name in names]


def load_checkpoint(path, expected_schema: DatasetSchema | None = None) -> CheckpointBundle:
    """Load a checkpoint; verifies the schema signature when one is given.

    Malformed metadata, or tensors it does not imply, raise ``CheckpointError``.
    """
    try:
        # A file np.load cannot read as an archive (a CSV, a truncated zip, a
        # bare .npy array) fails in one of these; a missing file stays an OSError.
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise TypeError("not an archive")
        with archive:
            meta_text = str(archive["__checkpoint_meta__"])
            tensors = {
                k[len("tensor/"):]: archive[k] for k in archive.files if k.startswith("tensor/")
            }
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        raise CheckpointError(f"{path}: not a model checkpoint") from None
    try:
        meta = json.loads(meta_text)
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {meta.get('format_version')}"
            )
        _, model_config, schema_meta, stats_meta, embedder_meta = _meta_entry(
            meta, ("format_version", "model_config", "schema", "stats", "embedder")
        )
        schema_name, missing_token, columns = _meta_entry(
            schema_meta, ("name", "missing_token", "columns"), "schema"
        )
        schema = DatasetSchema(
            tuple(ColumnSpec(name, ColumnKind(kind)) for name, kind in columns),
            missing_token=missing_token,
            name=schema_name,
        )
        if expected_schema is not None and expected_schema.columns != schema.columns:
            ours = [(c.name, c.kind.value) for c in expected_schema.columns]
            theirs = [(c.name, c.kind.value) for c in schema.columns]
            raise CheckpointError(
                f"{path}: checkpoint schema {theirs} does not match the current "
                f"schema {ours}"
            )
        variant, embed_seed, n_layers = _meta_entry(
            embedder_meta, ("variant", "seed", "n_layers"), "embedder"
        )
        config = ModelConfig(**model_config)
        stats = _stats_from_json(stats_meta)
        embedder = CellEmbedder(
            schema, stats, EmbedderVariant(variant), seed=embed_seed,
            n_qubits=config.embed_dim, n_layers=n_layers,
        )
        expected = init_params(schema, stats, config, seed=0, mlp_d_in=embedder.mlp_d_in).tensors
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: malformed checkpoint metadata ({type(exc).__name__}: {exc})"
        ) from None
    for name, reference in expected.items():
        if name not in tensors or tensors[name].shape != reference.shape:
            found = tensors[name].shape if name in tensors else "missing"
            raise CheckpointError(
                f"{path}: tensor {name!r} is {found}, expected shape {reference.shape}"
            )
    extra = [name for name in tensors if name not in expected]
    if extra:
        raise CheckpointError(f"{path}: unexpected tensor {extra[0]!r}")
    params = ModelParams(config=config, columns=schema.columns, tensors=tensors)
    return CheckpointBundle(params=params, embedder=embedder)
