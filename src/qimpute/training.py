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
from .errors import CheckpointError, ConfigError, FitError, TrainingDiverged
from .model import (
    Batch,
    ColumnHead,
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
    missing_mask,
)

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 1
IMPUTE_CLAMP_MARGIN = 0.1  # fraction of the fitted range allowed beyond min/max


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 30
    mask_rate: float = 0.15
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
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
    w = w - lr * (m/bc1) / (sqrt(v/bc2) + eps) in that order, so the
    trajectory is bitwise that of the out-of-place formula. ``grads`` is
    only read.
    """
    state.t += 1
    bc1 = 1.0 - config.beta1**state.t
    bc2 = 1.0 - config.beta2**state.t
    for name, tensor in params.tensors.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        tensor -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)


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
    both are treated as genuinely missing (mask tokens, never targets).
    Returns the trained parameters and the per-epoch mean loss.
    """
    observed = ~(missing_mask(table).matrix | mask.matrix)
    n_rows, n_cols = observed.shape

    eligible = observed.copy()
    for j in schema.indices_of(ColumnKind.TEXT):
        eligible[:, j] = False
    is_numeric = np.zeros(n_cols, dtype=bool)
    is_numeric[list(schema.indices_of(ColumnKind.NUMERIC))] = True

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
            batch = _assemble_batch(
                rows, sup, observed, features, num_targets, cat_targets, is_numeric, config
            )
            if batch.numeric_pos.shape[0] == 0 and batch.categorical_pos.shape[0] == 0:
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


def _assemble_batch(
    rows, sup, observed, features, num_targets, cat_targets, is_numeric, config
) -> Batch:
    token_masked = ~observed[rows] | sup
    sup_r, sup_c = np.nonzero(sup)
    numeric_sel = is_numeric[sup_c]
    numeric_pos = np.stack([sup_r[numeric_sel], sup_c[numeric_sel]], axis=1)
    cat_pos = np.stack([sup_r[~numeric_sel], sup_c[~numeric_sel]], axis=1)
    batch_rows = rows  # global row ids for target lookup
    return Batch(
        token_masked=token_masked,
        features=features[rows] * ~token_masked[..., None],
        numeric_pos=numeric_pos,
        numeric_targets=num_targets[batch_rows[numeric_pos[:, 0]], numeric_pos[:, 1]],
        categorical_pos=cat_pos,
        categorical_targets=cat_targets[batch_rows[cat_pos[:, 0]], cat_pos[:, 1]],
        loss_weights=(config.numeric_loss_weight, config.categorical_loss_weight),
    )


def impute_table(
    table: Table,
    mask: Mask,
    schema: DatasetSchema,
    stats: PreprocessStats,
    embedder: CellEmbedder,
    params: ModelParams,
    batch_rows: int = 256,
) -> Table:
    """Fill every missing non-text cell with the trained model's prediction.

    Numeric outputs are mapped back from normalized space to column units
    and clamped to the fitted range widened by 10% on each side;
    categorical outputs are the argmax category. Observed cells are copied
    unchanged; missing text cells stay missing.
    """
    observed = ~(missing_mask(table).matrix | mask.matrix)
    # embed_table zeroes every cell that is not observed: no masking needed
    features = embedder.embed_table(table, mask)
    cells = []
    for start in range(0, table.n_rows, batch_rows):
        rows = np.arange(start, min(start + batch_rows, table.n_rows))
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
    """Everything needed to re-run imputation: params, stats, embedder recipe."""

    params: ModelParams
    stats: PreprocessStats
    schema: DatasetSchema
    variant: EmbedderVariant
    embed_seed: int
    n_qubits: int
    n_layers: int
    text_dim: int

    def build_embedder(self, text_embeddings=None) -> CellEmbedder:
        return CellEmbedder(
            self.schema,
            self.stats,
            self.variant,
            seed=self.embed_seed,
            n_qubits=self.n_qubits,
            n_layers=self.n_layers,
            text_embeddings=text_embeddings,
        )


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
    return out


def _stats_from_json(data: dict) -> PreprocessStats:
    per_column: dict = {}
    for name, entry in data.items():
        if entry["kind"] == "numeric":
            per_column[name] = NumericColumnStats(vmin=entry["min"], vmax=entry["max"])
        elif entry["kind"] == "categorical":
            per_column[name] = CategoricalColumnStats(vocabulary=tuple(entry["vocabulary"]))
        else:
            per_column[name] = TextColumnStats(
                dim=entry["dim"],
                dim_min=np.array(entry["dim_min"]),
                dim_max=np.array(entry["dim_max"]),
            )
    return PreprocessStats(per_column=per_column)


def _savez_deterministic(path, arrays: dict[str, np.ndarray]) -> None:
    """npz writer with fixed zip timestamps so identical inputs give identical bytes."""
    import io
    import zipfile

    from numpy.lib import format as npformat

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name, array in arrays.items():
            buffer = io.BytesIO()
            npformat.write_array(buffer, np.asarray(array))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buffer.getvalue())


def save_checkpoint(path, bundle: CheckpointBundle) -> None:
    """Single-file npz: version + schema + stats + embedder recipe + tensors."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_config": asdict(bundle.params.config),
        "mlp_d_in": bundle.params.mlp_d_in,
        "columns": [
            [h.name, h.kind.value, list(h.vocabulary) if h.vocabulary else None]
            for h in bundle.params.columns
        ],
        "schema": {
            "name": bundle.schema.name,
            "missing_token": bundle.schema.missing_token,
            "columns": [[c.name, c.kind.value] for c in bundle.schema.columns],
        },
        "stats": _stats_to_json(bundle.stats),
        "embedder": {
            "variant": bundle.variant.value,
            "seed": bundle.embed_seed,
            "n_qubits": bundle.n_qubits,
            "n_layers": bundle.n_layers,
            "text_dim": bundle.text_dim,
        },
    }
    arrays: dict[str, np.ndarray] = {"__checkpoint_meta__": np.array(json.dumps(meta))}
    arrays.update({f"tensor/{k}": v for k, v in bundle.params.tensors.items()})
    _savez_deterministic(path, arrays)


def load_checkpoint(path, expected_schema: DatasetSchema | None = None) -> CheckpointBundle:
    """Load a checkpoint; verifies the schema signature when one is given."""
    with np.load(path, allow_pickle=False) as archive:
        if "__checkpoint_meta__" not in archive:
            raise CheckpointError(f"{path}: not a model checkpoint")
        meta = json.loads(str(archive["__checkpoint_meta__"]))
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {meta.get('format_version')}"
            )
        tensors = {
            k[len("tensor/"):]: archive[k] for k in archive.files if k.startswith("tensor/")
        }
    schema = DatasetSchema(
        tuple(
            ColumnSpec(name, ColumnKind(kind)) for name, kind in meta["schema"]["columns"]
        ),
        missing_token=meta["schema"]["missing_token"],
        name=meta["schema"]["name"],
    )
    if expected_schema is not None:
        ours = [(c.name, c.kind.value) for c in expected_schema.columns]
        theirs = meta["schema"]["columns"]
        theirs = [(n, k) for n, k in theirs]
        if ours != theirs:
            raise CheckpointError(
                f"{path}: checkpoint schema {theirs} does not match the current "
                f"schema {ours}"
            )
    columns = tuple(
        ColumnHead(name, ColumnKind(kind), tuple(vocab) if vocab else None)
        for name, kind, vocab in meta["columns"]
    )
    config = ModelConfig(**meta["model_config"])
    stats = _stats_from_json(meta["stats"])
    expected = init_params(schema, stats, config, seed=0, mlp_d_in=meta["mlp_d_in"]).tensors
    for name, reference in expected.items():
        if name not in tensors or tensors[name].shape != reference.shape:
            found = tensors[name].shape if name in tensors else "missing"
            raise CheckpointError(
                f"{path}: tensor {name!r} is {found}, expected shape {reference.shape}"
            )
    extra = [name for name in tensors if name not in expected]
    if extra:
        raise CheckpointError(f"{path}: unexpected tensor {extra[0]!r}")
    params = ModelParams(
        config=config, columns=columns, tensors=tensors, mlp_d_in=meta["mlp_d_in"]
    )
    return CheckpointBundle(
        params=params,
        stats=stats,
        schema=schema,
        variant=EmbedderVariant(meta["embedder"]["variant"]),
        embed_seed=meta["embedder"]["seed"],
        n_qubits=meta["embedder"]["n_qubits"],
        n_layers=meta["embedder"]["n_layers"],
        text_dim=meta["embedder"]["text_dim"],
    )
