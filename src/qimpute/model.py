"""Row-wise masked transformer over cell embeddings, with analytic gradients.

One table row is one attention context: each column contributes a token
built from its cell embedding (or a learned mask vector when the cell is
missing or held out for supervision) plus a learned column embedding.
Pre-norm transformer blocks with ReLU feed-forward process the tokens;
per-column heads read the final token vectors. Numeric heads emit a scalar
in normalized [0, 1] target space, categorical heads emit logits over the
column vocabulary.

Everything is plain numpy in float64. ``loss_and_gradients`` returns exact
analytic gradients for every tensor (including the optional trainable MLP
embedder), which the test suite checks against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import CategoricalColumnStats, PreprocessStats
from .errors import ContractViolation
from .rng import INIT, substream
from .tabular import ColumnKind, DatasetSchema

LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_blocks: int = 4
    n_heads: int = 4
    d_ff: int = 128
    embed_dim: int = 8
    mlp_hidden: int = 16

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )


@dataclass(frozen=True)
class ColumnHead:
    """Head signature for one column: numeric scalar or categorical softmax."""

    name: str
    kind: ColumnKind
    vocabulary: tuple[str, ...] | None = None


def column_heads(schema: DatasetSchema, stats: PreprocessStats) -> tuple[ColumnHead, ...]:
    heads = []
    for spec in schema.columns:
        if spec.kind == ColumnKind.CATEGORICAL:
            col_stats = stats.for_column(spec.name)
            assert isinstance(col_stats, CategoricalColumnStats)
            heads.append(ColumnHead(spec.name, spec.kind, col_stats.vocabulary))
        else:
            heads.append(ColumnHead(spec.name, spec.kind))
    return tuple(heads)


@dataclass
class ModelParams:
    """All trainable tensors, addressed by dotted names in a fixed order."""

    config: ModelConfig
    columns: tuple[ColumnHead, ...]
    tensors: dict[str, np.ndarray]
    mlp_d_in: int = 0  # > 0 when the trainable MLP embedder is part of the model

    @property
    def with_mlp(self) -> bool:
        return self.mlp_d_in > 0

    @property
    def n_parameters(self) -> int:
        return sum(int(t.size) for t in self.tensors.values())

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.config,
            self.columns,
            {k: v.copy() for k, v in self.tensors.items()},
            self.mlp_d_in,
        )

    def zero_like_tensors(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


def init_params(
    schema: DatasetSchema,
    stats: PreprocessStats,
    config: ModelConfig,
    seed: int,
    mlp_d_in: int = 0,
) -> ModelParams:
    """Seeded init: weights uniform +-1/sqrt(fan_in), biases and mask vector zero."""
    rng = substream(seed, INIT)
    d = config.d_model
    heads = column_heads(schema, stats)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    tensors: dict[str, np.ndarray] = {}
    tensors["in_proj.w"] = uniform((config.embed_dim, d), config.embed_dim)
    tensors["mask_emb"] = np.zeros(d)
    tensors["col_emb"] = uniform((len(heads), d), d)
    for i in range(config.n_blocks):
        p = f"block{i}."
        tensors[p + "ln1.scale"] = np.ones(d)
        tensors[p + "ln1.offset"] = np.zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            tensors[p + f"attn.{name}"] = uniform((d, d), d)
        for name in ("bq", "bk", "bv", "bo"):
            tensors[p + f"attn.{name}"] = np.zeros(d)
        tensors[p + "ln2.scale"] = np.ones(d)
        tensors[p + "ln2.offset"] = np.zeros(d)
        tensors[p + "ffn.w1"] = uniform((d, config.d_ff), d)
        tensors[p + "ffn.b1"] = np.zeros(config.d_ff)
        tensors[p + "ffn.w2"] = uniform((config.d_ff, d), config.d_ff)
        tensors[p + "ffn.b2"] = np.zeros(d)
    for head in heads:
        if head.kind == ColumnKind.NUMERIC:
            tensors[f"head.num.{head.name}.w"] = uniform((d,), d)
            tensors[f"head.num.{head.name}.b"] = np.zeros(())
        elif head.kind == ColumnKind.CATEGORICAL:
            v = len(head.vocabulary)
            tensors[f"head.cat.{head.name}.w"] = uniform((v, d), d)
            tensors[f"head.cat.{head.name}.b"] = np.zeros(v)
    if mlp_d_in > 0:
        tensors["mlp.w1"] = uniform((mlp_d_in, config.mlp_hidden), mlp_d_in)
        tensors["mlp.b1"] = np.zeros(config.mlp_hidden)
        tensors["mlp.w2"] = uniform((config.mlp_hidden, config.embed_dim), config.mlp_hidden)
        tensors["mlp.b2"] = np.zeros(config.embed_dim)
    return ModelParams(config, heads, tensors, mlp_d_in)


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """One training or inference batch of full rows.

    ``emb`` holds per-cell embeddings with zeros at token-masked positions
    (it may be None for the MLP variant, where embeddings are computed from
    ``xc`` inside the forward pass). ``token_masked`` flags cells whose
    token is the learned mask vector: genuinely missing cells plus any
    supervision targets. Target arrays list supervision positions only.
    """

    token_masked: np.ndarray  # (B, C) bool
    emb: np.ndarray | None = None  # (B, C, embed_dim)
    xc: np.ndarray | None = None  # (B, C, mlp_d_in)
    numeric_pos: np.ndarray | None = None  # (Kn, 2) ints [batch row, column]
    numeric_targets: np.ndarray | None = None  # (Kn,) normalized [0, 1]
    categorical_pos: np.ndarray | None = None  # (Kc, 2)
    categorical_targets: np.ndarray | None = None  # (Kc,) class indices
    loss_weights: tuple[float, float] = (1.0, 1.0)  # (numeric, categorical)

    def __post_init__(self):
        self.token_masked = np.asarray(self.token_masked, dtype=bool)
        if self.numeric_pos is None:
            self.numeric_pos = np.zeros((0, 2), dtype=int)
            self.numeric_targets = np.zeros(0)
        if self.categorical_pos is None:
            self.categorical_pos = np.zeros((0, 2), dtype=int)
            self.categorical_targets = np.zeros(0, dtype=int)

    @property
    def n_rows(self) -> int:
        return self.token_masked.shape[0]


@dataclass
class LossBreakdown:
    total: float
    numeric_mse: float
    categorical_ce: float
    n_numeric: int
    n_categorical: int


class _Cache:
    """Forward intermediates needed by the analytic backward pass."""

    __slots__ = ("emb", "mlp_act", "blocks", "proj_grad_gate")

    def __init__(self):
        self.blocks = []


def _layer_norm_forward(x, scale, offset):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    return xhat * scale + offset, (xhat, inv_std)


def _layer_norm_backward(dy, scale, cache):
    xhat, inv_std = cache
    d_scale = (dy * xhat).sum(axis=(0, 1))
    d_offset = dy.sum(axis=(0, 1))
    dxhat = dy * scale
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, d_scale, d_offset


def _softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_embed(
    tensors: dict[str, np.ndarray], xc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Trainable MLP embedder: (embeddings, tanh activations) of classical vectors.

    ``xc`` is (..., mlp_d_in); the embeddings are (..., embed_dim) and the
    activations (..., mlp_hidden), which the backward pass reuses.
    """
    act = np.tanh(xc @ tensors["mlp.w1"] + tensors["mlp.b1"])
    return act @ tensors["mlp.w2"] + tensors["mlp.b2"], act


def forward(params: ModelParams, batch: Batch) -> tuple[np.ndarray, _Cache]:
    """Run the token pipeline; returns final hidden states (B, C, d_model)."""
    cfg = params.config
    t = params.tensors
    n_cols = len(params.columns)
    masked = batch.token_masked
    if masked.shape[1] != n_cols:
        raise ContractViolation(
            f"batch has {masked.shape[1]} columns, model expects {n_cols}"
        )
    cache = _Cache()

    if params.with_mlp:
        if batch.xc is None:
            raise ContractViolation("MLP-embedder model needs batch.xc")
        if batch.xc.shape[2] != params.mlp_d_in:
            raise ContractViolation(
                f"batch.xc feature width {batch.xc.shape[2]} != model mlp_d_in "
                f"{params.mlp_d_in}"
            )
        emb, cache.mlp_act = mlp_embed(t, batch.xc)
    else:
        if batch.emb is None:
            raise ContractViolation("fixed-embedding model needs batch.emb")
        if batch.emb.shape[2] != cfg.embed_dim:
            raise ContractViolation(
                f"batch embedding width {batch.emb.shape[2]} != model embed_dim "
                f"{cfg.embed_dim}"
            )
        emb = batch.emb
    cache.emb = emb

    gate = ~masked[..., None]
    cache.proj_grad_gate = gate
    projected = (emb * gate) @ t["in_proj.w"]
    x = np.where(masked[..., None], t["mask_emb"], projected) + t["col_emb"][None, :, :]

    n_heads, d_head = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / np.sqrt(d_head)
    b, c = masked.shape
    for i in range(cfg.n_blocks):
        p = f"block{i}."
        x_in = x
        y1, ln1_cache = _layer_norm_forward(x_in, t[p + "ln1.scale"], t[p + "ln1.offset"])
        q = y1 @ t[p + "attn.wq"] + t[p + "attn.bq"]
        k = y1 @ t[p + "attn.wk"] + t[p + "attn.bk"]
        v = y1 @ t[p + "attn.wv"] + t[p + "attn.bv"]
        qh = q.reshape(b, c, n_heads, d_head).transpose(0, 2, 1, 3)
        kh = k.reshape(b, c, n_heads, d_head).transpose(0, 2, 1, 3)
        vh = v.reshape(b, c, n_heads, d_head).transpose(0, 2, 1, 3)
        scores = (qh @ kh.swapaxes(-1, -2)) * scale
        probs = _softmax(scores)
        zh = probs @ vh
        z = zh.transpose(0, 2, 1, 3).reshape(b, c, cfg.d_model)
        attn_out = z @ t[p + "attn.wo"] + t[p + "attn.bo"]
        x_mid = x_in + attn_out
        y2, ln2_cache = _layer_norm_forward(x_mid, t[p + "ln2.scale"], t[p + "ln2.offset"])
        f_pre = y2 @ t[p + "ffn.w1"] + t[p + "ffn.b1"]
        f_act = np.maximum(f_pre, 0.0)
        x = x_mid + f_act @ t[p + "ffn.w2"] + t[p + "ffn.b2"]
        cache.blocks.append(
            dict(
                x_in=x_in, y1=y1, ln1=ln1_cache, qh=qh, kh=kh, vh=vh,
                probs=probs, z=z, x_mid=x_mid, y2=y2, ln2=ln2_cache,
                f_pre=f_pre, f_act=f_act,
            )
        )
    return x, cache


def _group_by_column(positions: np.ndarray):
    """Yield (column, row-index array) in ascending column order."""
    if positions.shape[0] == 0:
        return
    cols = positions[:, 1]
    for col in np.unique(cols):
        sel = np.flatnonzero(cols == col)
        yield int(col), positions[sel, 0], sel


def head_outputs(params: ModelParams, hidden: np.ndarray, positions: np.ndarray):
    """Apply each column's head at the given (row, column) positions.

    Returns {column: (batch rows, predictions)} where predictions are
    scalars for numeric columns and logit matrices for categorical ones.
    """
    t = params.tensors
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for col, rows, _ in _group_by_column(positions):
        head = params.columns[col]
        h = hidden[rows, col]
        if head.kind == ColumnKind.NUMERIC:
            preds = h @ t[f"head.num.{head.name}.w"] + t[f"head.num.{head.name}.b"]
        elif head.kind == ColumnKind.CATEGORICAL:
            preds = h @ t[f"head.cat.{head.name}.w"].T + t[f"head.cat.{head.name}.b"]
        else:
            raise ContractViolation(f"column {head.name!r} is text and has no head")
        out[col] = (rows, preds)
    return out


def _loss_terms(params: ModelParams, batch: Batch, hidden: np.ndarray):
    """Shared by loss_value and loss_and_gradients; returns terms + head grads."""
    w_numeric, w_categorical = batch.loss_weights
    kn = batch.numeric_pos.shape[0]
    kc = batch.categorical_pos.shape[0]
    d_hidden = np.zeros_like(hidden)
    grads: dict[str, np.ndarray] = {}

    mse_sum = 0.0
    for col, rows, sel in _group_by_column(batch.numeric_pos):
        head = params.columns[col]
        w = params.tensors[f"head.num.{head.name}.w"]
        b = params.tensors[f"head.num.{head.name}.b"]
        h = hidden[rows, col]
        preds = h @ w + b
        err = preds - batch.numeric_targets[sel]
        mse_sum += float(err @ err)
        d_pred = (2.0 * w_numeric / kn) * err
        d_hidden[rows, col] += d_pred[:, None] * w[None, :]
        grads[f"head.num.{head.name}.w"] = d_pred @ h
        grads[f"head.num.{head.name}.b"] = np.asarray(d_pred.sum())

    ce_sum = 0.0
    for col, rows, sel in _group_by_column(batch.categorical_pos):
        head = params.columns[col]
        w = params.tensors[f"head.cat.{head.name}.w"]
        b = params.tensors[f"head.cat.{head.name}.b"]
        h = hidden[rows, col]
        logits = h @ w.T + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
        targets = batch.categorical_targets[sel]
        ce_sum += float((log_z - logits[np.arange(len(rows)), targets]).sum())
        probs = _softmax(logits)
        probs[np.arange(len(rows)), targets] -= 1.0
        d_logits = (w_categorical / kc) * probs
        d_hidden[rows, col] += d_logits @ w
        grads[f"head.cat.{head.name}.w"] = d_logits.T @ h
        grads[f"head.cat.{head.name}.b"] = d_logits.sum(axis=0)

    mse = mse_sum / kn if kn else 0.0
    ce = ce_sum / kc if kc else 0.0
    breakdown = LossBreakdown(
        total=w_numeric * mse + w_categorical * ce,
        numeric_mse=mse,
        categorical_ce=ce,
        n_numeric=kn,
        n_categorical=kc,
    )
    return breakdown, d_hidden, grads


def loss_value(params: ModelParams, batch: Batch) -> LossBreakdown:
    """Forward pass plus supervised loss; no gradients."""
    hidden, _ = forward(params, batch)
    breakdown, _, _ = _loss_terms(params, batch, hidden)
    return breakdown


def loss_and_gradients(
    params: ModelParams, batch: Batch
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Loss plus exact analytic gradients for every parameter tensor."""
    cfg = params.config
    t = params.tensors
    hidden, cache = forward(params, batch)
    breakdown, dx, grads = _loss_terms(params, batch, hidden)
    for name in t:
        if name not in grads:
            grads[name] = np.zeros_like(t[name])

    n_heads, d_head = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / np.sqrt(d_head)
    b, c = batch.token_masked.shape
    for i in reversed(range(cfg.n_blocks)):
        p = f"block{i}."
        blk = cache.blocks[i]
        # feed-forward branch
        d_f2 = dx
        grads[p + "ffn.w2"] += np.einsum("bcf,bcd->fd", blk["f_act"], d_f2)
        grads[p + "ffn.b2"] += d_f2.sum(axis=(0, 1))
        d_act = d_f2 @ t[p + "ffn.w2"].T
        d_pre = d_act * (blk["f_pre"] > 0.0)
        grads[p + "ffn.w1"] += np.einsum("bcd,bcf->df", blk["y2"], d_pre)
        grads[p + "ffn.b1"] += d_pre.sum(axis=(0, 1))
        d_y2 = d_pre @ t[p + "ffn.w1"].T
        d_ln2, d_scale2, d_offset2 = _layer_norm_backward(d_y2, t[p + "ln2.scale"], blk["ln2"])
        grads[p + "ln2.scale"] += d_scale2
        grads[p + "ln2.offset"] += d_offset2
        d_x_mid = dx + d_ln2
        # attention branch
        d_attn = d_x_mid
        grads[p + "attn.wo"] += np.einsum("bcd,bce->de", blk["z"], d_attn)
        grads[p + "attn.bo"] += d_attn.sum(axis=(0, 1))
        d_z = (d_attn @ t[p + "attn.wo"].T).reshape(b, c, n_heads, d_head).transpose(0, 2, 1, 3)
        d_probs = d_z @ blk["vh"].swapaxes(-1, -2)
        d_vh = blk["probs"].swapaxes(-1, -2) @ d_z
        probs = blk["probs"]
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
        d_qh = (d_scores @ blk["kh"]) * scale
        d_kh = (d_scores.swapaxes(-1, -2) @ blk["qh"]) * scale
        d_q = d_qh.transpose(0, 2, 1, 3).reshape(b, c, cfg.d_model)
        d_k = d_kh.transpose(0, 2, 1, 3).reshape(b, c, cfg.d_model)
        d_v = d_vh.transpose(0, 2, 1, 3).reshape(b, c, cfg.d_model)
        y1 = blk["y1"]
        grads[p + "attn.wq"] += np.einsum("bcd,bce->de", y1, d_q)
        grads[p + "attn.wk"] += np.einsum("bcd,bce->de", y1, d_k)
        grads[p + "attn.wv"] += np.einsum("bcd,bce->de", y1, d_v)
        grads[p + "attn.bq"] += d_q.sum(axis=(0, 1))
        grads[p + "attn.bk"] += d_k.sum(axis=(0, 1))
        grads[p + "attn.bv"] += d_v.sum(axis=(0, 1))
        d_y1 = d_q @ t[p + "attn.wq"].T + d_k @ t[p + "attn.wk"].T + d_v @ t[p + "attn.wv"].T
        d_ln1, d_scale1, d_offset1 = _layer_norm_backward(d_y1, t[p + "ln1.scale"], blk["ln1"])
        grads[p + "ln1.scale"] += d_scale1
        grads[p + "ln1.offset"] += d_offset1
        dx = d_x_mid + d_ln1

    # input stage
    masked = batch.token_masked
    grads["mask_emb"] += dx[masked].sum(axis=0)
    grads["col_emb"] += dx.sum(axis=0)
    d_projected = dx * cache.proj_grad_gate
    emb_gated = cache.emb * cache.proj_grad_gate
    grads["in_proj.w"] += np.einsum("bce,bcd->ed", emb_gated, d_projected)
    if params.with_mlp:
        d_emb = (d_projected @ t["in_proj.w"].T) * cache.proj_grad_gate
        grads["mlp.w2"] += np.einsum("bch,bce->he", cache.mlp_act, d_emb)
        grads["mlp.b2"] += d_emb.sum(axis=(0, 1))
        d_act = d_emb @ t["mlp.w2"].T
        d_pre = d_act * (1.0 - cache.mlp_act**2)
        grads["mlp.w1"] += np.einsum("bci,bch->ih", batch.xc, d_pre)
        grads["mlp.b1"] += d_pre.sum(axis=(0, 1))
    return breakdown, grads


def predict_masked(params: ModelParams, batch: Batch):
    """Head outputs at every token-masked non-text position.

    Returns {column: (batch rows, predictions)}; numeric predictions live
    in normalized target space, categorical predictions are logits.
    """
    hidden, _ = forward(params, batch)
    rows, cols = np.nonzero(batch.token_masked)
    keep = np.array(
        [params.columns[c].kind != ColumnKind.TEXT for c in cols], dtype=bool
    )
    positions = np.stack([rows[keep], cols[keep]], axis=1) if keep.any() else np.zeros((0, 2), int)
    return head_outputs(params, hidden, positions)
