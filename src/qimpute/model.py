"""Row-wise masked transformer over cell embeddings, with analytic gradients.

One table row is one attention context: each column contributes a token
built from its cell embedding (or a learned mask vector when the cell is
missing or held out for supervision) plus a learned column embedding.
Pre-norm transformer blocks with ReLU feed-forward process the tokens;
per-column heads read the final token vectors. Numeric heads emit a scalar
in normalized [0, 1] target space, categorical heads emit logits over the
column vocabulary.

The loss reads the final tokens at the supervised cells only, imputation at
the masked cells only. Attention is row-local, so the blocks run only on
the rows that hold such a query token, and the last block's tail after
attention runs at the query tokens alone, forward and backward; a skipped
row's contribution to the loss and to every gradient is exactly zero.

Everything is plain numpy in float64. ``loss_and_gradients`` returns exact
analytic gradients for every tensor (including the optional trainable MLP
embedder), which the test suite checks against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import CategoricalColumnStats, PreprocessStats
from .errors import ConfigError, ContractViolation
from .rng import INIT, substream
from .tabular import ColumnKind, DatasetSchema

LN_EPS = 1e-5
ALL_ROWS = slice(None)  # every row or token: a view, no copy


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_blocks: int = 4
    n_heads: int = 4
    d_ff: int = 128
    embed_dim: int = 8
    mlp_hidden: int = 16

    def __post_init__(self):
        for name in ("d_model", "n_heads", "d_ff", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_blocks < 0:
            raise ConfigError(f"n_blocks must be >= 0, got {self.n_blocks}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
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

    ``features`` holds the model input per cell, zeros at token-masked
    positions: cell embeddings for a fixed-embedding model, classical
    vectors for one with the trainable MLP embedder. ``token_masked`` flags
    cells whose token is the learned mask vector: genuinely missing cells
    plus any supervision targets. Target arrays list supervision positions
    only.
    """

    token_masked: np.ndarray  # (B, C) bool
    features: np.ndarray  # (B, C, mlp_d_in or embed_dim)
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

    __slots__ = ("live", "local", "inputs", "emb", "mlp_act", "blocks", "proj_grad_gate")

    def __init__(self):
        self.blocks = []


def _weight_grad(a, b):
    """Sum over all leading axes of outer(a, b): (..., d), (..., e) -> (d, e) as one gemm."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _column_sums(a):
    """Sum over all leading axes: (..., e) -> (e,) as one gemv."""
    flat = a.reshape(-1, a.shape[-1])
    return np.ones(flat.shape[0]) @ flat


def _row_sums(a):
    """Sum over the last axis: (..., k) -> (...) as one gemv.

    numpy reduces a short last axis row by row; BLAS does it in one call.
    """
    flat = a.reshape(-1, a.shape[-1])
    return (flat @ np.ones(flat.shape[1])).reshape(a.shape[:-1])


def _layer_norm_forward(x, scale, offset):
    """Layer norm over the rows of an (N, d) matrix; row moments are gemvs."""
    d = x.shape[1]
    xhat = x - (_row_sums(x) / d)[:, None]
    inv_std = (1.0 / np.sqrt(_row_sums(xhat * xhat) / d + LN_EPS))[:, None]
    xhat *= inv_std
    y = xhat * scale
    y += offset
    return y, (xhat, inv_std)


def _layer_norm_backward(dy, scale, cache):
    """Input, scale and offset gradients of ``_layer_norm_forward``.

    The three reductions share one product: the columns of dy * xhat sum
    to d_scale, and the same matrix against ``scale`` gives the row mean of
    dxhat * xhat (dxhat = dy * scale), next to the row mean of dxhat.
    """
    xhat, inv_std = cache
    d = dy.shape[1]
    prod = dy * xhat
    d_scale = _column_sums(prod)
    mean_dxhat = (dy @ scale) / d
    mean_dxhat_xhat = (prod @ scale) / d
    dx = dy * scale
    dx -= mean_dxhat[:, None]
    dx -= np.multiply(xhat, mean_dxhat_xhat[:, None], out=prod)
    dx *= inv_std
    return dx, d_scale, _column_sums(dy)


def _softmax(x):
    """Softmax over the last axis, computed in place: ``x`` is overwritten.

    The row maxima are taken down the columns of a transposed copy, which
    numpy reduces far faster than a short last axis.
    """
    rows = x.reshape(-1, x.shape[-1])
    rows -= rows.T.copy().max(axis=0)[:, None]
    np.exp(rows, out=rows)
    rows /= _row_sums(rows)[:, None]
    return rows.reshape(x.shape)


def mlp_embed(
    tensors: dict[str, np.ndarray], xc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Trainable MLP embedder: (embeddings, tanh activations) of classical vectors.

    ``xc`` is (..., mlp_d_in); the embeddings are (..., embed_dim) and the
    activations (..., mlp_hidden), which the backward pass reuses.
    """
    act = np.tanh(xc @ tensors["mlp.w1"] + tensors["mlp.b1"])
    return act @ tensors["mlp.w2"] + tensors["mlp.b2"], act


def forward(params: ModelParams, batch: Batch, queries=ALL_ROWS) -> tuple[np.ndarray, _Cache]:
    """Run the token pipeline; returns final hidden states (B, C, d_model).

    With ``queries``, distinct flat token indices row * C + column, the
    blocks run only on the rows holding a query, the last block's tail only
    at the queries themselves, and every other token of the result is 0.
    """
    return _forward(params, batch, True, queries)


def _scatter_rows(x, keep, n):
    """(n, d) matrix holding the rows of ``x`` at ``keep`` and zeros elsewhere."""
    if keep is ALL_ROWS:
        return x
    out = np.zeros((n, x.shape[1]))
    out[keep] = x
    return out


def _forward(params: ModelParams, batch: Batch, retain: bool, queries) -> tuple[np.ndarray, _Cache]:
    """The token pipeline; each block's intermediates are kept only if ``retain``."""
    cfg = params.config
    t = params.tensors
    n_cols = len(params.columns)
    b, c = batch.token_masked.shape
    if c != n_cols:
        raise ContractViolation(f"batch has {c} columns, model expects {n_cols}")
    cache = _Cache()

    # Attention is row-local, so a row without a query cannot reach the
    # result: gather the live rows and renumber the queries within them.
    live = local = ALL_ROWS
    if queries is not ALL_ROWS:
        query_rows = queries // c
        live = np.unique(query_rows)
        local = np.searchsorted(live, query_rows) * c + queries % c
    cache.live, cache.local = live, local
    masked = batch.token_masked[live]
    n_live = masked.shape[0]

    width = params.mlp_d_in or cfg.embed_dim
    if batch.features.shape[2] != width:
        raise ContractViolation(
            f"batch feature width {batch.features.shape[2]} != model input width {width}"
        )
    emb = cache.inputs = batch.features[live]
    if params.with_mlp:
        emb, cache.mlp_act = mlp_embed(t, emb)
    cache.emb = emb

    # Tokens are kept as an (N, d_model) matrix, N = live rows * C, so
    # every projection is one gemm; attention reshapes to head-major views.
    gate = ~masked[..., None]
    cache.proj_grad_gate = gate
    projected = (emb * gate).reshape(n_live * c, emb.shape[2]) @ t["in_proj.w"]
    x = np.where(masked.reshape(n_live * c, 1), t["mask_emb"], projected)
    tokens = x.reshape(n_live, c, cfg.d_model)
    tokens += t["col_emb"]
    store = cache.blocks if retain else None
    for i in range(cfg.n_blocks):
        keep = local if i == cfg.n_blocks - 1 else ALL_ROWS
        x = _block_forward(t, f"block{i}.", x, (n_live, c), cfg, store, keep)
    if cfg.n_blocks == 0:
        x = x[local]
    return _scatter_rows(x, queries, b * c).reshape(b, c, cfg.d_model), cache


def _block_forward(t, p, x_in, shape, cfg, store, keep):
    """One pre-norm block on (N, d) tokens, N = B * C for ``shape`` (B, C).

    Attention runs over every token, the tail after it at the rows ``keep``
    only. Appends the block's intermediates to ``store`` unless it is None.
    """
    b, c = shape
    n, d = x_in.shape
    n_heads, d_head = cfg.n_heads, d // cfg.n_heads
    y1, ln1_cache = _layer_norm_forward(x_in, t[p + "ln1.scale"], t[p + "ln1.offset"])
    # Q, K and V side by side: one (d, 3d) product; checkpoints keep wq/wk/wv
    w_qkv = np.concatenate((t[p + "attn.wq"], t[p + "attn.wk"], t[p + "attn.wv"]), axis=1)
    qkv = y1 @ w_qkv
    qkv += np.concatenate((t[p + "attn.bq"], t[p + "attn.bk"], t[p + "attn.bv"]))
    # (3, B, heads, C, d_head) views of the one product
    qh, kh, vh = qkv.reshape(b, c, 3, n_heads, d_head).transpose(2, 0, 3, 1, 4)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= 1.0 / np.sqrt(d_head)
    probs = _softmax(scores)
    z = np.empty((b, c, n_heads, d_head))
    np.matmul(probs, vh, out=z.transpose(0, 2, 1, 3))
    z = z.reshape(n, d)[keep]
    if store is not None:
        store.append(dict(y1=y1, ln1=ln1_cache, w_qkv=w_qkv, qh=qh, kh=kh, vh=vh, probs=probs))
    del y1, ln1_cache, qkv, qh, kh, vh, scores, probs  # inference frees them before the tail
    x_mid = z @ t[p + "attn.wo"]
    x_mid += t[p + "attn.bo"]
    x_mid += x_in[keep]
    y2, ln2_cache = _layer_norm_forward(x_mid, t[p + "ln2.scale"], t[p + "ln2.offset"])
    f_act = y2 @ t[p + "ffn.w1"]
    f_act += t[p + "ffn.b1"]
    np.maximum(f_act, 0.0, out=f_act)
    x = f_act @ t[p + "ffn.w2"]
    x += x_mid
    x += t[p + "ffn.b2"]
    if store is not None:
        store[-1].update(z=z, y2=y2, ln2=ln2_cache, f_act=f_act, keep=keep)
    return x


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


def _supervised_tokens(batch: Batch) -> np.ndarray:
    """Ascending flat token indices (row * C + column) of the supervised cells."""
    pos = np.concatenate((batch.numeric_pos, batch.categorical_pos))
    return np.unique(pos[:, 0] * batch.token_masked.shape[1] + pos[:, 1])


def loss_value(params: ModelParams, batch: Batch) -> LossBreakdown:
    """Forward pass plus supervised loss; no gradients."""
    hidden, _ = _forward(params, batch, False, _supervised_tokens(batch))
    breakdown, _, _ = _loss_terms(params, batch, hidden)
    return breakdown


def loss_and_gradients(
    params: ModelParams, batch: Batch
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Loss plus exact analytic gradients for every parameter tensor."""
    cfg = params.config
    t = params.tensors
    queries = _supervised_tokens(batch)
    hidden, cache = forward(params, batch, queries=queries)
    breakdown, d_hidden, grads = _loss_terms(params, batch, hidden)

    d = cfg.d_model
    n_heads, d_head = cfg.n_heads, d // cfg.n_heads
    scale = 1.0 / np.sqrt(d_head)
    masked = batch.token_masked[cache.live]  # the blocks ran on these rows only
    b, c = masked.shape
    # the last stage ran at the query tokens only; d_hidden is 0 elsewhere
    dx = d_hidden.reshape(-1, d)[queries]
    for i in reversed(range(cfg.n_blocks)):
        p = f"block{i}."
        blk = cache.blocks[i]
        keep = blk["keep"]
        # feed-forward branch
        grads[p + "ffn.w2"] = _weight_grad(blk["f_act"], dx)
        grads[p + "ffn.b2"] = _column_sums(dx)
        d_pre = dx @ t[p + "ffn.w2"].T
        d_pre *= blk["f_act"] > 0.0  # ReLU derivative
        grads[p + "ffn.w1"] = _weight_grad(blk["y2"], d_pre)
        grads[p + "ffn.b1"] = _column_sums(d_pre)
        d_ln2, grads[p + "ln2.scale"], grads[p + "ln2.offset"] = _layer_norm_backward(
            d_pre @ t[p + "ffn.w1"].T, t[p + "ln2.scale"], blk["ln2"]
        )
        d_x_mid = d_ln2
        d_x_mid += dx
        # attention branch
        grads[p + "attn.wo"] = _weight_grad(blk["z"], d_x_mid)
        grads[p + "attn.bo"] = _column_sums(d_x_mid)
        d_z = _scatter_rows(d_x_mid @ t[p + "attn.wo"].T, keep, b * c)
        d_z = d_z.reshape(b, c, n_heads, d_head).transpose(0, 2, 1, 3)
        probs = blk["probs"]
        d_scores = d_z @ blk["vh"].swapaxes(-1, -2)
        d_scores -= _row_sums(d_scores * probs)[..., None]
        d_scores *= probs
        # d_qkv is laid out like the forward product; the head-major
        # gradients are written straight into its transposed view.
        d_qkv = np.empty((b, c, 3, n_heads, d_head))
        d_qh, d_kh, d_vh = d_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(d_scores, blk["kh"], out=d_qh)
        d_qh *= scale
        np.matmul(d_scores.swapaxes(-1, -2), blk["qh"], out=d_kh)
        d_kh *= scale
        np.matmul(probs.swapaxes(-1, -2), d_z, out=d_vh)
        d_qkv = d_qkv.reshape(b * c, 3 * d)
        (
            grads[p + "attn.wq"], grads[p + "attn.wk"], grads[p + "attn.wv"]
        ) = np.split(_weight_grad(blk["y1"], d_qkv), 3, axis=1)
        (
            grads[p + "attn.bq"], grads[p + "attn.bk"], grads[p + "attn.bv"]
        ) = np.split(_column_sums(d_qkv), 3)
        grads[p + "attn.bk"] = np.zeros(d)  # softmax cancels q . bk: exactly 0, not noise
        d_ln1, grads[p + "ln1.scale"], grads[p + "ln1.offset"] = _layer_norm_backward(
            d_qkv @ blk["w_qkv"].T, t[p + "ln1.scale"], blk["ln1"]
        )
        dx = d_ln1
        dx[keep] += d_x_mid
    if cfg.n_blocks == 0:
        dx = _scatter_rows(dx, cache.local, b * c)

    # input stage
    gate = cache.proj_grad_gate.reshape(b * c, 1)
    grads["mask_emb"] = dx[masked.reshape(-1)].sum(axis=0)
    grads["col_emb"] = dx.reshape(b, c, d).sum(axis=0)
    d_projected = dx * gate
    grads["in_proj.w"] = _weight_grad(cache.emb * cache.proj_grad_gate, d_projected)
    if params.with_mlp:
        d_emb = (d_projected @ t["in_proj.w"].T) * gate
        grads["mlp.w2"] = _weight_grad(cache.mlp_act, d_emb)
        grads["mlp.b2"] = _column_sums(d_emb)
        d_pre = d_emb @ t["mlp.w2"].T
        d_pre *= 1.0 - cache.mlp_act.reshape(b * c, cfg.mlp_hidden) ** 2
        grads["mlp.w1"] = _weight_grad(cache.inputs, d_pre)
        grads["mlp.b1"] = _column_sums(d_pre)
    for name in t:
        if name not in grads:
            grads[name] = np.zeros_like(t[name])
    return breakdown, grads


def predict_masked(params: ModelParams, batch: Batch):
    """Head outputs at every token-masked non-text position.

    Returns {column: (batch rows, predictions)}; numeric predictions live
    in normalized target space, categorical predictions are logits.
    """
    text = [j for j, head in enumerate(params.columns) if head.kind == ColumnKind.TEXT]
    masked = batch.token_masked
    rows, cols = np.nonzero(masked & ~np.isin(np.arange(masked.shape[1]), text))
    hidden, _ = _forward(params, batch, False, rows * masked.shape[1] + cols)
    return head_outputs(params, hidden, np.stack([rows, cols], axis=1))
