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

A row's result does not depend on the other rows of its batch: the
forward pass sums each row on its own (einsum) and runs its products
through ``_matmul``, which keeps BLAS on kernel paths whose rows do not
depend on each other. Nothing depends on the BLAS thread count: the
backward pass sums rows with einsum too, since a threaded gemv splits
them, and ``_matmul`` sums long reductions, such as a weight gradient over
a batch's tokens, in fixed slices.

Everything is plain numpy in float64. ``loss_and_gradients`` returns exact
analytic gradients for every tensor (including the optional trainable MLP
embedder), which the test suite checks against central finite differences.
The passes write their large arrays into a ``_Workspace``, an optional last
argument of ``forward`` and ``loss_and_gradients``; ``train`` keeps one
across its steps, so a warm step allocates nothing large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import PreprocessStats
from .errors import ConfigError, ContractViolation
from .rng import INIT, substream
from .tabular import ColumnKind, ColumnSpec, DatasetSchema

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
        for name in ("d_model", "n_heads", "d_ff", "embed_dim", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_blocks < 0:
            raise ConfigError(f"n_blocks must be >= 0, got {self.n_blocks}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )


@dataclass
class ModelParams:
    """All trainable tensors, addressed by dotted names in a fixed order."""

    config: ModelConfig
    columns: tuple[ColumnSpec, ...]  # the schema's columns, one head each
    tensors: dict[str, np.ndarray]

    @property
    def mlp_d_in(self) -> int:
        """Input width of the trainable MLP embedder; 0 when the model has none."""
        w1 = self.tensors.get("mlp.w1")
        return 0 if w1 is None else w1.shape[0]

    @property
    def with_mlp(self) -> bool:
        return self.mlp_d_in > 0

    @property
    def n_parameters(self) -> int:
        return sum(int(t.size) for t in self.tensors.values())

    def zero_like_tensors(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


class _FlatViews(dict):
    """Tensors by name: views of ``flat``, one per tensor of ``like`` with its shape, in order.

    ``adam_step`` updates such a set through ``flat`` in one pass.
    """

    def __init__(self, flat: np.ndarray, like: dict[str, np.ndarray]):
        super().__init__()
        self.flat, start = flat, 0
        for name, tensor in like.items():
            self[name] = flat[start : start + tensor.size].reshape(tensor.shape)
            start += tensor.size


def init_params(
    schema: DatasetSchema,
    stats: PreprocessStats,
    config: ModelConfig,
    seed: int,
    mlp_d_in: int = 0,
) -> ModelParams:
    """Seeded init (weights uniform +-1/sqrt(fan_in), biases and mask zero), in one flat buffer."""
    rng = substream(seed, INIT)
    d = config.d_model

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    tensors: dict[str, np.ndarray] = {}
    tensors["in_proj.w"] = uniform((config.embed_dim, d), config.embed_dim)
    tensors["mask_emb"] = np.zeros(d)
    tensors["col_emb"] = uniform((schema.n_columns, d), d)
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
    for spec in schema.columns:
        if spec.kind == ColumnKind.NUMERIC:
            tensors[f"head.num.{spec.name}.w"] = uniform((d,), d)
            tensors[f"head.num.{spec.name}.b"] = np.zeros(())
        elif spec.kind == ColumnKind.CATEGORICAL:
            v = len(stats.for_column(spec.name).vocabulary)
            tensors[f"head.cat.{spec.name}.w"] = uniform((v, d), d)
            tensors[f"head.cat.{spec.name}.b"] = np.zeros(v)
    if mlp_d_in > 0:
        tensors["mlp.w1"] = uniform((mlp_d_in, config.mlp_hidden), mlp_d_in)
        tensors["mlp.b1"] = np.zeros(config.mlp_hidden)
        tensors["mlp.w2"] = uniform((config.mlp_hidden, config.embed_dim), config.mlp_hidden)
        tensors["mlp.b2"] = np.zeros(config.embed_dim)
    flat = np.concatenate([tensor.ravel() for tensor in tensors.values()])
    return ModelParams(config, schema.columns, _FlatViews(flat, tensors))


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """One training or inference batch of full rows.

    ``features`` holds the model input per cell: cell embeddings for a
    fixed-embedding model, classical vectors for one with the trainable MLP
    embedder. ``token_masked`` flags cells whose token is the learned mask
    vector: genuinely missing cells plus any supervision targets. Features
    at token-masked cells are never read. ``supervised`` flags the cells
    the loss reads (none by default); the target arrays are read only at
    supervised cells of their kind.
    """

    token_masked: np.ndarray  # (B, C) bool
    features: np.ndarray  # (B, C, mlp_d_in or embed_dim)
    supervised: np.ndarray | None = None  # (B, C) bool
    numeric_targets: np.ndarray | None = None  # (B, C) normalized [0, 1]
    categorical_targets: np.ndarray | None = None  # (B, C) class indices
    loss_weights: tuple[float, float] = (1.0, 1.0)  # (numeric, categorical)

    def __post_init__(self):
        self.token_masked = np.asarray(self.token_masked, dtype=bool)
        if self.supervised is None:
            self.supervised = np.zeros(self.token_masked.shape, dtype=bool)

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
    """Forward intermediates needed by the analytic backward pass, and their workspace."""

    __slots__ = ("ws", "live", "local", "inputs", "emb", "mlp_act", "blocks")

    def __init__(self, ws):
        self.ws = ws
        self.blocks = []


class _Workspace:
    """Where a forward and backward pass put their large arrays.

    A workspace for ``rows`` batch rows keeps one buffer per key, sized on
    its first use for the largest batch (``per_row`` arrays have up to
    ``rows`` rows, ``per_token`` arrays up to ``rows`` * C tokens, query
    tokens included), and hands out leading, C-ordered slices of it: an
    array has the layout of a fresh one, so no product changes its bits,
    and the steps of ``train`` allocate nothing large after the first.
    Without ``rows``, for a single pass, every array is fresh and is freed
    with its last reference. The blocks keep their intermediates for the
    backward pass if ``retain``. ``grads`` holds the gradients as views of
    one buffer, ``grads.flat``, in ``init_params`` order.
    """

    def __init__(self, params: ModelParams, retain: bool, rows: int | None = None):
        self.retain = retain
        self._tensors = params.tensors
        self._bounds = None if rows is None else {"rows": rows, "tokens": rows * len(params.columns)}
        self._buffers: dict = {}

    @cached_property
    def grads(self) -> dict[str, np.ndarray]:
        return _FlatViews(np.empty(sum(t.size for t in self._tensors.values())), self._tensors)

    def per_row(self, key, *shape, dtype=float) -> np.ndarray:
        return self._take(key, "rows", shape, dtype)

    def per_token(self, key, *shape, dtype=float) -> np.ndarray:
        return self._take(key, "tokens", shape, dtype)

    def fixed(self, key, *shape) -> np.ndarray:
        return self._take((key, shape[0]), None, shape, float)

    def _take(self, key, lead, shape, dtype):
        if self._bounds is None:
            return np.empty(shape, dtype)
        ident = (key, shape[1:], dtype)
        buffer = self._buffers.get(ident)
        if buffer is None:
            bound = self._bounds.get(lead, shape[0])
            buffer = self._buffers[ident] = np.empty(bound * math.prod(shape[1:]), dtype)
        return buffer[: math.prod(shape)].reshape(shape)


# Rows of a reduction that one gemm sums; longer ones are split (``_matmul``).
_K_BLOCK = 128


def _matmul(a, b, out=None, part=None):
    """``a @ b`` for 2-D operands; a row of the product depends on that row of ``a`` alone.

    It gets the same bits at any position, any row count and any BLAS
    thread count. OpenBLAS gemm gives that (measured) when ``a`` has at
    least two rows, ``b`` is C-ordered with at least four columns and the
    reduction has at most ``_K_BLOCK`` terms. So a longer reduction is
    summed in ``_K_BLOCK`` slices, in order, each slice's product going
    through ``part`` (an array shaped like the result); one row is padded
    to two, since numpy would send it to gemv; and a narrower ``b`` goes
    through einsum, which adds each element in one fixed order. The
    product is written into ``out`` when it is given.
    """
    if b.shape[1] < 4:
        return np.einsum("ij,jk->ik", a, b, out=out)
    if a.shape[0] == 1:
        pair = _matmul(np.concatenate((a, a)), b)[:1]
        if out is None:
            return pair
        out[...] = pair
        return out
    out = np.matmul(a[:, :_K_BLOCK], b[:_K_BLOCK], out=out)
    for start in range(_K_BLOCK, b.shape[0], _K_BLOCK):
        out += np.matmul(a[:, start : start + _K_BLOCK], b[start : start + _K_BLOCK], out=part)
    return out


def _weight_grad(a, b, out=None, ws=None):
    """Sum over all leading axes of outer(a, b): (..., d), (..., e) -> (d, e)."""
    part = None if ws is None else ws.fixed("part", a.shape[-1], b.shape[-1])
    return _matmul(a.reshape(-1, a.shape[-1]).T, b.reshape(-1, b.shape[-1]), out, part)


def _column_sums(a, out=None):
    """Sum over all leading axes: (..., e) -> (e,) as one gemv."""
    flat = a.reshape(-1, a.shape[-1])
    return np.matmul(np.ones(flat.shape[0]), flat, out=out)


def _row_sums(a):
    """Sum over the last axis: (..., k) -> (...), each row in one fixed order.

    einsum gives a row the same bits at any position, any row count and any
    BLAS thread count. A BLAS gemv does not: its kernels take the rows in
    groups, and its threads split them.
    """
    return np.einsum("...k->...", a)


def _layer_norm_forward(x, scale, offset, xhat, y):
    """Layer norm over the rows of an (N, d) matrix into ``y``; each row on its own."""
    d = x.shape[1]
    np.subtract(x, (_row_sums(x) / d)[:, None], out=xhat)
    inv_std = (1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / d + LN_EPS))[:, None]
    xhat *= inv_std
    np.multiply(xhat, scale, out=y)
    y += offset
    return y, (xhat, inv_std)


def _layer_norm_backward(dy, scale, cache, d_scale, d_offset, prod):
    """Input gradient of ``_layer_norm_forward``, computed in ``dy`` itself.

    The scale and offset gradients go into ``d_scale`` and ``d_offset``;
    ``prod`` is scratch shaped like ``dy``. The three reductions share one
    product: the columns of dy * xhat sum to d_scale, and the same matrix
    against ``scale`` gives the row mean of dxhat * xhat (dxhat = dy *
    scale), next to the row mean of dxhat.
    """
    xhat, inv_std = cache
    d = dy.shape[1]
    np.multiply(dy, xhat, out=prod)
    _column_sums(prod, d_scale)
    _column_sums(dy, d_offset)
    mean_dxhat = np.einsum("ij,j->i", dy, scale) / d
    mean_dxhat_xhat = np.einsum("ij,j->i", prod, scale) / d
    dx = dy
    dx *= scale
    dx -= mean_dxhat[:, None]
    dx -= np.multiply(xhat, mean_dxhat_xhat[:, None], out=prod)
    dx *= inv_std
    return dx


def _softmax(x, scratch=None):
    """Softmax over the last axis, computed in place: ``x`` is overwritten.

    The row maxima are taken down the columns of a transposed copy, which
    numpy reduces far faster than a short last axis; the copy goes into
    ``scratch`` (as many elements as ``x``) when it is given.
    """
    rows = x.reshape(-1, x.shape[-1])
    if scratch is None:
        transposed = rows.T.copy()
    else:
        transposed = scratch.reshape(rows.shape[::-1])
        np.copyto(transposed, rows.T)
    rows -= transposed.max(axis=0)[:, None]
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
    lead = xc.shape[:-1]
    act = np.empty(lead + tensors["mlp.b1"].shape)
    return _mlp_embed(tensors, xc, act, np.empty(lead + tensors["mlp.b2"].shape))


def _mlp_embed(tensors, xc, act, emb):
    """``mlp_embed`` written into ``act`` and ``emb``."""
    np.matmul(xc, tensors["mlp.w1"], out=act)
    act += tensors["mlp.b1"]
    np.tanh(act, out=act)
    np.matmul(act, tensors["mlp.w2"], out=emb)
    emb += tensors["mlp.b2"]
    return emb, act


def forward(
    params: ModelParams, batch: Batch, queries=ALL_ROWS, ws=None
) -> tuple[np.ndarray, _Cache]:
    """Run the token pipeline; returns final hidden states (B, C, d_model).

    With ``queries``, distinct flat token indices row * C + column, the
    blocks run only on the rows holding a query, the last block's tail only
    at the queries themselves, and every other token of the result is 0.
    It runs in the retaining workspace ``ws``, or in a fresh one.
    """
    return _forward(params, batch, _Workspace(params, True) if ws is None else ws, queries)


def _scatter_rows(x, keep, n, ws, key):
    """(n, d) matrix holding the rows of ``x`` at ``keep`` and zeros elsewhere."""
    if keep is ALL_ROWS:
        return x
    out = ws.per_token(key, n, x.shape[1])
    out.fill(0.0)
    out[keep] = x
    return out


def _forward(params: ModelParams, batch: Batch, ws: _Workspace, queries):
    """The token pipeline in ``ws``; each block's intermediates are kept if ``ws.retain``."""
    cfg = params.config
    t = params.tensors
    n_cols = len(params.columns)
    b, c = batch.token_masked.shape
    if c != n_cols:
        raise ContractViolation(f"batch has {c} columns, model expects {n_cols}")
    cache = _Cache(ws)

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
    n = n_live * c

    width = params.mlp_d_in or cfg.embed_dim
    if batch.features.shape[2] != width:
        raise ContractViolation(
            f"batch feature width {batch.features.shape[2]} != model input width {width}"
        )
    emb = batch.features
    if live is not ALL_ROWS:
        emb = np.take(emb, live, axis=0, out=ws.per_row("inputs", n_live, c, width))
    cache.inputs = emb
    if params.with_mlp:
        emb, cache.mlp_act = _mlp_embed(
            t, emb, ws.per_row("mlp_act", n_live, c, cfg.mlp_hidden),
            ws.per_row("emb", n_live, c, cfg.embed_dim),
        )
    cache.emb = emb

    # Tokens are kept as an (N, d_model) matrix, N = live rows * C, so
    # every projection is one gemm; attention reshapes to head-major views.
    # This is the one place that masks tokens: a token-masked cell's input
    # is never read, the mask vector replaces its projection.
    # the input stage writes where a block before block 0 would
    x = _matmul(emb.reshape(n, emb.shape[2]), t["in_proj.w"], ws.per_token(("out", 1), n, cfg.d_model))
    np.copyto(x, t["mask_emb"], where=masked.reshape(n, 1))
    tokens = x.reshape(n_live, c, cfg.d_model)
    tokens += t["col_emb"]
    for i in range(cfg.n_blocks):
        keep = local if i == cfg.n_blocks - 1 else ALL_ROWS
        x, blk = _block_forward(t, i, x, (n_live, c), cfg, ws, keep)
        if blk is not None:
            cache.blocks.append(blk)
    if cfg.n_blocks == 0 and local is not ALL_ROWS:
        x = np.take(x, local, axis=0, out=ws.per_token("x_local", local.size, cfg.d_model))
    hidden = _scatter_rows(x, queries, b * c, ws, "hidden")
    return hidden.reshape(b, c, cfg.d_model), cache


def _block_forward(t, i, x_in, shape, cfg, ws, keep):
    """Block ``i``, pre-norm, on (N, d) tokens, N = B * C for ``shape`` (B, C).

    Attention runs over every token, the tail after it at the rows ``keep``
    only. Returns the output, written into one of two buffers that the
    blocks take in turn, and the block's intermediates if ``ws.retain``.
    """
    p = f"block{i}."
    b, c = shape
    n, d = x_in.shape
    k = n if keep is ALL_ROWS else keep.size
    n_heads, d_head = cfg.n_heads, d // cfg.n_heads

    def buf(name, rows, width):
        return ws.per_token((i, name), rows, width)

    y1, ln1_cache = _layer_norm_forward(
        x_in, t[p + "ln1.scale"], t[p + "ln1.offset"], buf("xhat1", n, d), buf("y1", n, d)
    )
    # Q, K and V side by side: one (d, 3d) product; checkpoints keep wq/wk/wv
    w_qkv = np.concatenate(
        (t[p + "attn.wq"], t[p + "attn.wk"], t[p + "attn.wv"]), axis=1,
        out=ws.fixed((i, "w_qkv"), d, 3 * d),
    )
    qkv = _matmul(y1, w_qkv, buf("qkv", n, 3 * d))
    qkv += np.concatenate((t[p + "attn.bq"], t[p + "attn.bk"], t[p + "attn.bv"]))
    # (3, B, heads, C, d_head) views of the one product
    qh, kh, vh = qkv.reshape(b, c, 3, n_heads, d_head).transpose(2, 0, 3, 1, 4)
    probs = np.matmul(qh, kh.swapaxes(-1, -2), out=ws.per_row((i, "probs"), b, n_heads, c, c))
    probs *= 1.0 / np.sqrt(d_head)
    _softmax(probs, ws.per_row("softmax", b, n_heads, c, c))
    z = ws.per_row((i, "z"), b, c, n_heads, d_head)
    np.matmul(probs, vh, out=z.transpose(0, 2, 1, 3))
    z = z.reshape(n, d)
    if keep is not ALL_ROWS:
        z = np.take(z, keep, axis=0, out=buf("z_keep", k, d))
    blk = None
    if ws.retain:
        blk = dict(y1=y1, ln1=ln1_cache, w_qkv=w_qkv, qh=qh, kh=kh, vh=vh, probs=probs)
    del y1, ln1_cache, w_qkv, qkv, qh, kh, vh, probs  # inference frees them before the tail
    residual = x_in
    if keep is not ALL_ROWS:
        residual = np.take(x_in, keep, axis=0, out=ws.per_token("residual", k, d))
    x_mid = _matmul(z, t[p + "attn.wo"], ws.per_token("x_mid", k, d))
    x_mid += t[p + "attn.bo"]
    x_mid += residual
    y2, ln2_cache = _layer_norm_forward(
        x_mid, t[p + "ln2.scale"], t[p + "ln2.offset"], buf("xhat2", k, d), buf("y2", k, d)
    )
    f_act = _matmul(y2, t[p + "ffn.w1"], buf("f_act", k, cfg.d_ff))
    f_act += t[p + "ffn.b1"]
    np.maximum(f_act, 0.0, out=f_act)
    x = _matmul(f_act, t[p + "ffn.w2"], ws.per_token(("out", i % 2), k, d))
    x += x_mid
    x += t[p + "ffn.b2"]
    if blk is not None:
        blk.update(z=z, y2=y2, ln2=ln2_cache, f_act=f_act, keep=keep)
    return x, blk


def head_outputs(params: ModelParams, hidden: np.ndarray, cells: np.ndarray):
    """Apply each column's head at the cells flagged in the (B, C) mask ``cells``.

    Returns {column: (batch rows, predictions)} in ascending column order,
    rows ascending, where predictions are scalars for numeric columns and
    logit matrices for categorical ones.
    """
    t = params.tensors
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for col in np.flatnonzero(cells.any(axis=0)):
        spec = params.columns[col]
        rows = np.flatnonzero(cells[:, col])
        h = hidden[rows, col]
        if spec.kind == ColumnKind.NUMERIC:
            preds = np.einsum("ij,j->i", h, t[f"head.num.{spec.name}.w"])
            preds += t[f"head.num.{spec.name}.b"]
        elif spec.kind == ColumnKind.CATEGORICAL:
            preds = np.einsum("ij,kj->ik", h, t[f"head.cat.{spec.name}.w"])
            preds += t[f"head.cat.{spec.name}.b"]
        else:
            raise ContractViolation(f"column {spec.name!r} is text and has no head")
        out[int(col)] = (rows, preds)
    return out


def _loss_terms(params: ModelParams, batch: Batch, hidden: np.ndarray, ws: _Workspace):
    """Shared by loss_value and loss_and_gradients: the loss and d loss / d hidden.

    The head gradients go into ``ws.grads``; a head without a supervised
    cell is not written.
    """
    w_numeric, w_categorical = batch.loss_weights
    numeric = np.array([spec.kind == ColumnKind.NUMERIC for spec in params.columns])
    kn = int(np.count_nonzero(batch.supervised[:, numeric]))
    kc = int(np.count_nonzero(batch.supervised)) - kn
    d_hidden = ws.per_row("d_hidden", *hidden.shape)
    d_hidden.fill(0.0)
    grads = ws.grads

    mse_sum = ce_sum = 0.0
    for col, (rows, preds) in head_outputs(params, hidden, batch.supervised).items():
        h = hidden[rows, col]
        name = f"head.{'num' if numeric[col] else 'cat'}.{params.columns[col].name}"
        w = params.tensors[name + ".w"]
        if numeric[col]:
            err = preds - batch.numeric_targets[rows, col]
            mse_sum += float(np.einsum("i,i->", err, err))
            d_pred = (2.0 * w_numeric / kn) * err
            d_hidden[rows, col] += d_pred[:, None] * w[None, :]
            _weight_grad(d_pred[:, None], h, grads[name + ".w"][None])
            grads[name + ".b"][...] = d_pred.sum()
        else:
            logits = preds
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
            targets = batch.categorical_targets[rows, col]
            ce_sum += float((log_z - logits[np.arange(len(rows)), targets]).sum())
            probs = _softmax(logits)
            probs[np.arange(len(rows)), targets] -= 1.0
            d_logits = (w_categorical / kc) * probs
            d_hidden[rows, col] += d_logits @ w
            _weight_grad(d_logits, h, grads[name + ".w"])
            np.sum(d_logits, axis=0, out=grads[name + ".b"])

    mse = mse_sum / kn if kn else 0.0
    ce = ce_sum / kc if kc else 0.0
    breakdown = LossBreakdown(
        total=w_numeric * mse + w_categorical * ce,
        numeric_mse=mse,
        categorical_ce=ce,
        n_numeric=kn,
        n_categorical=kc,
    )
    return breakdown, d_hidden


def loss_value(params: ModelParams, batch: Batch) -> LossBreakdown:
    """Forward pass plus supervised loss; no gradients."""
    ws = _Workspace(params, False)
    hidden, _ = _forward(params, batch, ws, np.flatnonzero(batch.supervised))
    return _loss_terms(params, batch, hidden, ws)[0]


def loss_and_gradients(
    params: ModelParams, batch: Batch, ws: _Workspace | None = None
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Loss plus exact analytic gradients for every parameter tensor.

    Both passes run in the retaining workspace ``ws``, or in a fresh one;
    the gradients are its ``grads``, which its next pass overwrites.
    """
    cfg = params.config
    t = params.tensors
    queries = np.flatnonzero(batch.supervised)
    hidden, cache = forward(params, batch, queries, ws)
    ws = cache.ws
    grads = ws.grads
    grads.flat.fill(0.0)  # a tensor the batch does not reach has gradient 0
    breakdown, d_hidden = _loss_terms(params, batch, hidden, ws)

    d = cfg.d_model
    n_heads, d_head = cfg.n_heads, d // cfg.n_heads
    scale = 1.0 / np.sqrt(d_head)
    masked = batch.token_masked[cache.live]  # the blocks ran on these rows only
    b, c = masked.shape
    n = b * c
    # the last stage ran at the query tokens only; d_hidden is 0 elsewhere
    dx = np.take(d_hidden.reshape(-1, d), queries, axis=0, out=ws.per_token("dx", queries.size, d))
    for i in reversed(range(cfg.n_blocks)):
        p = f"block{i}."
        blk = cache.blocks[i]
        keep = blk["keep"]
        k = dx.shape[0]
        # feed-forward branch
        _weight_grad(blk["f_act"], dx, grads[p + "ffn.w2"], ws)
        _column_sums(dx, grads[p + "ffn.b2"])
        d_pre = np.matmul(dx, t[p + "ffn.w2"].T, out=ws.per_token("d_ff", k, cfg.d_ff))
        # ReLU derivative
        d_pre *= np.greater(blk["f_act"], 0.0, out=ws.per_token("relu", k, cfg.d_ff, dtype=bool))
        _weight_grad(blk["y2"], d_pre, grads[p + "ffn.w1"], ws)
        _column_sums(d_pre, grads[p + "ffn.b1"])
        d_x_mid = _layer_norm_backward(
            np.matmul(d_pre, t[p + "ffn.w1"].T, out=ws.per_token("d_ln2", k, d)),
            t[p + "ln2.scale"], blk["ln2"], grads[p + "ln2.scale"], grads[p + "ln2.offset"],
            ws.per_token("ln_prod", k, d),
        )
        d_x_mid += dx
        # attention branch
        _weight_grad(blk["z"], d_x_mid, grads[p + "attn.wo"], ws)
        _column_sums(d_x_mid, grads[p + "attn.bo"])
        d_z = np.matmul(d_x_mid, t[p + "attn.wo"].T, out=ws.per_token("d_z_keep", k, d))
        d_z = _scatter_rows(d_z, keep, n, ws, "d_z")
        d_z = d_z.reshape(b, c, n_heads, d_head).transpose(0, 2, 1, 3)
        probs = blk["probs"]
        d_scores = np.matmul(
            d_z, blk["vh"].swapaxes(-1, -2), out=ws.per_row("d_scores", b, n_heads, c, c)
        )
        weighted = np.multiply(d_scores, probs, out=ws.per_row("softmax", b, n_heads, c, c))
        d_scores -= _row_sums(weighted)[..., None]
        d_scores *= probs
        # d_qkv is laid out like the forward product; the head-major
        # gradients are written straight into its transposed view.
        d_qkv = ws.per_token("d_qkv", n, 3 * d).reshape(b, c, 3, n_heads, d_head)
        d_qh, d_kh, d_vh = d_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(d_scores, blk["kh"], out=d_qh)
        d_qh *= scale
        np.matmul(d_scores.swapaxes(-1, -2), blk["qh"], out=d_kh)
        d_kh *= scale
        np.matmul(probs.swapaxes(-1, -2), d_z, out=d_vh)
        d_qkv = d_qkv.reshape(n, 3 * d)
        d_w_qkv = _weight_grad(blk["y1"], d_qkv, ws.fixed("d_w_qkv", d, 3 * d), ws)
        for j, name in enumerate(("wq", "wk", "wv")):
            grads[p + f"attn.{name}"][...] = d_w_qkv[:, j * d : (j + 1) * d]
        d_b_qkv = _column_sums(d_qkv)
        # softmax cancels q . bk: its gradient stays exactly 0, not noise
        grads[p + "attn.bq"][...] = d_b_qkv[:d]
        grads[p + "attn.bv"][...] = d_b_qkv[2 * d :]
        dx = _layer_norm_backward(
            np.matmul(d_qkv, blk["w_qkv"].T, out=ws.per_token("d_ln1", n, d)),
            t[p + "ln1.scale"], blk["ln1"], grads[p + "ln1.scale"], grads[p + "ln1.offset"],
            ws.per_token("ln_prod", n, d),
        )
        if keep is ALL_ROWS:
            dx += d_x_mid
        else:
            kept = np.take(dx, keep, axis=0, out=ws.per_token("residual", k, d))
            kept += d_x_mid
            dx[keep] = kept
    if cfg.n_blocks == 0:
        dx = _scatter_rows(dx, cache.local, n, ws, "d_ln1")

    # input stage: the projection's gradient is 0 at token-masked cells
    at_mask = np.flatnonzero(masked)
    np.sum(
        np.take(dx, at_mask, axis=0, out=ws.per_token("d_mask", at_mask.size, d)),
        axis=0, out=grads["mask_emb"],
    )
    np.sum(dx.reshape(b, c, d), axis=0, out=grads["col_emb"])
    d_projected = np.multiply(dx, ~masked.reshape(n, 1), out=dx)
    _weight_grad(cache.emb, d_projected, grads["in_proj.w"], ws)
    if params.with_mlp:
        d_emb = np.matmul(
            d_projected, t["in_proj.w"].T, out=ws.per_token("d_emb", n, cfg.embed_dim)
        )
        _weight_grad(cache.mlp_act, d_emb, grads["mlp.w2"], ws)
        _column_sums(d_emb, grads["mlp.b2"])
        d_pre = np.matmul(d_emb, t["mlp.w2"].T, out=ws.per_token("d_mlp", n, cfg.mlp_hidden))
        d_tanh = np.square(
            cache.mlp_act.reshape(n, cfg.mlp_hidden), out=ws.per_token("d_tanh", n, cfg.mlp_hidden)
        )
        d_pre *= np.subtract(1.0, d_tanh, out=d_tanh)
        _weight_grad(cache.inputs, d_pre, grads["mlp.w1"], ws)
        _column_sums(d_pre, grads["mlp.b1"])
    return breakdown, grads


def predict_masked(params: ModelParams, batch: Batch):
    """Head outputs at every token-masked non-text position.

    Returns {column: (batch rows, predictions)}; numeric predictions live
    in normalized target space, categorical predictions are logits.
    """
    scored = np.array([spec.kind != ColumnKind.TEXT for spec in params.columns])
    cells = batch.token_masked & scored
    ws = _Workspace(params, False)
    hidden, _ = _forward(params, batch, ws, np.flatnonzero(cells))
    return head_outputs(params, hidden, cells)
