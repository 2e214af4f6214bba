"""Tests for the masked transformer: forward contracts and analytic gradients.

The gradient oracle is central finite differences of ``loss_value`` with
h = 1e-5, compared entrywise at relative error 1e-4.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qimpute.model as model_module
from qimpute.encoding import fit_preprocessor
from qimpute.errors import ConfigError, ContractViolation
from qimpute.model import (
    Batch,
    ModelConfig,
    _K_BLOCK,
    _column_sums,
    _matmul,
    _row_sums,
    _weight_grad,
    forward,
    head_outputs,
    init_params,
    loss_and_gradients,
    loss_value,
    predict_masked,
)
from qimpute.tabular import ColumnKind, ColumnSpec, DatasetSchema, Table

SCHEMA = DatasetSchema(
    (
        ColumnSpec("n1", ColumnKind.NUMERIC),
        ColumnSpec("n2", ColumnKind.NUMERIC),
        ColumnSpec("c1", ColumnKind.CATEGORICAL),
        ColumnSpec("c2", ColumnKind.CATEGORICAL),
    ),
    name="tiny",
)

TINY = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, embed_dim=4, mlp_hidden=5)
TINY2 = ModelConfig(d_model=8, n_blocks=2, n_heads=2, d_ff=16, embed_dim=4, mlp_hidden=5)


def tiny_stats():
    table = Table(
        SCHEMA,
        [
            [0.0, 1.0, "a", "x"],
            [1.0, 2.0, "b", "y"],
            [0.5, 3.0, "a", "z"],
        ],
    )
    return fit_preprocessor(table, SCHEMA)


def tiny_params(seed=0, mlp_d_in=0, config=TINY):
    return init_params(SCHEMA, tiny_stats(), config, seed=seed, mlp_d_in=mlp_d_in)


def cells(shape, *positions):
    """A (B, C) bool mask flagging the given (row, column) cells."""
    mask = np.zeros(shape, dtype=bool)
    for row, col in positions:
        mask[row, col] = True
    return mask


def targets(shape, values, dtype=float):
    """(B, C) targets holding ``values`` ({(row, column): value}) and 0 elsewhere."""
    out = np.zeros(shape, dtype=dtype)
    for (row, col), value in values.items():
        out[row, col] = value
    return out


def tiny_batch(rng, with_mlp=False, mlp_d_in=6):
    b, c = 3, 4
    token_masked = np.zeros((b, c), dtype=bool)
    token_masked[0, 0] = True  # supervision target (numeric)
    token_masked[1, 2] = True  # supervision target (categorical)
    token_masked[2, 3] = True  # genuinely missing, not a target
    features = rng.normal(size=(b, c, TINY.embed_dim))
    if with_mlp:  # classical vectors, drawn after the embeddings
        features = rng.normal(size=(b, c, mlp_d_in))
    features[token_masked] = 0.0
    return Batch(
        token_masked=token_masked,
        features=features,
        supervised=cells((b, c), (0, 0), (1, 2)),
        numeric_targets=targets((b, c), {(0, 0): 0.6}),
        categorical_targets=targets((b, c), {(1, 2): 1}, dtype=int),
    )


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------


def test_forward_shapes_and_determinism():
    rng = np.random.default_rng(1)
    params = tiny_params()
    batch = tiny_batch(rng)
    h1, _ = forward(params, batch)
    h2, _ = forward(params, batch)
    assert h1.shape == (3, 4, TINY.d_model)
    assert np.array_equal(h1, h2)


def test_no_supervision_targets_empty_loss():
    rng = np.random.default_rng(2)
    params = tiny_params()
    emb = rng.normal(size=(1, 4, TINY.embed_dim))
    batch = Batch(token_masked=np.zeros((1, 4), dtype=bool), features=emb)
    breakdown = loss_value(params, batch)
    assert breakdown.total == 0.0
    assert breakdown.n_numeric == 0 and breakdown.n_categorical == 0


@pytest.mark.parametrize("mlp_d_in", [0, 6])
def test_batch_of_the_wrong_input_width_is_a_contract_violation(mlp_d_in):
    # The input width is mlp_d_in for an MLP model, embed_dim otherwise.
    params = tiny_params(mlp_d_in=mlp_d_in)
    width = mlp_d_in or TINY.embed_dim
    for wrong in {width - 1, width + 1, 6 if width == TINY.embed_dim else TINY.embed_dim}:
        batch = Batch(
            token_masked=np.zeros((1, 4), dtype=bool), features=np.zeros((1, 4, wrong))
        )
        with pytest.raises(ContractViolation, match=f"width {wrong} != model input width {width}"):
            forward(params, batch)
    right = Batch(token_masked=np.zeros((1, 4), dtype=bool), features=np.zeros((1, 4, width)))
    assert forward(params, right)[0].shape == (1, 4, TINY.d_model)


def test_hand_forward_with_zeroed_blocks():
    # With all attention/FFN weights zero the residual stream passes the
    # input tokens through untouched, so a numeric head reads exactly
    # w . (emb @ in_proj + col_emb) + b. Checked by hand at d_model=2.
    config = ModelConfig(d_model=2, n_blocks=1, n_heads=1, d_ff=2, embed_dim=2)
    params = init_params(SCHEMA, tiny_stats(), config, seed=3)
    for name, tensor in params.tensors.items():
        if "attn" in name or "ffn" in name:
            params.tensors[name] = np.zeros_like(tensor)
    params.tensors["in_proj.w"] = np.array([[1.0, 0.0], [0.0, 1.0]])
    params.tensors["col_emb"] = np.zeros((4, 2))
    params.tensors["col_emb"][0] = [0.25, -0.5]
    params.tensors["head.num.n1.w"] = np.array([2.0, 3.0])
    params.tensors["head.num.n1.b"] = np.array(0.125)

    emb = np.zeros((1, 4, 2))
    emb[0, 0] = [0.5, 1.5]
    batch = Batch(token_masked=np.zeros((1, 4), dtype=bool), features=emb)
    hidden, _ = forward(params, batch)
    preds = head_outputs(params, hidden, cells((1, 4), (0, 0)))
    token = np.array([0.5 + 0.25, 1.5 - 0.5])
    expected = 2.0 * token[0] + 3.0 * token[1] + 0.125
    assert preds[0][1][0] == pytest.approx(expected, abs=1e-12)


def test_categorical_softmax_normalizes():
    rng = np.random.default_rng(4)
    params = tiny_params()
    batch = tiny_batch(rng)
    hidden, _ = forward(params, batch)
    preds = head_outputs(params, hidden, cells((3, 4), (0, 3), (1, 3)))
    logits = preds[3][1]
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_row_permutation_consistency():
    rng = np.random.default_rng(5)
    params = tiny_params()
    batch = tiny_batch(rng)
    hidden, _ = forward(params, batch)
    perm = np.array([2, 0, 1])
    permuted = Batch(
        token_masked=batch.token_masked[perm],
        features=batch.features[perm],
    )
    hidden_p, _ = forward(params, permuted)
    assert hidden_p.tobytes() == hidden[perm].tobytes()


def test_column_embedding_symmetry():
    # Equal column embeddings + symmetric inputs + equal heads -> equal
    # predictions; distinct column embeddings break the tie.
    config = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, embed_dim=4)
    params = init_params(SCHEMA, tiny_stats(), config, seed=6)
    batch = Batch(
        token_masked=np.array([[True, True, False, False]]),
        features=np.zeros((1, 4, 4)),
    )
    hidden, _ = forward(params, batch)
    preds = head_outputs(params, hidden, cells((1, 4), (0, 0), (0, 1)))
    distinct = preds[0][1][0] - preds[1][1][0]
    assert abs(distinct) > 1e-9  # distinct column embeddings separate them

    params.tensors["col_emb"][1] = params.tensors["col_emb"][0]
    params.tensors["head.num.n2.w"] = params.tensors["head.num.n1.w"].copy()
    params.tensors["head.num.n2.b"] = params.tensors["head.num.n1.b"].copy()
    hidden, _ = forward(params, batch)
    preds = head_outputs(params, hidden, cells((1, 4), (0, 0), (0, 1)))
    assert preds[0][1][0] == pytest.approx(preds[1][1][0], abs=1e-12)


# ---------------------------------------------------------------------------
# loss values
# ---------------------------------------------------------------------------


def test_loss_numeric_squared_error():
    params = tiny_params(seed=7)
    # Zero the pipeline so the numeric prediction is exactly the head bias.
    for name, tensor in params.tensors.items():
        params.tensors[name] = np.zeros_like(tensor)
    params.tensors["head.num.n1.b"] = np.array(0.5)
    batch = Batch(
        token_masked=np.array([[True, False, False, False]]),
        features=np.zeros((1, 4, TINY.embed_dim)),
        supervised=cells((1, 4), (0, 0)),
        numeric_targets=targets((1, 4), {(0, 0): 0.7}),
    )
    breakdown = loss_value(params, batch)
    assert breakdown.numeric_mse == pytest.approx(0.04, abs=1e-12)
    assert breakdown.total == pytest.approx(0.04, abs=1e-12)


def test_loss_uniform_binary_logits_is_ln2():
    params = tiny_params(seed=8)
    for name, tensor in params.tensors.items():
        params.tensors[name] = np.zeros_like(tensor)
    batch = Batch(
        token_masked=np.array([[False, False, True, False]]),
        features=np.zeros((1, 4, TINY.embed_dim)),
        supervised=cells((1, 4), (0, 2)),
        categorical_targets=targets((1, 4), {(0, 2): 0}, dtype=int),
    )
    breakdown = loss_value(params, batch)
    assert breakdown.categorical_ce == pytest.approx(np.log(2.0), abs=1e-12)


def test_exact_fit_mse_zero_and_gradients_zero():
    params = tiny_params(seed=9)
    for name, tensor in params.tensors.items():
        params.tensors[name] = np.zeros_like(tensor)
    params.tensors["head.num.n1.b"] = np.array(0.6)
    batch = Batch(
        token_masked=np.array([[True, False, False, False]]),
        features=np.zeros((1, 4, TINY.embed_dim)),
        supervised=cells((1, 4), (0, 0)),
        numeric_targets=targets((1, 4), {(0, 0): 0.6}),
    )
    breakdown, grads = loss_and_gradients(params, batch)
    assert breakdown.total == 0.0
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_unused_head_gets_zero_gradient():
    rng = np.random.default_rng(10)
    params = tiny_params(seed=11)
    batch = tiny_batch(rng)  # targets touch n1 and c1 heads only
    _, grads = loss_and_gradients(params, batch)
    assert np.all(grads["head.num.n2.w"] == 0.0)
    assert np.all(grads["head.cat.c2.w"] == 0.0)
    assert not np.all(grads["head.num.n1.w"] == 0.0)


def test_loss_weights_scale_terms():
    rng = np.random.default_rng(12)
    params = tiny_params(seed=12)
    batch = tiny_batch(rng)
    base = loss_value(params, batch)
    batch.loss_weights = (2.0, 0.5)
    weighted = loss_value(params, batch)
    assert weighted.total == pytest.approx(
        2.0 * base.numeric_mse + 0.5 * base.categorical_ce, rel=1e-12
    )


# ---------------------------------------------------------------------------
# finite-difference gradient oracle
# ---------------------------------------------------------------------------


def finite_difference_check(params, batch, h=1e-5, rtol=1e-4):
    """Every entry of every tensor: central differences vs analytic gradient."""
    _, grads = loss_and_gradients(params, batch)
    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        grad_flat = np.asarray(grads[name]).reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            up = loss_value(params, batch).total
            flat[idx] = original - h
            down = loss_value(params, batch).total
            flat[idx] = original
            fd = (up - down) / (2.0 * h)
            analytic = grad_flat[idx]
            denom = max(abs(fd), abs(analytic))
            if denom > 1e-6:
                err = abs(fd - analytic) / denom
                assert err < rtol, f"{name}[{idx}]: fd={fd} analytic={analytic} err={err}"
                worst = max(worst, err)
            else:
                assert abs(fd - analytic) < 1e-8, f"{name}[{idx}]"
    return worst


def test_gradients_match_finite_differences_fixed_embeddings():
    rng = np.random.default_rng(13)
    params = tiny_params(seed=13)
    batch = tiny_batch(rng)
    batch.loss_weights = (1.0, 1.0)
    worst = finite_difference_check(params, batch)
    assert worst < 1e-4


def test_gradients_match_finite_differences_mlp_embedder():
    rng = np.random.default_rng(14)
    params = tiny_params(seed=14, mlp_d_in=6)
    batch = tiny_batch(rng, with_mlp=True, mlp_d_in=6)
    worst = finite_difference_check(params, batch)
    assert worst < 1e-4


@pytest.mark.parametrize("mlp_d_in", [0, 6])
def test_gradients_match_finite_differences_two_blocks(mlp_d_in):
    # The last block's query-row tail on top of a block that runs at every
    # token; row 2 of tiny_batch has no query token.
    rng = np.random.default_rng(16)
    params = tiny_params(seed=16, mlp_d_in=mlp_d_in, config=TINY2)
    batch = tiny_batch(rng, with_mlp=mlp_d_in > 0, mlp_d_in=6)
    assert not batch.supervised[2].any()
    assert finite_difference_check(params, batch) < 1e-4


def test_gradients_with_mixed_loss_weights():
    rng = np.random.default_rng(15)
    params = tiny_params(seed=15)
    batch = tiny_batch(rng)
    batch.loss_weights = (1.5, 0.75)
    finite_difference_check(params, batch)


# ---------------------------------------------------------------------------
# init and bookkeeping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_blocks", [0, 2])
@pytest.mark.parametrize("mlp_d_in", [0, 6])
def test_features_at_token_masked_cells_are_never_read(n_blocks, mlp_d_in):
    # _forward puts the mask vector in place of a token-masked cell's
    # projection, so what the batch holds there changes no bit of the loss,
    # a gradient or a prediction, for an MLP input too.
    rng = np.random.default_rng(12)
    config = replace(TINY, n_blocks=n_blocks)
    params = tiny_params(seed=3, mlp_d_in=mlp_d_in, config=config)
    batch = tiny_batch(rng, with_mlp=mlp_d_in > 0)
    features = batch.features.copy()
    features[batch.token_masked] = 50.0 * rng.normal(size=features[batch.token_masked].shape)
    noisy = replace(batch, features=features)
    (loss, grads), (noisy_loss, noisy_grads) = (
        loss_and_gradients(params, b) for b in (batch, noisy)
    )
    assert noisy_loss == loss
    for name, g in grads.items():
        assert noisy_grads[name].tobytes() == g.tobytes(), name
    preds, noisy_preds = predict_masked(params, batch), predict_masked(params, noisy)
    assert noisy_preds.keys() == preds.keys()
    for col, (rows, values) in preds.items():
        assert np.array_equal(noisy_preds[col][0], rows)
        assert noisy_preds[col][1].tobytes() == values.tobytes(), col


def test_init_deterministic_and_counts():
    a = tiny_params(seed=21)
    b = tiny_params(seed=21)
    assert a.n_parameters == b.n_parameters
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    c = tiny_params(seed=22)
    assert any(
        not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors
    )


def test_mask_embedding_zero_init():
    params = tiny_params(seed=23)
    assert np.all(params.tensors["mask_emb"] == 0.0)


def test_column_heads_vocabularies():
    params = tiny_params()
    assert params.columns == SCHEMA.columns
    assert params.tensors["head.cat.c1.w"].shape == (2, TINY.d_model)  # ("a", "b")
    assert params.tensors["head.cat.c2.w"].shape == (3, TINY.d_model)  # ("x", "y", "z")
    assert params.tensors["head.num.n1.w"].shape == (TINY.d_model,)


@pytest.mark.parametrize("embed_dim", [0, -1])
def test_model_config_rejects_an_empty_embedding(embed_dim):
    with pytest.raises(ConfigError, match="embed_dim must be >= 1"):
        ModelConfig(embed_dim=embed_dim)


def test_predict_masked_excludes_text():
    schema = DatasetSchema(
        (
            ColumnSpec("v", ColumnKind.NUMERIC),
            ColumnSpec("t", ColumnKind.TEXT),
        ),
        name="with_text",
    )
    table = Table(schema, [[1.0, "hello"], [2.0, "bye"]])
    stats = fit_preprocessor(table, schema)
    config = ModelConfig(d_model=4, n_blocks=1, n_heads=1, d_ff=8, embed_dim=4)
    params = init_params(schema, stats, config, seed=1)
    batch = Batch(
        token_masked=np.array([[True, True], [False, True]]),
        features=np.zeros((2, 2, 4)),
    )
    preds = predict_masked(params, batch)
    assert set(preds.keys()) == {0}


# ---------------------------------------------------------------------------
# gemm-shaped helpers and the inference path
# ---------------------------------------------------------------------------


def test_weight_grad_matches_einsum():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(5, 7, 6))
    g = rng.normal(size=(5, 7, 9))
    expected = np.einsum("bcd,bce->de", a, g)
    assert np.allclose(_weight_grad(a, g), expected, rtol=0.0, atol=1e-12)
    # non-contiguous operands: transposed head-major views as attention makes them
    qkv = rng.normal(size=(4, 6, 3, 2, 5))
    qh, kh, _ = qkv.transpose(2, 0, 3, 1, 4)
    assert not qh.flags.c_contiguous
    expected = np.einsum("bcd,bce->de", qh.reshape(-1, 6, 5), kh.reshape(-1, 6, 5))
    got = _weight_grad(qh, kh)
    assert got.shape == (5, 5)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
    wide = rng.normal(size=(6, 4, 8)).transpose(1, 0, 2)
    assert np.allclose(
        _weight_grad(wide, wide[..., :3]),
        np.einsum("bcd,bce->de", wide, wide[..., :3]),
        rtol=0.0,
        atol=1e-12,
    )


def test_gemv_sums_match_numpy_sums():
    rng = np.random.default_rng(32)
    a = rng.normal(size=(3, 4, 5)).transpose(1, 0, 2)
    assert np.allclose(_column_sums(a), a.sum(axis=(0, 1)), rtol=0.0, atol=1e-12)
    assert _row_sums(a).shape == (4, 3)
    assert np.allclose(_row_sums(a), a.sum(axis=-1), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("inner", [4, 64, _K_BLOCK + 1, 3 * _K_BLOCK + 5])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 64])
def test_matmul_rows_do_not_depend_on_the_other_rows(inner, width):
    rng = np.random.default_rng(inner * 100 + width)
    a = rng.normal(size=(40, inner))
    b = rng.normal(size=(inner, width))
    full = _matmul(a, b)
    assert np.allclose(full, a @ b, rtol=1e-12, atol=1e-12)
    for n in (1, 2, 3, 5, 9, 17, 33):
        assert _matmul(a[:n], b).tobytes() == full[:n].tobytes(), n
    perm = rng.permutation(40)
    assert _matmul(a[perm], b).tobytes() == full[perm].tobytes()
    assert _row_sums(a[:3]).tobytes() == _row_sums(a)[:3].tobytes()


GRADIENTS = """
import pickle, sys
import numpy as np
from qimpute.model import loss_and_gradients
with open(sys.argv[1], "rb") as f:
    params, batch = pickle.load(f)
loss, grads = loss_and_gradients(params, batch)
np.savez(sys.argv[2], loss=loss.total, **grads)
"""


def test_gradients_do_not_depend_on_the_blas_thread_count(tmp_path):
    # A batch large enough that OpenBLAS, at two threads, splits a row-wise
    # gemv (the layer-norm backward, here at 14,442 tokens) and rounds some
    # rows differently; every reduction must still sum in one fixed order.
    config = replace(TINY2, d_model=32, n_blocks=1, d_ff=32)
    rng = np.random.default_rng(7)
    supervised = np.ones((3611, 4), dtype=bool)
    supervised[0, :2] = False
    batch = Batch(
        token_masked=supervised,
        features=rng.normal(size=(3611, 4, config.embed_dim)),
        supervised=supervised,
        numeric_targets=rng.random((3611, 4)),
        categorical_targets=rng.integers(0, 2, (3611, 4)),
    )
    inputs = tmp_path / "inputs.pkl"
    inputs.write_bytes(pickle.dumps((tiny_params(seed=3, config=config), batch)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}.npz"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-c", GRADIENTS, str(inputs), str(out)], env=env, check=True, timeout=120
        )
        with np.load(out) as npz:
            runs.append({name: npz[name].tobytes() for name in npz.files})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("mlp_d_in", [0, 6])
def test_predict_masked_gives_a_row_the_same_bits_in_any_batch(mlp_d_in):
    # Layer-norm moments, softmax denominators, head products and one-row
    # products: none of them may round a row by its batch-mates.
    rng = np.random.default_rng(34)
    params = tiny_params(seed=34, mlp_d_in=mlp_d_in, config=TINY2)
    n = 30
    token_masked = rng.random((n, 4)) < 0.4
    features = rng.normal(size=(n, 4, mlp_d_in or TINY2.embed_dim))

    def predictions(rows):
        out = {}
        batch = Batch(token_masked=token_masked[rows], features=features[rows])
        for col, (local, preds) in predict_masked(params, batch).items():
            for r, p in zip(rows[local], preds):
                out[int(r), col] = np.asarray(p).tobytes()
        return out

    everything = predictions(np.arange(n))
    assert len(everything) == np.count_nonzero(token_masked)
    for rows in (rng.permutation(n), np.arange(7), np.array([11]), rng.permutation(n)[:13]):
        got = predictions(rows)
        assert got == {key: everything[key] for key in got}


def test_predict_masked_equals_heads_on_caching_forward():
    rng = np.random.default_rng(33)
    for mlp_d_in in (0, 6):
        params = tiny_params(seed=33, mlp_d_in=mlp_d_in)
        batch = tiny_batch(rng, with_mlp=mlp_d_in > 0, mlp_d_in=6)
        hidden, cache = forward(params, batch)
        assert len(cache.blocks) == TINY.n_blocks
        expected = head_outputs(params, hidden, batch.token_masked)
        got = predict_masked(params, batch)
        assert got.keys() == expected.keys()
        for col in expected:
            assert np.array_equal(got[col][0], expected[col][0])
            assert np.array_equal(got[col][1], expected[col][1])


# ---------------------------------------------------------------------------
# the last block's tail at the query tokens
# ---------------------------------------------------------------------------

TEXT_SCHEMA = DatasetSchema(
    SCHEMA.columns + (ColumnSpec("t", ColumnKind.TEXT),), name="tiny_text"
)


def reference_loss(params, batch):
    """The supervised loss recomputed from the all-token ``forward``."""
    hidden, _ = forward(params, batch)
    w_numeric, w_categorical = batch.loss_weights
    mse = ce = 0.0
    kn = kc = 0
    for col, (rows, preds) in head_outputs(params, hidden, batch.supervised).items():
        if params.columns[col].kind == ColumnKind.NUMERIC:
            mse += float(((preds - batch.numeric_targets[rows, col]) ** 2).sum())
            kn += len(rows)
        else:
            logits, labels = preds, batch.categorical_targets[rows, col]
            top = logits.max(axis=1)
            log_z = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
            ce += float((log_z - logits[np.arange(len(labels)), labels]).sum())
            kc += len(rows)
    return w_numeric * (mse / kn if kn else 0.0) + w_categorical * (ce / kc if kc else 0.0)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    n_blocks=st.integers(0, 3),
    n_rows=st.integers(1, 4),
    supervision=st.sampled_from(["random", "none", "every non-text token"]),
    with_mlp=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_loss_value_matches_all_token_forward(n_blocks, n_rows, supervision, with_mlp, seed):
    rng = np.random.default_rng(seed)
    table = Table(
        TEXT_SCHEMA,
        [[0.0, 1.0, "a", "x", "hi"], [1.0, 2.0, "b", "y", "bye"], [0.5, 3.0, "a", "z", "so"]],
    )
    config = ModelConfig(d_model=8, n_blocks=n_blocks, n_heads=2, d_ff=16, embed_dim=4)
    params = init_params(
        TEXT_SCHEMA, fit_preprocessor(table, TEXT_SCHEMA), config, seed=seed,
        mlp_d_in=6 if with_mlp else 0,
    )
    scored = np.array([True, True, True, True, False])
    sup = {
        "random": (rng.random((n_rows, 5)) < 0.4) & scored,
        "none": np.zeros((n_rows, 5), dtype=bool),
        "every non-text token": np.tile(scored, (n_rows, 1)),
    }[supervision]
    token_masked = sup | (rng.random((n_rows, 5)) < 0.2)
    features = rng.normal(size=(n_rows, 5, 6 if with_mlp else 4)) * ~token_masked[..., None]
    rows, cols = np.nonzero(sup)
    numeric = cols < 2
    cat_cols = cols[~numeric]
    numeric_targets = np.zeros((n_rows, 5))
    numeric_targets[rows[numeric], cols[numeric]] = rng.random(int(numeric.sum()))
    categorical_targets = np.zeros((n_rows, 5), dtype=int)
    categorical_targets[rows[~numeric], cat_cols] = rng.integers(0, np.where(cat_cols == 2, 2, 3))
    batch = Batch(
        token_masked=token_masked,
        features=features,
        supervised=sup,
        numeric_targets=numeric_targets,
        categorical_targets=categorical_targets,
        loss_weights=(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
    )
    got = loss_value(params, batch)
    assert (got.n_numeric, got.n_categorical) == (int(numeric.sum()), len(cat_cols))
    assert got.total == pytest.approx(reference_loss(params, batch), rel=0.0, abs=1e-12)
    assert loss_and_gradients(params, batch)[0].total == got.total


def random_batch(rng, n_rows, supervised, width):
    """``n_rows`` random rows whose supervised cells are the (row, column) pairs
    ``supervised``; about a fifth of the other cells are missing."""
    shape = (n_rows, len(SCHEMA.columns))
    sup = cells(shape, *supervised)
    return Batch(
        token_masked=sup | (rng.random(shape) < 0.2),
        features=rng.normal(size=shape + (width,)),
        supervised=sup,
        numeric_targets=rng.random(shape),
        categorical_targets=rng.integers(0, 2, shape),
    )


@pytest.mark.parametrize("mlp_d_in", [0, 6])
def test_a_reused_workspace_gives_each_step_the_bits_of_a_fresh_one(mlp_d_in):
    # train runs all its steps in one workspace. Full batches, a short one,
    # one with a single query token (_matmul's one-row path) and one with
    # no supervised cell (no live row) must each get the loss and gradients
    # of a fresh workspace, whatever ran in it before.
    rng = np.random.default_rng(41)
    params = tiny_params(seed=41, mlp_d_in=mlp_d_in, config=TINY2)
    width = mlp_d_in or TINY2.embed_dim
    full = [(r, c) for r in range(8) for c in range(4) if (r + c) % 3 == 0]
    batches = [
        random_batch(rng, 8, full, width),
        random_batch(rng, 3, [(0, 1), (2, 2)], width),
        random_batch(rng, 8, [(5, 3)], width),
        random_batch(rng, 8, [], width),
        random_batch(rng, 8, full[::2], width),
    ]
    ws = model_module._Workspace(params, True, 8)
    for batch in batches + batches[::-1]:
        loss, grads = loss_and_gradients(params, batch, ws)
        fresh_loss, fresh = loss_and_gradients(params, batch)
        assert loss == fresh_loss
        assert grads is ws.grads and grads.keys() == fresh.keys()
        for name, grad in fresh.items():
            assert grads[name].tobytes() == grad.tobytes(), name


def test_loss_and_gradients_calls_forward_once_through_the_module(monkeypatch):
    # perfbench times training forwards by wrapping qimpute.model.forward;
    # a step that bypassed the module global would hide its forward time.
    calls = []
    original = model_module.forward

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(model_module, "forward", counting)
    loss_and_gradients(tiny_params(seed=34), tiny_batch(np.random.default_rng(34)))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# rows without a query skip the blocks
# ---------------------------------------------------------------------------


def block_calls(monkeypatch):
    """Record (shape, token count) of every ``_block_forward`` call."""
    seen = []
    original = model_module._block_forward

    def guard(t, p, x_in, shape, cfg, store, keep):
        seen.append((shape, x_in.shape[0]))
        return original(t, p, x_in, shape, cfg, store, keep)

    monkeypatch.setattr(model_module, "_block_forward", guard)
    return seen


def with_padding_rows(batch, rng, where):
    """``batch`` with rows holding no supervised cell inserted before the
    row indices ``where``; the supervision mask and targets get them too."""
    b, c = batch.token_masked.shape
    original = np.insert(np.ones(b, dtype=bool), where, False)
    token_masked = rng.random((original.size, c)) < 0.3
    token_masked[original] = batch.token_masked

    def pad(features):
        out = rng.normal(size=(original.size,) + features.shape[1:])
        out *= ~token_masked[..., None]
        out[original] = features
        return out

    def unsupervised(array):
        out = np.zeros((original.size, c), dtype=array.dtype)
        out[original] = array
        return out

    return Batch(
        token_masked=token_masked,
        features=pad(batch.features),
        supervised=unsupervised(batch.supervised),
        numeric_targets=unsupervised(batch.numeric_targets),
        categorical_targets=unsupervised(batch.categorical_targets),
        loss_weights=batch.loss_weights,
    )


@pytest.mark.parametrize("mlp_d_in", [0, 6])
def test_rows_without_supervision_change_no_loss_or_gradient(monkeypatch, mlp_d_in):
    rng = np.random.default_rng(35)
    params = tiny_params(seed=35, mlp_d_in=mlp_d_in, config=TINY2)
    batch = tiny_batch(rng, with_mlp=mlp_d_in > 0, mlp_d_in=6)
    padded = with_padding_rows(batch, rng, [0, 1, 3, 3])
    assert padded.n_rows == 7
    seen = block_calls(monkeypatch)
    breakdown, grads = loss_and_gradients(params, batch)
    padded_breakdown, padded_grads = loss_and_gradients(params, padded)
    # rows 0 and 1 of tiny_batch hold the targets: 2 rows x 4 tokens per block
    assert seen == [((2, 4), 8)] * 4
    assert padded_breakdown == breakdown
    assert loss_value(params, padded) == loss_value(params, batch)
    assert padded_grads.keys() == grads.keys()
    for name, grad in grads.items():
        assert np.allclose(padded_grads[name], grad, rtol=0.0, atol=1e-12), name


@pytest.mark.parametrize("mlp_d_in", [0, 6])
def test_batch_without_supervision_reaches_blocks_with_no_rows(monkeypatch, mlp_d_in):
    rng = np.random.default_rng(36)
    params = tiny_params(seed=36, mlp_d_in=mlp_d_in, config=TINY2)
    full = tiny_batch(rng, with_mlp=mlp_d_in > 0, mlp_d_in=6)
    batch = Batch(token_masked=full.token_masked, features=full.features)
    seen = block_calls(monkeypatch)
    breakdown, grads = loss_and_gradients(params, batch)
    assert seen == [((0, 4), 0)] * 2
    assert breakdown.total == 0.0
    assert grads.keys() == params.tensors.keys()
    for name, grad in grads.items():
        assert grad.shape == params.tensors[name].shape, name
        assert not np.any(grad), name


@pytest.mark.parametrize("mlp_d_in", [0, 6])
def test_predict_masked_skips_rows_without_a_masked_scored_cell(monkeypatch, mlp_d_in):
    rng = np.random.default_rng(37)
    table = Table(TEXT_SCHEMA, [[0.0, 1.0, "a", "x", "hi"], [1.0, 2.0, "b", "y", "so"]])
    config = ModelConfig(d_model=8, n_blocks=2, n_heads=2, d_ff=16, embed_dim=4)
    params = init_params(
        TEXT_SCHEMA, fit_preprocessor(table, TEXT_SCHEMA), config, seed=37, mlp_d_in=mlp_d_in
    )
    token_masked = np.zeros((6, 5), dtype=bool)
    token_masked[0, 4] = True  # text only: no query
    token_masked[2, 0] = True
    token_masked[3, [3, 4]] = True
    token_masked[5, [1, 2]] = True
    features = rng.normal(size=(6, 5, mlp_d_in or 4)) * ~token_masked[..., None]
    batch = Batch(token_masked=token_masked, features=features)
    seen = block_calls(monkeypatch)
    got = predict_masked(params, batch)
    assert seen == [((3, 5), 15)] * 2  # rows 2, 3 and 5
    hidden, _ = forward(params, batch)
    expected = head_outputs(params, hidden, token_masked & (np.arange(5) < 4))
    assert got.keys() == expected.keys()
    for col in expected:
        assert np.array_equal(got[col][0], expected[col][0])
        assert np.allclose(got[col][1], expected[col][1], rtol=0.0, atol=1e-12)
