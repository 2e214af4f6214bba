"""Tests for the statevector simulator and IQP embedding.

The dense-matrix oracle (kron-built Hadamards, explicit diagonal) is the
ground truth for the fast simulator; closed-form and hand-evaluated cases
pin the conventions (little-endian bits, Z-eigenvalue phases).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qimpute.quantum import (
    IqpParams,
    StateVector,
    apply_diagonal_phase,
    apply_hadamard_layer,
    circuit_state,
    iqp_embed,
    iqp_expectations,
    n_pair_angles,
    oracle_apply,
    z_expectations,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)


def random_params(n, n_layers, rng):
    return IqpParams(
        n_qubits=n,
        n_layers=n_layers,
        singles=rng.uniform(-np.pi, np.pi, size=(n_layers, n)),
        pairs=rng.uniform(-np.pi, np.pi, size=(n_layers, n_pair_angles(n))),
    )


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


# ---------------------------------------------------------------------------
# StateVector basics
# ---------------------------------------------------------------------------


def test_zero_state():
    s = StateVector.zero_state(3)
    assert s.amplitudes[0] == 1.0
    assert np.all(s.amplitudes[1:] == 0.0)


def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError, match="shape"):
        StateVector(2, np.array([1.0, 0.0]))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        StateVector(1, np.array([1.0, 1.0]))


def test_amplitudes_are_immutable():
    s = StateVector.zero_state(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


# ---------------------------------------------------------------------------
# Hadamard layer
# ---------------------------------------------------------------------------


def test_hadamard_on_zero_single_qubit():
    s = apply_hadamard_layer(StateVector.zero_state(1))
    assert np.allclose(s.amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_hadamard_twice_is_identity(n):
    rng = np.random.default_rng(11 + n)
    s = random_state(n, rng)
    back = apply_hadamard_layer(apply_hadamard_layer(s))
    assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12


def test_hadamard_matches_dense_kron_n3():
    rng = np.random.default_rng(7)
    s = random_state(3, rng)
    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    dense = np.kron(np.kron(h1, h1), h1)
    expected = dense @ s.amplitudes
    got = apply_hadamard_layer(s).amplitudes
    assert np.max(np.abs(got - expected)) < 1e-12


def test_hadamard_preserves_norm():
    rng = np.random.default_rng(23)
    s = apply_hadamard_layer(random_state(5, rng))
    assert abs(s.norm_squared - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Diagonal phase
# ---------------------------------------------------------------------------


def test_diagonal_zero_angles_is_identity():
    rng = np.random.default_rng(3)
    s = random_state(3, rng)
    out = apply_diagonal_phase(s, np.zeros(3), np.zeros(3))
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_diagonal_preserves_magnitudes():
    rng = np.random.default_rng(5)
    s = random_state(4, rng)
    out = apply_diagonal_phase(
        s, rng.uniform(-3, 3, size=4), rng.uniform(-3, 3, size=6)
    )
    assert np.allclose(np.abs(out.amplitudes), np.abs(s.amplitudes), atol=1e-15)
    assert abs(out.norm_squared - 1.0) < 1e-12


def test_diagonal_phase_hand_case():
    # n=2, singles=(pi/3, 0), no pair angle: basis |01> (qubit 0 = 1, index 1)
    # has z_0 = -1, so it picks up exp(-i pi/3).
    s = StateVector(2, np.full(4, 0.5, dtype=complex))
    out = apply_diagonal_phase(s, np.array([np.pi / 3, 0.0]), np.array([0.0]))
    expected = 0.5 * np.exp(-1j * np.pi / 3)
    assert abs(out.amplitudes[1] - expected) < 1e-15


def test_diagonal_rejects_mismatched_angles():
    s = StateVector.zero_state(3)
    with pytest.raises(ValueError, match="singles"):
        apply_diagonal_phase(s, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="pairs"):
        apply_diagonal_phase(s, np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# IqpParams validation
# ---------------------------------------------------------------------------


def test_iqp_params_shape_checks():
    with pytest.raises(ValueError):
        IqpParams(2, 1, np.zeros((1, 3)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        IqpParams(2, 1, np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="finite"):
        IqpParams(2, 1, np.array([[np.nan, 0.0]]), np.zeros((1, 1)))


def test_replicated_params():
    p = IqpParams.replicated(np.array([0.1, 0.2]), np.array([0.3]), n_layers=3)
    assert p.singles.shape == (3, 2)
    assert np.all(p.singles[0] == p.singles[2])
    assert np.all(p.pairs == 0.3)


# ---------------------------------------------------------------------------
# Full circuit and embedding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,n_layers", [(1, 1), (3, 1), (8, 2), (4, 3)])
def test_zero_angles_give_unit_expectations(n, n_layers):
    params = IqpParams(
        n, n_layers, np.zeros((n_layers, n)), np.zeros((n_layers, n_pair_angles(n)))
    )
    values = iqp_embed(params).values
    assert np.max(np.abs(values - 1.0)) <= 1e-12


def test_single_qubit_closed_form():
    # n=1, L=1: <Z> = cos(2 theta)
    for theta in np.linspace(0.0, np.pi, 50):
        params = IqpParams(1, 1, np.array([[theta]]), np.zeros((1, 0)))
        got = iqp_embed(params).values[0]
        assert abs(got - np.cos(2 * theta)) < 1e-9
    quarter = IqpParams(1, 1, np.array([[np.pi / 4]]), np.zeros((1, 0)))
    assert abs(iqp_embed(quarter).values[0]) < 1e-9


def test_two_qubit_frozen_oracle_values():
    # Computed once with an independent dense-matrix script and frozen here.
    params = IqpParams(2, 1, np.array([[0.3, 0.7]]), np.array([[0.2]]))
    values = iqp_embed(params).values
    assert abs(values[0] - 0.7601844418546903) < 1e-12
    assert abs(values[1] - 0.15655010558752636) < 1e-12
    oracle_values = z_expectations(oracle_apply(params)).values
    assert np.max(np.abs(values - oracle_values)) < 1e-12


def test_expectations_within_bounds():
    rng = np.random.default_rng(17)
    for _ in range(25):
        params = random_params(4, 2, rng)
        values = iqp_embed(params).values
        assert np.all(values >= -1.0) and np.all(values <= 1.0)


def test_norm_preserved_through_circuit():
    rng = np.random.default_rng(29)
    for _ in range(10):
        state = circuit_state(random_params(5, 3, rng))
        assert abs(state.norm_squared - 1.0) < 1e-12


def test_determinism_bitwise():
    params = IqpParams(
        4, 2, np.full((2, 4), 0.37), np.full((2, 6), -0.21)
    )
    a = iqp_embed(params).values
    b = iqp_embed(params).values
    assert np.array_equal(a, b)


def test_qubit_permutation_equivariance():
    rng = np.random.default_rng(41)
    n, n_layers = 5, 2
    params = random_params(n, n_layers, rng)
    perm = rng.permutation(n)

    # Re-slot every pair angle: (j, k) moves to (min(pj, pk), max(pj, pk)).
    import itertools

    pair_slot = {pair: i for i, pair in enumerate(itertools.combinations(range(n), 2))}
    new_singles = np.empty_like(params.singles)
    new_pairs = np.empty_like(params.pairs)
    for j in range(n):
        new_singles[:, perm[j]] = params.singles[:, j]
    for (j, k), slot in pair_slot.items():
        pj, pk = sorted((perm[j], perm[k]))
        new_pairs[:, pair_slot[(pj, pk)]] = params.pairs[:, slot]

    base = iqp_embed(params).values
    permuted = iqp_embed(IqpParams(n, n_layers, new_singles, new_pairs)).values
    assert np.max(np.abs(permuted[perm] - base)) < 1e-12


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------


def test_oracle_zero_angles():
    params = IqpParams(3, 2, np.zeros((2, 3)), np.zeros((2, 3)))
    amps = oracle_apply(params).amplitudes
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    assert np.max(np.abs(amps - expected)) < 1e-12


def test_oracle_unitarity_random_angles():
    rng = np.random.default_rng(53)
    for _ in range(5):
        state = oracle_apply(random_params(4, 2, rng))
        assert abs(state.norm_squared - 1.0) < 1e-12


def test_oracle_refuses_large_n():
    params = IqpParams(11, 1, np.zeros((1, 11)), np.zeros((1, n_pair_angles(11))))
    with pytest.raises(ValueError, match="at most"):
        oracle_apply(params)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_fast_simulator_matches_oracle(n, n_layers):
    rng = np.random.default_rng(1000 + 10 * n + n_layers)
    for _ in range(10):
        params = random_params(n, n_layers, rng)
        fast = circuit_state(params).amplitudes
        dense_state = oracle_apply(params)
        assert np.max(np.abs(fast - dense_state.amplitudes)) < 1e-10
        closed = iqp_embed(params).values
        assert np.max(np.abs(closed - z_expectations(dense_state).values)) < 1e-12


def test_iqp_expectations_rows_independent_of_batch():
    rng = np.random.default_rng(61)
    n, batch = 6, 9
    singles = rng.uniform(-np.pi, np.pi, size=(batch, n))
    pairs = rng.uniform(-np.pi, np.pi, size=(batch, n_pair_angles(n)))
    together = iqp_expectations(singles, pairs)
    assert together.shape == (batch, n)
    for b in range(batch):
        alone = iqp_expectations(singles[b : b + 1], pairs[b : b + 1])[0]
        assert np.array_equal(alone, together[b])
        one_layer = IqpParams(n, 1, singles[b : b + 1], pairs[b : b + 1])
        oracle = z_expectations(oracle_apply(one_layer)).values
        assert np.max(np.abs(together[b] - oracle)) < 1e-12


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 6),
    n_layers=st.integers(1, 3),
    batch=st.integers(1, 3),
)
def test_closed_form_matches_dense_oracle(data, n, n_layers, batch):
    # Per-layer angles summed into one batch row each; every row must match
    # the L-layer dense circuit it came from.
    angles = st.floats(-2 * np.pi, 2 * np.pi)
    params = [
        IqpParams(
            n,
            n_layers,
            data.draw(arrays(np.float64, (n_layers, n), elements=angles)),
            data.draw(arrays(np.float64, (n_layers, n_pair_angles(n)), elements=angles)),
        )
        for _ in range(batch)
    ]
    closed = iqp_expectations(
        np.stack([p.singles.sum(axis=0) for p in params]),
        np.stack([p.pairs.sum(axis=0) for p in params]),
    )
    for row, p in zip(closed, params):
        assert np.max(np.abs(row - z_expectations(oracle_apply(p)).values)) < 1e-12


def test_iqp_expectations_rejects_mismatched_pairs():
    with pytest.raises(ValueError, match="pairs"):
        iqp_expectations(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="singles"):
        iqp_expectations(np.zeros(3), np.zeros(3))
