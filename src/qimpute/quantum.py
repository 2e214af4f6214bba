"""Exact statevector simulation of IQP-style embedding circuits.

The circuit family encodes a classical angle set into an n-qubit state

    |psi> = [ H^(x)n . U_diag(theta) . H^(x)n ]^L |0...0>

where U_diag = exp(i [sum_j theta_j Z_j + sum_{j<k} theta_jk Z_j Z_k]) is
diagonal in the computational basis. Each of the L layers carries its own
angle arrays (the encoding pipeline replicates one angle set across
layers, see :mod:`qimpute.encoding`). With all angles zero the Hadamard
layers cancel in pairs and the state returns to |0...0>.

Conventions, fixed so tests are unambiguous:

* little-endian basis: index ``b`` carries qubit ``j`` in bit ``j``;
* Z-eigenvalue phases: ``z_j(b) = +1`` when bit ``j`` of ``b`` is 0,
  ``-1`` when it is 1 (i.e. Z|0> = +|0>);
* pair angles are indexed by ordered pairs (j, k) with j < k, in
  lexicographic order.

The statevector path (:func:`circuit_state`, :func:`z_expectations`)
simulates the circuit noiselessly on dense complex128 amplitudes, and
:func:`oracle_apply` builds the full unitary as a dense matrix; both are the
references the embedding is tested against. The embedding itself needs no
amplitudes. Because H.H = I the L layers collapse to H . D_L...D_1 . H, a
single diagonal whose angles Theta are the per-layer angles summed, and for
that circuit each single-qubit marginal has the exact closed form

    <Z_j> = cos(2 Theta_j) * prod_{k != j} cos(2 Theta_jk),

evaluated by :func:`iqp_expectations` in O(n^2) per angle set, for a whole
batch of angle sets at once. Expectation values are always exact, never
sampled. All operations are pure functions of their inputs.

One consequence: when one angle set theta is replicated over the L
layers, as the encoding pipeline does, Theta = L * theta, so the layer
count only scales every angle, singles and pairs alike, by L. An L-layer
embedding is the one-layer embedding of L times the angles. The repeated
H . U_phi feature map of Havlicek et al. (Nature 567, 209 (2019)) has no
H . H pair between its layers and does not collapse this way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-12
ORACLE_MAX_QUBITS = 10


def n_pair_angles(n_qubits: int) -> int:
    """Number of ordered-pair angles for an n-qubit diagonal layer."""
    return n_qubits * (n_qubits - 1) // 2


@lru_cache(maxsize=32)
def _z_eigenvalues(n_qubits: int) -> np.ndarray:
    """(2^n, n) matrix of Pauli-Z eigenvalues z_j(b) for every basis state."""
    basis = np.arange(2**n_qubits)
    bits = (basis[:, None] >> np.arange(n_qubits)[None, :]) & 1
    z = 1.0 - 2.0 * bits
    z.setflags(write=False)
    return z


@lru_cache(maxsize=32)
def _pair_index(n_qubits: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n_qubits), 2))


@lru_cache(maxsize=32)
def _zz_eigenvalues(n_qubits: int) -> np.ndarray:
    """(2^n, n_pairs) matrix of products z_j(b) * z_k(b), pairs in (j<k) order."""
    z = _z_eigenvalues(n_qubits)
    pairs = _pair_index(n_qubits)
    if not pairs:
        zz = np.zeros((2**n_qubits, 0))
    else:
        js = np.array([j for j, _ in pairs])
        ks = np.array([k for _, k in pairs])
        zz = z[:, js] * z[:, ks]
    zz.setflags(write=False)
    return zz


@dataclass(frozen=True)
class StateVector:
    """Dense n-qubit state: 2^n complex amplitudes in little-endian order."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, "
                f"expected ({2**self.n_qubits},) for {self.n_qubits} qubits"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    @staticmethod
    def zero_state(n_qubits: int) -> "StateVector":
        """|0...0> on n qubits."""
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return StateVector(n_qubits, amps)


@dataclass(frozen=True)
class IqpParams:
    """Per-layer angle sets driving the diagonal unitaries.

    ``singles`` has shape (n_layers, n_qubits) and ``pairs`` has shape
    (n_layers, n_qubits*(n_qubits-1)/2), pair slots ordered (j, k), j < k.
    """

    n_qubits: int
    n_layers: int
    singles: np.ndarray
    pairs: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        singles = np.asarray(self.singles, dtype=np.float64)
        pairs = np.asarray(self.pairs, dtype=np.float64)
        if singles.shape != (self.n_layers, self.n_qubits):
            raise ValueError(
                f"singles has shape {singles.shape}, expected "
                f"({self.n_layers}, {self.n_qubits})"
            )
        expected_pairs = (self.n_layers, n_pair_angles(self.n_qubits))
        if pairs.shape != expected_pairs:
            raise ValueError(f"pairs has shape {pairs.shape}, expected {expected_pairs}")
        if not np.all(np.isfinite(singles)) or not np.all(np.isfinite(pairs)):
            raise ValueError("angles must all be finite")
        singles = singles.copy()
        pairs = pairs.copy()
        singles.setflags(write=False)
        pairs.setflags(write=False)
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "pairs", pairs)

    @staticmethod
    def replicated(singles: np.ndarray, pairs: np.ndarray, n_layers: int) -> "IqpParams":
        """Replicate one angle set across all layers."""
        singles = np.asarray(singles, dtype=np.float64)
        pairs = np.asarray(pairs, dtype=np.float64)
        n_qubits = singles.shape[-1]
        return IqpParams(
            n_qubits=n_qubits,
            n_layers=n_layers,
            singles=np.tile(singles, (n_layers, 1)),
            pairs=np.tile(pairs, (n_layers, 1)),
        )


@dataclass(frozen=True)
class ZExpectations:
    """Per-qubit Pauli-Z expectation values, each in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if np.any(np.abs(values) > 1.0 + NORM_TOL):
            raise ValueError(f"Z expectations outside [-1, 1]: {values!r}")
        values = np.clip(values, -1.0, 1.0)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def apply_hadamard_layer(state: StateVector) -> StateVector:
    """Apply H on every qubit via the normalized Walsh-Hadamard transform."""
    return StateVector(state.n_qubits, _hadamard_all(state.amplitudes))


def _hadamard_all(amps: np.ndarray) -> np.ndarray:
    a = np.array(amps, dtype=np.complex128)
    dim = a.size
    h = 1
    while h < dim:
        a = a.reshape(-1, 2, h)
        even = a[:, 0, :].copy()
        odd = a[:, 1, :]
        a[:, 0, :] = even + odd
        a[:, 1, :] = even - odd
        a = a.reshape(dim)
        h *= 2
    a /= np.sqrt(dim)
    return a


def apply_diagonal_phase(
    state: StateVector, singles: np.ndarray, pairs: np.ndarray
) -> StateVector:
    """Multiply each basis amplitude by exp(i [sum theta_j z_j + sum theta_jk z_j z_k]).

    Raises ValueError if the angle arrays do not match ``state.n_qubits``.
    """
    n = state.n_qubits
    singles = np.asarray(singles, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.float64)
    if singles.shape != (n,):
        raise ValueError(f"singles has shape {singles.shape}, expected ({n},)")
    if pairs.shape != (n_pair_angles(n),):
        raise ValueError(f"pairs has shape {pairs.shape}, expected ({n_pair_angles(n)},)")
    return StateVector(n, state.amplitudes * _diagonal_phases(n, singles, pairs))


def _diagonal_phases(n: int, singles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    exponent = _z_eigenvalues(n) @ singles
    if pairs.size:
        exponent = exponent + _zz_eigenvalues(n) @ pairs
    return np.exp(1j * exponent)


def circuit_state(params: IqpParams) -> StateVector:
    """Run the full L-layer circuit on |0...0> with the fast simulator."""
    amps = np.zeros(2**params.n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    for layer in range(params.n_layers):
        amps = _hadamard_all(amps)
        amps = amps * _diagonal_phases(
            params.n_qubits, params.singles[layer], params.pairs[layer]
        )
        amps = _hadamard_all(amps)
    return StateVector(params.n_qubits, amps)


def z_expectations(state: StateVector) -> ZExpectations:
    """<Z_i> for every qubit, computed exactly as sum_b z_i(b) |amp_b|^2."""
    probs = np.abs(state.amplitudes) ** 2
    return ZExpectations(probs @ _z_eigenvalues(state.n_qubits))


def iqp_expectations(singles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """<Z_j> of the single-layer circuit H . U_diag . H |0...0> for a batch of angle sets.

    ``singles`` has shape (B, n) and ``pairs`` shape (B, n*(n-1)/2), pair
    slots ordered (j, k), j < k; the result has shape (B, n). Uses the closed
    form <Z_j> = cos(2 theta_j) * prod_{k != j} cos(2 theta_jk). Every entry
    is computed by the same elementwise operations in the same order, so a
    row's result does not depend on the batch it is computed in.
    """
    singles = np.asarray(singles, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.float64)
    if singles.ndim != 2:
        raise ValueError(f"singles has shape {singles.shape}, expected (batch, n_qubits)")
    batch, n = singles.shape
    if pairs.shape != (batch, n_pair_angles(n)):
        raise ValueError(
            f"pairs has shape {pairs.shape}, expected ({batch}, {n_pair_angles(n)})"
        )
    out = np.cos(2.0 * singles)
    cos_pairs = np.cos(2.0 * pairs)
    for slot, (j, k) in enumerate(_pair_index(n)):
        out[:, j] *= cos_pairs[:, slot]
        out[:, k] *= cos_pairs[:, slot]
    return out


def iqp_embed(params: IqpParams) -> ZExpectations:
    """Embed an angle set: all Pauli-Z expectations of the L-layer circuit.

    The layers collapse into one diagonal with the per-layer angles summed,
    which :func:`iqp_expectations` evaluates in closed form.
    """
    values = iqp_expectations(params.singles.sum(axis=0)[None], params.pairs.sum(axis=0)[None])
    return ZExpectations(values[0])


def oracle_apply(params: IqpParams) -> StateVector:
    """Dense-matrix reference for :func:`circuit_state`.

    Builds the full 2^n x 2^n unitary from Kronecker-product Hadamards and
    explicitly assembled diagonals, then applies it to |0...0>. Quadratically
    slower than the fast path; intended only for verifying the simulator.
    Refuses n_qubits > 10 as a memory guard.
    """
    n = params.n_qubits
    if n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle_apply supports at most {ORACLE_MAX_QUBITS} qubits, got {n}")
    dim = 2**n

    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    h_all = h1
    for _ in range(n - 1):
        h_all = np.kron(h_all, h1)

    # Diagonals of kron-built Z_j operators (little-endian: identity blocks
    # of size 2^j to the right of Z).
    z1 = np.array([1.0, -1.0])
    z_diag = np.empty((n, dim))
    for j in range(n):
        d = np.kron(np.ones(2 ** (n - 1 - j)), np.kron(z1, np.ones(2**j)))
        z_diag[j] = d

    unitary = np.eye(dim, dtype=np.complex128)
    for layer in range(params.n_layers):
        exponent = np.zeros(dim)
        for j in range(n):
            exponent += params.singles[layer, j] * z_diag[j]
        for slot, (j, k) in enumerate(_pair_index(n)):
            exponent += params.pairs[layer, slot] * z_diag[j] * z_diag[k]
        diag = np.diag(np.exp(1j * exponent))
        unitary = h_all @ diag @ h_all @ unitary

    initial = np.zeros(dim, dtype=np.complex128)
    initial[0] = 1.0
    return StateVector(n, unitary @ initial)
