"""Exact reference simulation on a dense 4^n Pauli-coefficient vector.

States and observables are real vectors indexed by base-4 Pauli codes
(axis q = qubit q, index order I, X, Y, Z).  Every primitive in scope
acts through a real transfer matrix: a channel's ``forward_ptm``, and a
gate's from ``circuits.unitary_ptm``, which conjugates Pauli matrices by
the gate's unitary.  So the state is never a complex matrix, and no
rotation sign rule is shared with the engine's mask kernels.  Sizes are
capped so validation suites stay interactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuits import Circuit, PauliRotation, _pauli_kron, clifford_forward_ptm, unitary_ptm
from .pauli import PauliSum, ProductState, QubitCountMismatch

MAX_STATE_QUBITS = 12


class InfeasibleSizeError(ValueError):
    """The requested dense simulation exceeds the supported qubit count."""


@dataclass(frozen=True, eq=False)
class DensePauliVector:
    """Coefficients c with rho = sum_P c_P P / 2^n; c at the identity index is 1."""

    n: int
    coeffs: np.ndarray

    @classmethod
    def from_product_state(cls, state: ProductState) -> "DensePauliVector":
        vectors = [np.array([1.0, *r]) for r in state.bloch]
        coeffs = reduce(np.multiply.outer, vectors)
        return cls(state.n, coeffs)

    def expectation(self, observable: PauliSum) -> float:
        if observable.n != self.n:
            raise QubitCountMismatch("observable and state qubit counts differ")
        total = 0.0
        for p, c in observable.items():
            total += c * float(self.coeffs[tuple(p.code(q) for q in range(self.n))])
        return total


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    k = len(axes)
    m = mat.reshape((4,) * (2 * k))
    out = np.tensordot(m, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def _noise_ptms(noise, n: int) -> list[tuple[int, np.ndarray]]:
    out = []
    for q in range(n):
        ch = noise[q]
        if ch is None or ch.is_identity:
            continue
        out.append((q, ch.forward_ptm()))
    return out


def _gate_forward(tensor: np.ndarray, gate) -> np.ndarray:
    """A sampled circuit's gate: a Pauli rotation with its angle, or a fixed Clifford."""
    if isinstance(gate, PauliRotation):
        g = _pauli_kron(gate.generator.codes())
        u = math.cos(gate.angle / 2) * np.eye(len(g)) - 1j * math.sin(gate.angle / 2) * g
        return _apply_matrix(tensor, unitary_ptm(u), gate.support)
    return _apply_matrix(tensor, clifford_forward_ptm(gate.name), gate.support)


def evolve_state(circuit: Circuit, state: ProductState) -> DensePauliVector:
    """Apply the full noisy circuit to a product state, exactly; a template raises."""
    if circuit.n > MAX_STATE_QUBITS:
        raise InfeasibleSizeError(
            f"dense state evolution supports at most {MAX_STATE_QUBITS} qubits"
        )
    if circuit.n != state.n:
        raise QubitCountMismatch("circuit and state qubit counts differ")
    if circuit.is_template():
        raise ValueError("circuit has unresolved ensemble placeholders")
    tensor = DensePauliVector.from_product_state(state).coeffs
    for layer in circuit.layers:
        for gate in layer.gates:
            tensor = _gate_forward(tensor, gate)
        if layer.noise is not None:
            for q, ptm in _noise_ptms(layer.noise, circuit.n):
                tensor = _apply_matrix(tensor, ptm, (q,))
    if circuit.final_layer is not None:
        for gate in circuit.final_layer.gates:
            tensor = _gate_forward(tensor, gate)
    return DensePauliVector(circuit.n, tensor)


def simulate_exact(circuit: Circuit, state: ProductState, observable: PauliSum) -> float:
    """Ground-truth Tr[O C(rho)] with no truncation."""
    return evolve_state(circuit, state).expectation(observable)
