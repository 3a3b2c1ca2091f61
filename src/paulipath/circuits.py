"""Circuits as layered gate rounds with interleaved per-qubit noise.

Gates are either Pauli rotations (angle possibly left open as an
ensemble placeholder), named Clifford gates, or an explicit
uniform-random single-qubit Clifford placeholder.  Every gate's Pauli
transfer matrix (PTM) is built by one function, ``unitary_ptm``, as a
channel's is by its ``forward_ptm``; a Clifford's is that matrix rounded
to a signed Pauli permutation.  Builders produce the lattice ansatz used
throughout: RX/RZ single-qubit rounds plus two-qubit entangling rotation
rounds, and a symmetric-splitting transverse-field Ising step sequence,
on the one lattice type ``Square``; a chain is a one-row square
(``Chain``).  The config form of a circuit or lattice is read by ``cli``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .channels import _PAULI_MATS, NormalFormChannel
from .pauli import PauliString, _is_int

_NAMED_UNITARIES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": _PAULI_MATS[1],
    "Y": _PAULI_MATS[2],
    "Z": _PAULI_MATS[3],
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
_NAMED_UNITARIES["CX"] = _NAMED_UNITARIES["CNOT"]


class NotCliffordError(ValueError):
    """The named unitary does not permute the Pauli group."""


def _pauli_kron(codes: Sequence[int]) -> np.ndarray:
    """Tensor Pauli for the site codes ``codes``; the first site is the first factor."""
    return functools.reduce(np.kron, (_PAULI_MATS[c] for c in codes))


def unitary_ptm(u: np.ndarray) -> np.ndarray:
    """Forward PTM of conjugation by a k-qubit unitary u: ``Re Tr(P_q U^dag P_p U) / 2^k``.

    Row p is the adjoint image of P_p, as in a channel's ``forward_ptm``;
    rows and columns are joint site codes with the first site in the high bits.
    """
    k = len(u).bit_length() - 1
    basis = _pauli_basis(k)
    return np.einsum("qab,pba->pq", basis, u.conj().T @ basis @ u).real / 2**k


@functools.cache
def _pauli_basis(k: int) -> np.ndarray:
    """The 4^k tensor Paulis on k sites, in joint site-code order (read-only)."""
    basis = np.array([_pauli_kron(codes) for codes in itertools.product(range(4), repeat=k)])
    basis.setflags(write=False)
    return basis


@functools.cache
def clifford_forward_ptm(name: str) -> np.ndarray:
    """Read-only forward PTM of a named gate or of an H/S word ``clifford_group_1q`` names.

    ``w[p, q] = sign`` when U^dag P_p U = sign * P_q.
    """
    if name in _NAMED_UNITARIES:
        u = _NAMED_UNITARIES[name]
    elif name in clifford_group_1q():
        u = functools.reduce(np.matmul, (_NAMED_UNITARIES[g] for g in name))
    else:
        raise NotCliffordError(f"unknown Clifford gate {name!r}")
    return _signed_permutation(u)


def _signed_permutation(u: np.ndarray) -> np.ndarray:
    """``unitary_ptm(u)`` rounded to a read-only signed permutation, else ``NotCliffordError``."""
    w = unitary_ptm(u)
    rounded = np.rint(w) + 0.0  # + 0.0 turns -0.0 into 0.0
    if np.abs(w - rounded).max() > 1e-9 or (np.abs(rounded).sum(axis=1) != 1).any():
        raise NotCliffordError("conjugation does not map every Pauli to a signed Pauli")
    rounded.setflags(write=False)
    return rounded


@functools.cache
def clifford_group_1q() -> list[str]:
    """Names of the 24 single-qubit Cliffords, generated as words over H and S."""
    seen = {_signed_permutation(_NAMED_UNITARIES["I"]).tobytes(): "I"}
    frontier = [("I", _NAMED_UNITARIES["I"])]
    while frontier:
        new_frontier = []
        for word, u in frontier:
            for g in "HS":
                w2 = g if word == "I" else word + g
                u2 = u @ _NAMED_UNITARIES[g]
                key = _signed_permutation(u2).tobytes()
                if key not in seen:
                    seen[key] = w2
                    new_frontier.append((w2, u2))
        frontier = new_frontier
    assert len(seen) == 24
    return sorted(seen.values(), key=lambda w: (len(w), w))


@dataclass(frozen=True)
class PauliRotation:
    """exp(-i*angle/2 * G) for a Pauli generator G on ``support``.

    The generator is given on its own qubits (length == len(support)) and
    must be non-identity on every listed site.  ``angle=None`` marks an
    ensemble placeholder drawn uniformly from [0, 2*pi) at sampling time.

    Heisenberg action on P: P itself if [P, G] = 0, otherwise
    cos(angle)*P + sin(angle)*(i G P folded to a signed Pauli).
    """

    generator: PauliString
    support: tuple[int, ...]
    angle: float | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(self.support))
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"'support' {list(self.support)} has repeated qubits")
        if not self.generator.n == self.generator.weight == len(self.support):
            raise ValueError(
                f"'generator' {self.generator.label()!r} must be X, Y or Z on each of the "
                f"'support' qubits {list(self.support)}"
            )
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"'angle' must be finite or None, not {self.angle!r}")

    def embedded_masks(self) -> tuple[int, int]:
        gx = gz = 0
        for i, q in enumerate(self.support):
            gx |= ((self.generator.x >> i) & 1) << q
            gz |= ((self.generator.z >> i) & 1) << q
        return gx, gz


@dataclass(frozen=True)
class CliffordGate:
    """A named Clifford on 1 or 2 qubits, applied as a signed Pauli permutation."""

    name: str
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(self.support))
        arity = 1 if len(clifford_forward_ptm(self.name)) == 4 else 2  # validates the name
        if len(self.support) != arity:
            raise ValueError(
                f"'name' {self.name!r} acts on {arity} qubit(s), not 'support' {list(self.support)}"
            )
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"'support' {list(self.support)} has repeated qubits")


@dataclass(frozen=True)
class RandomSingleQubitClifford:
    """Placeholder: a uniformly random single-qubit Clifford, drawn at sampling time."""

    qubit: int

    @property
    def support(self) -> tuple[int, ...]:
        return (self.qubit,)


Gate = Union[PauliRotation, CliffordGate, RandomSingleQubitClifford]


@dataclass(frozen=True)
class Layer:
    """One round of gates with pairwise-disjoint supports, optionally noised.

    ``noise`` is either None (no noise round after this layer) or a
    per-qubit tuple of channels; None entries leave that qubit unnoised.
    """

    gates: tuple[Gate, ...]
    noise: tuple[NormalFormChannel | None, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        seen: set[int] = set()
        for g in self.gates:
            for q in g.support:
                if q in seen:
                    raise ValueError(f"'support' {list(g.support)} reuses qubit {q} of the layer")
                seen.add(q)
        if self.noise is not None:
            object.__setattr__(self, "noise", tuple(self.noise))

    @property
    def has_noise(self) -> bool:
        return self.noise is not None


@dataclass(frozen=True)
class Circuit:
    """Ordered layers acting on n qubits, with an optional final 1-qubit layer.

    The final layer carries no noise; any noise following the last gate
    round belongs to the last regular layer.
    """

    n: int
    layers: tuple[Layer, ...]
    final_layer: Layer | None = None

    def __post_init__(self) -> None:
        if not (_is_int(self.n) and self.n >= 1):
            raise ValueError(f"'n' must be an integer of at least 1, not {self.n!r}")
        object.__setattr__(self, "layers", tuple(self.layers))
        for layer in self.layers:
            self._check_layer(layer)
        if self.final_layer is not None:
            self._check_layer(self.final_layer)
            if self.final_layer.noise is not None:
                raise ValueError("final single-qubit layer cannot carry noise")
            for g in self.final_layer.gates:
                if len(g.support) != 1:
                    raise ValueError("final layer admits single-qubit gates only")

    def _check_layer(self, layer: Layer) -> None:
        for g in layer.gates:
            for q in g.support:
                if not 0 <= q < self.n:
                    raise ValueError(
                        f"'support' {list(g.support)} names qubit {q} outside 0..{self.n - 1}"
                    )
        if layer.noise is not None and len(layer.noise) != self.n:
            raise ValueError(f"'noise' has {len(layer.noise)} entries for n = {self.n} qubits")

    def is_template(self) -> bool:
        for layer in (*self.layers, *([self.final_layer] if self.final_layer else [])):
            for g in layer.gates:
                if isinstance(g, RandomSingleQubitClifford):
                    return True
                if isinstance(g, PauliRotation) and g.angle is None:
                    return True
        return False


# --- lattices -------------------------------------------------------------------


@dataclass(frozen=True)
class Square:
    """A rows x cols grid of sites numbered row-major; periodic wraps both axes."""

    rows: int
    cols: int
    periodic: bool = False

    def __post_init__(self) -> None:
        if not all(_is_int(v) and v >= 1 for v in (self.rows, self.cols)):
            raise ValueError(
                f"'rows' and 'cols' must be integers of at least 1, "
                f"not {self.rows!r} and {self.cols!r}"
            )

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols

    def _site(self, r: int, c: int) -> int:
        return (r % self.rows) * self.cols + (c % self.cols)

    def edges(self) -> list[tuple[int, int]]:
        seen = set()
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                neighbors = []
                if c + 1 < self.cols or self.periodic:
                    neighbors.append(self._site(r, c + 1))
                if r + 1 < self.rows or self.periodic:
                    neighbors.append(self._site(r + 1, c))
                for other in neighbors:
                    a, b = self._site(r, c), other
                    if a == b:
                        continue
                    key = (min(a, b), max(a, b))
                    if key not in seen:
                        seen.add(key)
                        out.append(key)
        return out

    def center(self) -> int:
        return (self.rows // 2) * self.cols + self.cols // 2


def Chain(n: int, periodic: bool = False) -> Square:
    """n sites in a line (a ring when periodic): the one-row square lattice."""
    return Square(1, n, periodic)


def edge_coloring(edges: Sequence[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Greedy partition of edges into rounds with pairwise-disjoint endpoints."""
    rounds: list[list[tuple[int, int]]] = []
    used: list[set[int]] = []
    for a, b in edges:
        for i, busy in enumerate(used):
            if a not in busy and b not in busy:
                rounds[i].append((a, b))
                busy.update((a, b))
                break
        else:
            rounds.append([(a, b)])
            used.append({a, b})
    return rounds


# --- builders -------------------------------------------------------------------


def _rot(label: str, support: tuple[int, ...], angle: float | None) -> PauliRotation:
    return PauliRotation(PauliString.from_label(label), support, angle)


def _edge_rounds(sublayers, label: str, angle: float | None, noise: tuple | None) -> list[Layer]:
    """``label`` rotations on every edge, one layer per sublayer, ``noise`` after the last only."""
    last = len(sublayers) - 1
    return [
        Layer(tuple(_rot(label, e, angle) for e in sub), noise if i == last else None)
        for i, sub in enumerate(sublayers)
    ]


def build_hva(
    lattice: Square,
    noise: NormalFormChannel | None,
    blocks: int,
    angle: float | None = None,
    noise_placement: str = "per_round",
) -> Circuit:
    """RX round, RZ round, then ZZ rotations on every lattice edge, repeated.

    Every rotation gets ``angle``; None leaves each one a placeholder
    drawn uniformly from [0, 2*pi) at sampling time.  Edge rounds are
    split into disjoint-support sublayers.  With
    ``noise_placement="per_round"`` noise follows each logical round (RX
    round, RZ round, completed edge round); with ``"per_block"`` it is
    applied once per repetition block, after the edge round, so the
    gates between consecutive noise rounds include an orthogonal
    rotation pair on every qubit.
    """
    if not (_is_int(blocks) and blocks >= 0):
        raise ValueError(f"'blocks' must be a nonnegative integer, not {blocks!r}")
    if noise_placement not in ("per_round", "per_block"):
        raise ValueError(f"'noise_placement' {noise_placement!r} is not per_round or per_block")
    per_round = noise_placement == "per_round"
    n = lattice.n_sites
    ch = None if noise is None else (noise,) * n
    sublayers = edge_coloring(lattice.edges())
    layers: list[Layer] = []
    for _ in range(blocks):
        layers.append(Layer(tuple(_rot("X", (q,), angle) for q in range(n)), ch if per_round else None))
        layers.append(Layer(tuple(_rot("Z", (q,), angle) for q in range(n)), ch if per_round else None))
        layers += _edge_rounds(sublayers, "ZZ", angle, ch)
    return Circuit(n, tuple(layers))


def build_trotter_tfim(
    lattice: Square,
    j_coupling: float,
    h_field: float,
    dt: float,
    steps: int,
    noise: NormalFormChannel | None,
    noise_placement: str = "per_layer",
) -> Circuit:
    """Symmetric second-order splitting of H' = J sum XX + h sum Z.

    Each step applies RZ(h*dt) on all qubits, RXX(2*J*dt) on all edges
    and RZ(h*dt) again; under the exp(-i*angle/2*G) convention these are
    the half-step Z evolution, full-step XX evolution and half-step Z
    evolution.  ``noise_placement`` is "per_layer" (after each of the
    three rounds) or "per_step" (once per step, after the closing round).
    """
    if not (_is_int(steps) and steps >= 0):
        raise ValueError(f"'steps' must be a nonnegative integer, not {steps!r}")
    if noise_placement not in ("per_layer", "per_step"):
        raise ValueError(f"'noise_placement' {noise_placement!r} is not per_layer or per_step")
    n = lattice.n_sites
    ch = None if noise is None else (noise,) * n
    per_layer = noise_placement == "per_layer"
    sublayers = edge_coloring(lattice.edges())
    half = h_field * dt
    full = 2.0 * j_coupling * dt
    layers: list[Layer] = []
    for _ in range(steps):
        layers.append(
            Layer(tuple(_rot("Z", (q,), half) for q in range(n)), ch if per_layer else None)
        )
        layers += _edge_rounds(sublayers, "XX", full, ch if per_layer else None)
        layers.append(Layer(tuple(_rot("Z", (q,), half) for q in range(n)), ch))
    return Circuit(n, tuple(layers))


def sample_circuit(template: Circuit, seed: int) -> Circuit:
    """Replace every ensemble placeholder by an independent draw; reproducible.

    ``seed`` is a nonnegative integer, else ``ValueError``.
    """
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, not {seed!r}")
    rng = np.random.default_rng(seed)
    names = clifford_group_1q()

    def concretize(layer: Layer) -> Layer:
        gates = []
        for g in layer.gates:
            if isinstance(g, PauliRotation) and g.angle is None:
                gates.append(
                    PauliRotation(g.generator, g.support, float(rng.uniform(0.0, 2 * math.pi)))
                )
            elif isinstance(g, RandomSingleQubitClifford):
                gates.append(CliffordGate(names[int(rng.integers(len(names)))], g.support))
            else:
                gates.append(g)
        return Layer(tuple(gates), layer.noise)

    layers = tuple(concretize(layer) for layer in template.layers)
    final = concretize(template.final_layer) if template.final_layer else None
    return Circuit(template.n, layers, final)

