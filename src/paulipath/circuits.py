"""Circuits as layered gate rounds with interleaved per-qubit noise.

Gates are either Pauli rotations (angle possibly left open as an
ensemble placeholder), named Clifford gates compiled to signed Pauli
permutations, or an explicit uniform-random single-qubit Clifford
placeholder.  Builders produce the lattice ansatz used throughout:
RX/RZ single-qubit rounds plus two-qubit entangling rotation rounds,
and a symmetric-splitting transverse-field Ising step sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .channels import NormalFormChannel, channel_from_json, channel_to_json
from .pauli import PauliString

_P1 = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_NAMED_UNITARIES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": _P1[1],
    "Y": _P1[2],
    "Z": _P1[3],
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


def _pauli_kron(idx: int, k: int) -> np.ndarray:
    """Tensor Pauli for joint code ``idx`` on k sites; site 0 is the first factor."""
    mats = []
    for pos in reversed(range(k)):
        mats.append(_P1[(idx >> (2 * pos)) & 3])
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _signed_perm_table(u: np.ndarray, k: int) -> tuple[tuple[int, int], ...]:
    """Adjoint conjugation table: entry p -> (q, sign) with U^dag P_p U = sign * P_q."""
    dim = 4**k
    table = []
    for p in range(dim):
        conj = u.conj().T @ _pauli_kron(p, k) @ u
        found = None
        for q in range(dim):
            s = np.trace(_pauli_kron(q, k).conj().T @ conj).real / (2**k)
            if abs(abs(s) - 1.0) < 1e-9:
                if not np.allclose(conj, s * _pauli_kron(q, k), atol=1e-9):
                    raise NotCliffordError("conjugation is not a signed Pauli")
                found = (q, int(round(s)))
                break
            if abs(s) > 1e-9:
                raise NotCliffordError("conjugation mixes Pauli operators")
        if found is None:
            raise NotCliffordError("conjugation lost the Pauli component")
        table.append(found)
    return tuple(table)


_ADJ_TABLES: dict[str, tuple[tuple[int, int], ...]] = {}


def _register_clifford(name: str, u: np.ndarray) -> None:
    k = 1 if u.shape == (2, 2) else 2
    _ADJ_TABLES[name] = _signed_perm_table(u, k)
    _NAMED_UNITARIES[name] = u


def clifford_adjoint_table(name: str) -> tuple[tuple[int, int], ...]:
    if name not in _ADJ_TABLES:
        if name not in _NAMED_UNITARIES:
            raise NotCliffordError(f"unknown Clifford gate {name!r}")
        u = _NAMED_UNITARIES[name]
        k = 1 if u.shape == (2, 2) else 2
        _ADJ_TABLES[name] = _signed_perm_table(u, k)
    return _ADJ_TABLES[name]


def clifford_forward_table(name: str) -> tuple[tuple[int, int], ...]:
    """Conjugation by U itself: U P U^dag, the inverse signed permutation."""
    adj = clifford_adjoint_table(name)
    fwd: list[tuple[int, int]] = [(0, 1)] * len(adj)
    for p, (q, s) in enumerate(adj):
        fwd[q] = (p, s)
    return tuple(fwd)


_GROUP_NAMES: list[str] | None = None


def clifford_group_1q() -> list[str]:
    """Names of the 24 single-qubit Cliffords, generated as words over H and S."""
    global _GROUP_NAMES
    if _GROUP_NAMES is not None:
        return _GROUP_NAMES
    seen: dict[tuple, str] = {}
    frontier = [("I", np.eye(2, dtype=complex))]
    seen[_signed_perm_table(np.eye(2, dtype=complex), 1)] = "I"
    while frontier:
        new_frontier = []
        for word, u in frontier:
            for g in "HS":
                w2 = g if word == "I" else word + g
                u2 = u @ _NAMED_UNITARIES[g]
                key = _signed_perm_table(u2, 1)
                if key not in seen:
                    seen[key] = w2
                    _register_clifford(w2, u2)
                    new_frontier.append((w2, u2))
        frontier = new_frontier
    assert len(seen) == 24
    _GROUP_NAMES = sorted(seen.values(), key=lambda w: (len(w), w))
    return _GROUP_NAMES


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
            raise ValueError("rotation support has repeated qubits")
        if self.generator.n != len(self.support):
            raise ValueError("generator length must match support size")
        if self.generator.weight != self.generator.n:
            raise ValueError("generator must be non-identity on every support site")

    def embedded_masks(self, n: int) -> tuple[int, int]:
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
        table = clifford_adjoint_table(self.name)  # validates the name
        arity = 1 if len(table) == 4 else 2
        if len(self.support) != arity:
            raise ValueError(f"{self.name} acts on {arity} qubit(s)")
        if len(set(self.support)) != len(self.support):
            raise ValueError("gate support has repeated qubits")


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
                    raise ValueError(f"qubit {q} appears in two gates of one layer")
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
                    raise ValueError(f"gate touches qubit {q} outside 0..{self.n - 1}")
        if layer.noise is not None and len(layer.noise) != self.n:
            raise ValueError("per-qubit noise tuple must have length n")

    @property
    def noisy_layer_count(self) -> int:
        return sum(1 for layer in self.layers if layer.has_noise)

    def is_template(self) -> bool:
        for layer in (*self.layers, *([self.final_layer] if self.final_layer else [])):
            for g in layer.gates:
                if isinstance(g, RandomSingleQubitClifford):
                    return True
                if isinstance(g, PauliRotation) and g.angle is None:
                    return True
        return False


def noisy_units(circuit: Circuit) -> tuple[list[list[Layer]], list[Layer]]:
    """Group layers into noise-terminated units plus a trailing noiseless run.

    Each unit is a maximal run of noiseless layers followed by one noisy
    layer; one unit corresponds to one damping round, which is where
    path weight is sampled during backpropagation.
    """
    units: list[list[Layer]] = []
    current: list[Layer] = []
    for layer in circuit.layers:
        current.append(layer)
        if layer.has_noise:
            units.append(current)
            current = []
    return units, current


def truncate_to_last_layers(circuit: Circuit, j: int) -> Circuit:
    """Keep the final single-qubit layer plus the last j+1 noise-terminated units."""
    units, trailing = noisy_units(circuit)
    depth = len(units)
    if j < 0 or j > depth:
        raise ValueError(f"truncation index {j} outside 0..{depth}")
    kept = units[max(depth - (j + 1), 0):]
    layers = [layer for unit in kept for layer in unit] + trailing
    return Circuit(circuit.n, tuple(layers), circuit.final_layer)


# --- lattices -------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    n: int
    periodic: bool = False

    @property
    def n_sites(self) -> int:
        return self.n

    def edges(self) -> list[tuple[int, int]]:
        seen = set()
        out = []
        pairs = [(i, i + 1) for i in range(self.n - 1)]
        if self.periodic and self.n > 1:
            pairs.append((self.n - 1, 0))
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def center(self) -> int:
        return self.n // 2


@dataclass(frozen=True)
class Square:
    rows: int
    cols: int
    periodic: bool = False

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


Lattice = Union[Chain, Square]


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


@dataclass(frozen=True)
class EnsembleSpec:
    """Angle/Clifford laws for randomized circuit families.

    ``angle_law=None`` leaves every rotation angle as a placeholder to be
    drawn uniformly from [0, 2*pi); a float pins all angles.
    """

    angle_law: float | None = None


NoiseSpec = Union[NormalFormChannel, Sequence, None]


def _noise_tuple(noise: NoiseSpec, n: int) -> tuple | None:
    if noise is None:
        return None
    if isinstance(noise, NormalFormChannel):
        return (noise,) * n
    noise = tuple(noise)
    if len(noise) != n:
        raise ValueError("per-qubit noise list must have length n")
    if all(ch is None for ch in noise):
        return None
    return noise


def _rot(axis: str, qubit: int, angle: float | None) -> PauliRotation:
    return PauliRotation(PauliString.from_label(axis), (qubit,), angle)


def _rot2(axes: str, pair: tuple[int, int], angle: float | None) -> PauliRotation:
    return PauliRotation(PauliString.from_label(axes), pair, angle)


def build_hva(
    lattice: Lattice,
    noise: NoiseSpec,
    blocks: int,
    angles: EnsembleSpec = EnsembleSpec(),
    noise_placement: str = "per_round",
) -> Circuit:
    """RX round, RZ round, then ZZ rotations on every lattice edge, repeated.

    Edge rounds are split into disjoint-support sublayers.  With
    ``noise_placement="per_round"`` noise follows each logical round (RX
    round, RZ round, completed edge round); with ``"per_block"`` it is
    applied once per repetition block, after the edge round, so the
    gates between consecutive noise rounds include an orthogonal
    rotation pair on every qubit.
    """
    if noise_placement not in ("per_round", "per_block"):
        raise ValueError("noise_placement must be 'per_round' or 'per_block'")
    per_round = noise_placement == "per_round"
    n = lattice.n_sites
    ch = _noise_tuple(noise, n)
    theta = angles.angle_law
    sublayers = edge_coloring(lattice.edges())
    layers: list[Layer] = []
    for _ in range(blocks):
        layers.append(Layer(tuple(_rot("X", q, theta) for q in range(n)), ch if per_round else None))
        layers.append(Layer(tuple(_rot("Z", q, theta) for q in range(n)), ch if per_round else None))
        for i, sub in enumerate(sublayers):
            last = i == len(sublayers) - 1
            layers.append(
                Layer(tuple(_rot2("ZZ", e, theta) for e in sub), ch if last else None)
            )
    return Circuit(n, tuple(layers))


def build_trotter_tfim(
    lattice: Lattice,
    j_coupling: float,
    h_field: float,
    dt: float,
    steps: int,
    noise: NoiseSpec,
    noise_placement: str = "per_layer",
) -> Circuit:
    """Symmetric second-order splitting of H' = J sum XX + h sum Z.

    Each step applies RZ(h*dt) on all qubits, RXX(2*J*dt) on all edges
    and RZ(h*dt) again; under the exp(-i*angle/2*G) convention these are
    the half-step Z evolution, full-step XX evolution and half-step Z
    evolution.  ``noise_placement`` is "per_layer" (after each of the
    three rounds) or "per_step" (once per step, after the closing round).
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if noise_placement not in ("per_layer", "per_step"):
        raise ValueError("noise_placement must be 'per_layer' or 'per_step'")
    n = lattice.n_sites
    ch = _noise_tuple(noise, n)
    per_layer = noise_placement == "per_layer"
    sublayers = edge_coloring(lattice.edges())
    half = h_field * dt
    full = 2.0 * j_coupling * dt
    layers: list[Layer] = []
    for _ in range(steps):
        layers.append(
            Layer(tuple(_rot("Z", q, half) for q in range(n)), ch if per_layer else None)
        )
        for i, sub in enumerate(sublayers):
            last = i == len(sublayers) - 1
            layers.append(
                Layer(
                    tuple(_rot2("XX", e, full) for e in sub),
                    ch if (per_layer and last) else None,
                )
            )
        layers.append(Layer(tuple(_rot("Z", q, half) for q in range(n)), ch))
    return Circuit(n, tuple(layers))


def sample_circuit(template: Circuit, seed: int) -> Circuit:
    """Replace every ensemble placeholder by an independent draw; reproducible."""
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


# --- JSON interface --------------------------------------------------------------


def gate_to_json(g: Gate) -> dict:
    if isinstance(g, PauliRotation):
        return {
            "type": "rot",
            "generator": g.generator.label(),
            "support": list(g.support),
            "angle": "uniform" if g.angle is None else g.angle,
        }
    if isinstance(g, CliffordGate):
        return {"type": "clifford", "name": g.name, "support": list(g.support)}
    return {"type": "random_clifford", "support": [g.qubit]}


def gate_from_json(obj: dict) -> Gate:
    kind = obj["type"]
    if kind == "rot":
        angle = obj["angle"]
        return PauliRotation(
            PauliString.from_label(obj["generator"]),
            tuple(obj["support"]),
            None if angle == "uniform" else float(angle),
        )
    if kind == "clifford":
        return CliffordGate(obj["name"], tuple(obj["support"]))
    if kind == "random_clifford":
        return RandomSingleQubitClifford(obj["support"][0])
    raise ValueError(f"unknown gate type {kind!r}")


def _noise_to_json(noise, n: int):
    if noise is None:
        return None
    first = noise[0]
    if all(ch is first for ch in noise) and first is not None:
        return channel_to_json(first)
    return [None if ch is None else channel_to_json(ch) for ch in noise]


def _noise_from_json(obj, n: int):
    if obj is None:
        return None
    if isinstance(obj, dict):
        return (channel_from_json(obj),) * n
    return tuple(None if entry is None else channel_from_json(entry) for entry in obj)


def circuit_to_json(c: Circuit) -> dict:
    out: dict = {
        "n": c.n,
        "layers": [
            {
                "gates": [gate_to_json(g) for g in layer.gates],
                "noise": _noise_to_json(layer.noise, c.n),
            }
            for layer in c.layers
        ],
    }
    if c.final_layer is not None:
        out["final_layer"] = [gate_to_json(g) for g in c.final_layer.gates]
    return out


def circuit_from_json(obj: dict) -> Circuit:
    n = int(obj["n"])
    layers = tuple(
        Layer(
            tuple(gate_from_json(g) for g in spec.get("gates", [])),
            _noise_from_json(spec.get("noise"), n),
        )
        for spec in obj.get("layers", [])
    )
    final = None
    if obj.get("final_layer"):
        final = Layer(tuple(gate_from_json(g) for g in obj["final_layer"]), None)
    return Circuit(n, layers, final)


def lattice_from_json(obj: dict) -> Lattice:
    kind = obj.get("type")
    if kind == "chain":
        return Chain(int(obj["n"]), bool(obj.get("periodic", False)))
    if kind == "square":
        return Square(int(obj["rows"]), int(obj["cols"]), bool(obj.get("periodic", False)))
    raise ValueError(f"unknown lattice type {kind!r}")


def lattice_to_json(lat: Lattice) -> dict:
    if isinstance(lat, Chain):
        return {"type": "chain", "n": lat.n, "periodic": lat.periodic}
    return {"type": "square", "rows": lat.rows, "cols": lat.cols, "periodic": lat.periodic}
