"""Circuits as layered gate rounds with interleaved per-qubit noise.

Gates are either Pauli rotations (angle possibly left open as an
ensemble placeholder), named Clifford gates compiled to signed Pauli
permutations, or an explicit uniform-random single-qubit Clifford
placeholder.  Builders produce the lattice ansatz used throughout:
RX/RZ single-qubit rounds plus two-qubit entangling rotation rounds,
and a symmetric-splitting transverse-field Ising step sequence, on the
one lattice type ``Square``; a chain is a one-row square (``Chain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .channels import _PAULI_MATS, NormalFormChannel, channel_from_json
from .pauli import PauliString, config_float, config_int

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


def _pauli_kron(idx: int, k: int) -> np.ndarray:
    """Tensor Pauli for joint code ``idx`` on k sites; site 0 is the first factor."""
    mats = []
    for pos in reversed(range(k)):
        mats.append(_PAULI_MATS[(idx >> (2 * pos)) & 3])
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


def clifford_adjoint_table(name: str) -> tuple[tuple[int, int], ...]:
    if name not in _ADJ_TABLES:
        if name not in _NAMED_UNITARIES:
            raise NotCliffordError(f"unknown Clifford gate {name!r}")
        u = _NAMED_UNITARIES[name]
        k = 1 if u.shape == (2, 2) else 2
        _ADJ_TABLES[name] = _signed_perm_table(u, k)
    return _ADJ_TABLES[name]


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
                    _NAMED_UNITARIES[w2], _ADJ_TABLES[w2] = u2, key
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
class Square:
    """A rows x cols grid of sites numbered row-major; periodic wraps both axes."""

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


def _rot(label: str, support: tuple[int, ...], angle: float | None) -> PauliRotation:
    return PauliRotation(PauliString.from_label(label), support, angle)


def build_hva(
    lattice: Square,
    noise: NoiseSpec,
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
    if noise_placement not in ("per_round", "per_block"):
        raise ValueError("noise_placement must be 'per_round' or 'per_block'")
    per_round = noise_placement == "per_round"
    n = lattice.n_sites
    ch = _noise_tuple(noise, n)
    sublayers = edge_coloring(lattice.edges())
    layers: list[Layer] = []
    for _ in range(blocks):
        layers.append(Layer(tuple(_rot("X", (q,), angle) for q in range(n)), ch if per_round else None))
        layers.append(Layer(tuple(_rot("Z", (q,), angle) for q in range(n)), ch if per_round else None))
        for i, sub in enumerate(sublayers):
            last = i == len(sublayers) - 1
            layers.append(
                Layer(tuple(_rot("ZZ", e, angle) for e in sub), ch if last else None)
            )
    return Circuit(n, tuple(layers))


def build_trotter_tfim(
    lattice: Square,
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
            Layer(tuple(_rot("Z", (q,), half) for q in range(n)), ch if per_layer else None)
        )
        for i, sub in enumerate(sublayers):
            last = i == len(sublayers) - 1
            layers.append(
                Layer(
                    tuple(_rot("XX", e, full) for e in sub),
                    ch if (per_layer and last) else None,
                )
            )
        layers.append(Layer(tuple(_rot("Z", (q,), half) for q in range(n)), ch))
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


def _objects(values, key: str) -> list:
    """A JSON list of objects, else ``ValueError`` naming ``key``."""
    if not isinstance(values, list) or not all(isinstance(v, dict) for v in values):
        raise ValueError(f"{key!r} must be a list of objects, not {values!r}")
    return values


def _support(obj: dict) -> tuple[int, ...]:
    """A gate's ``support`` as a tuple of integers, else ``ValueError`` naming the key."""
    support = obj["support"]
    if not isinstance(support, list):
        raise ValueError(f"'support' must be a list of integers, not {support!r}")
    return tuple(config_int(q, "'support' entry") for q in support)


def gate_from_json(obj: dict) -> Gate:
    kind = obj["type"]
    if kind == "rot":
        generator, angle = obj["generator"], obj["angle"]
        if not isinstance(generator, str):
            raise ValueError(f"'generator' must be a Pauli label string, not {generator!r}")
        return PauliRotation(
            PauliString.from_label(generator),
            _support(obj),
            None if angle == "uniform" else config_float(angle, "'angle'"),
        )
    if kind == "clifford":
        return CliffordGate(obj["name"], _support(obj))
    if kind == "random_clifford":
        return RandomSingleQubitClifford(_support(obj)[0])
    raise ValueError(f"unknown gate type {kind!r}")


def _noise_from_json(obj, n: int):
    if obj is None:
        return None
    if isinstance(obj, dict):
        return (channel_from_json(obj),) * n
    if not isinstance(obj, list) or not all(e is None or isinstance(e, dict) for e in obj):
        raise ValueError(f"'noise' must be a channel or a list of channels and nulls, not {obj!r}")
    return tuple(None if entry is None else channel_from_json(entry) for entry in obj)


def circuit_from_json(obj: dict) -> Circuit:
    n = config_int(obj["n"], "'n'")
    layers = tuple(
        Layer(
            tuple(gate_from_json(g) for g in _objects(spec.get("gates", []), "gates")),
            _noise_from_json(spec.get("noise"), n),
        )
        for spec in _objects(obj.get("layers", []), "layers")
    )
    final = None
    if obj.get("final_layer"):
        final = Layer(tuple(gate_from_json(g) for g in _objects(obj["final_layer"], "final_layer")))
    return Circuit(n, layers, final)


def lattice_from_json(obj: dict) -> Square:
    kind = obj.get("type")
    periodic = obj.get("periodic", False)
    if not isinstance(periodic, bool):
        raise ValueError(f"'periodic' must be true or false, not {periodic!r}")
    if kind == "chain":
        return Square(1, config_int(obj["n"], "'n'"), periodic)
    if kind == "square":
        rows, cols = (config_int(obj[key], repr(key)) for key in ("rows", "cols"))
        return Square(rows, cols, periodic)
    raise ValueError(f"unknown lattice type {kind!r}")
