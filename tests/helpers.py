"""Shared generators: random noisy circuits built in two independent forms,
hypothesis strategies for small noisy circuits, and reference computations."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

import dense_ref
from paulipath import (
    Circuit,
    CliffordGate,
    PauliRotation,
    PauliString,
    PauliSum,
    ProductState,
    RandomSingleQubitClifford,
    TruncationConfig,
    backpropagate,
    build_trotter_tfim,
    expectation_product_state,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
)
from paulipath.channels import NormalFormChannel, SingleQubitPTM, rotation_ptm
from paulipath.circuits import Layer
from paulipath.experiments import center_z

ONE_QUBIT_CLIFFORDS = ["H", "S", "SDG", "X", "Y", "Z"]
TWO_QUBIT_CLIFFORDS = ["CNOT", "CZ", "SWAP"]
NOISE_KINDS = ["depolarizing", "dephasing", "amplitude_damping"]
_BUILDERS = {
    "depolarizing": make_depolarizing,
    "dephasing": make_dephasing,
    "amplitude_damping": make_amplitude_damping,
}


def random_noisy_circuit(rng: np.random.Generator, n_max: int = 4, depth_max: int = 6):
    """One random circuit as a Circuit plus an equivalent dense op list."""
    n = int(rng.integers(1, n_max + 1))
    depth = int(rng.integers(0, depth_max + 1))
    layers = []
    dense_ops = []
    for _ in range(depth):
        order = list(rng.permutation(n))
        gates = []
        while order:
            if len(order) >= 2 and rng.random() < 0.5:
                a, b = int(order.pop()), int(order.pop())
                if rng.random() < 0.5:
                    name = TWO_QUBIT_CLIFFORDS[rng.integers(3)]
                    gates.append(CliffordGate(name, (a, b)))
                    dense_ops.append(("u", dense_ref.GATE_UNITARIES[name], (a, b)))
                else:
                    gen = str(rng.choice(["XX", "ZZ", "XZ", "YY", "XY"]))
                    theta = float(rng.uniform(0, 2 * np.pi))
                    gates.append(PauliRotation(PauliString.from_label(gen), (a, b), theta))
                    dense_ops.append(("u", dense_ref.rotation_unitary(gen, theta), (a, b)))
            else:
                q = int(order.pop())
                if rng.random() < 0.5:
                    name = ONE_QUBIT_CLIFFORDS[rng.integers(6)]
                    gates.append(CliffordGate(name, (q,)))
                    dense_ops.append(("u", dense_ref.GATE_UNITARIES[name], (q,)))
                else:
                    gen = str(rng.choice(["X", "Y", "Z"]))
                    theta = float(rng.uniform(0, 2 * np.pi))
                    gates.append(PauliRotation(PauliString.from_label(gen), (q,), theta))
                    dense_ops.append(("u", dense_ref.rotation_unitary(gen, theta), (q,)))
        channels = []
        for q in range(n):
            kind = NOISE_KINDS[rng.integers(3)]
            param = float(rng.uniform(0.0, 0.5))
            channels.append(_BUILDERS[kind](param))
            dense_ops.append(("k", dense_ref.kraus_ops(kind, param), q))
        layers.append(Layer(tuple(gates), tuple(channels)))
    return Circuit(n, tuple(layers)), dense_ops, n


def random_observable(rng: np.random.Generator, n: int, terms: int = 3) -> PauliSum:
    pairs = []
    for _ in range(terms):
        pairs.append(
            (
                PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                float(rng.standard_normal()),
            )
        )
    obs = PauliSum(n, pairs)
    if not obs:
        obs = PauliSum(n, [(PauliString.single(n, 0, "Z"), 1.0)])
    return obs


def random_product_state(rng: np.random.Generator, n: int) -> ProductState:
    bloch = []
    for _ in range(n):
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * rng.random()
        bloch.append((float(v[0]), float(v[1]), float(v[2])))
    return ProductState.from_vectors(bloch)


def dense_expectation(dense_ops, n: int, state: ProductState, obs: PauliSum) -> float:
    rho = dense_ref.product_density(list(state.bloch))
    for kind, payload, where in dense_ops:
        if kind == "u":
            rho = dense_ref.apply_unitary(rho, payload, where, n)
        else:
            rho = dense_ref.apply_channel_site(rho, payload, where, n)
    terms = [(p.label(), c) for p, c in obs.items()]
    return dense_ref.expectation(rho, terms)


# --- hypothesis strategies ----------------------------------------------------------

ANGLES = st.one_of(
    st.floats(0.0, 2 * math.pi, allow_nan=False),
    st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]),
)
# the angles a Monte Carlo template admits: uniform placeholders (None) and
# multiples of pi/2
TEMPLATE_ANGLES = st.sampled_from([None, None, 0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


@st.composite
def gate_rounds(
    draw, n: int, two_qubit: bool = True, angles=ANGLES, random_cliffords: bool = False
) -> tuple:
    """Gates of one layer: a random split of the qubits into 1- and 2-qubit gates.

    With ``random_cliffords`` a single qubit may also get a uniformly
    random Clifford placeholder.
    """
    order = draw(st.permutations(range(n)))
    gates = []
    while order:
        if two_qubit and len(order) >= 2 and draw(st.booleans()):
            a, b = order.pop(), order.pop()
            if draw(st.booleans()):
                gates.append(CliffordGate(draw(st.sampled_from(TWO_QUBIT_CLIFFORDS)), (a, b)))
            else:
                gen = draw(st.sampled_from(["XX", "ZZ", "XZ", "YY", "XY"]))
                gates.append(PauliRotation(PauliString.from_label(gen), (a, b), draw(angles)))
        else:
            q = order.pop()
            if random_cliffords and draw(st.integers(0, 2)) == 0:
                gates.append(RandomSingleQubitClifford(q))
            elif draw(st.booleans()):
                gates.append(CliffordGate(draw(st.sampled_from(ONE_QUBIT_CLIFFORDS)), (q,)))
            else:
                gen = draw(st.sampled_from(["X", "Y", "Z"]))
                gates.append(PauliRotation(PauliString.from_label(gen), (q,), draw(angles)))
    return tuple(gates)


@st.composite
def channels(draw) -> NormalFormChannel:
    """A depolarizing, dephasing or damping channel, half the time between two rotations.

    The rotated form is a custom channel whose transfer matrix is dense,
    with off-diagonal entries in every row but the first.
    """
    ch = _BUILDERS[draw(st.sampled_from(NOISE_KINDS))](draw(st.floats(0.0, 0.5)))
    if draw(st.booleans()):
        return ch
    pre, post = (
        SingleQubitPTM(
            rotation_ptm(draw(st.sampled_from("XYZ")), draw(st.floats(0.0, 2 * math.pi))),
            unitary=True,
        )
        for _ in range(2)
    )
    return NormalFormChannel(ch.d, ch.t, pre, post)


@st.composite
def noise_rounds(draw, n: int):
    """None (a noiseless layer) or one random channel per qubit."""
    if draw(st.integers(0, 3)) == 0:
        return None
    return tuple(draw(channels()) for _ in range(n))


@st.composite
def noisy_circuits(draw, n: int, depth_max: int = 4, final_layer: bool = True) -> Circuit:
    layers = tuple(
        Layer(draw(gate_rounds(n)), draw(noise_rounds(n)))
        for _ in range(draw(st.integers(0, depth_max)))
    )
    final = None
    if final_layer and draw(st.booleans()):
        final = Layer(draw(gate_rounds(n, two_qubit=False)))
    return Circuit(n, layers, final)


@st.composite
def templates(draw, n: int, depth_max: int = 4) -> Circuit:
    """Monte Carlo ensemble templates: every step kind the path walk compiles.

    Uniform and pi/2-multiple rotations, fixed and uniformly random
    Cliffords, noise rounds (so weight boundaries) and a final layer.
    """
    kw = {"angles": TEMPLATE_ANGLES, "random_cliffords": True}
    layers = tuple(
        Layer(draw(gate_rounds(n, **kw)), draw(noise_rounds(n)))
        for _ in range(draw(st.integers(0, depth_max)))
    )
    final = Layer(draw(gate_rounds(n, two_qubit=False, **kw))) if draw(st.booleans()) else None
    return Circuit(n, layers, final)


@st.composite
def observables(draw, n: int) -> PauliSum:
    masks = st.integers(0, (1 << n) - 1)
    coeffs = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)
    pairs = draw(st.lists(st.tuples(masks, masks, coeffs), min_size=1, max_size=3))
    obs = PauliSum(n, [(PauliString(n, x, z), c) for x, z, c in pairs])
    return obs if obs else PauliSum(n, [(PauliString.single(n, 0, "Z"), 1.0)])


@st.composite
def truncations(draw, k_max: int = 8) -> TruncationConfig:
    return TruncationConfig(
        path_weight_cutoff=draw(st.one_of(st.none(), st.integers(1, k_max))),
        coeff_cutoff=draw(st.sampled_from([0.0, 1e-3, 5e-2])),
        xy_count_cutoff=draw(st.one_of(st.none(), st.integers(1, 3))),
        current_weight_cutoff=draw(st.one_of(st.none(), st.integers(2, 4))),
    )


@st.composite
def registers(draw) -> tuple[int, tuple[int, ...]]:
    """A qubit count n and the qubits a drawn circuit acts on.

    n is 1-4 (all qubits active), 29-32 or 60-130.  At 29-32 the merge
    packs (x, z, w) into one word only while 2n + bits(max w) <= 64, so
    the walk takes either sort; the drawn qubits come from both ends of
    the register.  A wide register always activates the pair straddling
    a 64-bit word boundary below n (63/64 or 127/128) and up to two more
    qubits from the ends of its words.
    """
    band = draw(st.sampled_from(("small", "packed", "wide")))
    if band == "small":
        n = draw(st.integers(1, 4))
        return n, tuple(range(n))
    if band == "packed":
        n = draw(st.integers(29, 32))
        sites = draw(st.lists(st.sampled_from((0, 1, n - 2, n - 1)), min_size=1, max_size=3))
        return n, tuple(sorted(set(sites)))
    n = draw(st.integers(60, 130))
    pool = sorted({q for q in (0, 1, 62, 63, 64, 65, 126, 127, 128, 129) if q < n} | {n - 1})
    sites = set(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)))
    edges = [b for b in (64, 128) if b < n]
    if edges:
        b = draw(st.sampled_from(edges))
        sites |= {b - 1, b}
    return n, tuple(sorted(sites))


@st.composite
def merge_inputs(draw) -> tuple[int, list, list]:
    """Unmerged frontier rows for ``_Frontier.merge``: n, keys (x, z, w) and coefficients.

    n is 1-4, 26-33 (on both sides of the single-word pack bound
    2n + bits(max w) <= 64, often exactly at it or one past it) or
    60-130.  The rows repeat 2-6 keys in random order, every one at least
    once; their masks favour the lowest, middle and top qubits,
    the largest weight has exactly the drawn bit count (up to 13), and
    some coefficients are followed by their exact negation.
    """
    n = draw(st.one_of(st.integers(1, 4), st.integers(26, 33), st.integers(60, 130)))
    wbits = st.integers(0, 13)
    if 26 <= n <= 32:
        wbits = st.one_of(st.sampled_from((64 - 2 * n, 65 - 2 * n)), wbits)
    wmax = (1 << draw(wbits)) - 1
    qubits = st.sampled_from(sorted({q for q in (0, 1, n >> 1, n - 1) if q < n}))
    masks = st.one_of(
        st.sets(qubits, max_size=3).map(lambda qs: sum(1 << q for q in qs)),
        st.integers(0, (1 << n) - 1),
    )
    pool = draw(
        st.lists(st.tuples(masks, masks, st.integers(0, wmax)), min_size=2, max_size=6, unique=True)
    )
    pool[0] = (*pool[0][:2], wmax)
    extra = draw(st.lists(st.sampled_from(pool), max_size=30))
    keys, values = [], []
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    for key in draw(st.permutations(pool + extra)):
        keys.append(key)
        values.append(draw(coeffs))
        if draw(st.booleans()):
            keys.append(key)
            values.append(-values[-1])
    return n, keys, values


def embed_circuit(circuit: Circuit, sites: tuple[int, ...], n: int) -> Circuit:
    """``circuit`` with its qubit i moved to ``sites[i]`` of an n-qubit register."""

    def gate(g):
        if isinstance(g, RandomSingleQubitClifford):
            return RandomSingleQubitClifford(sites[g.qubit])
        support = tuple(sites[q] for q in g.support)
        if isinstance(g, CliffordGate):
            return CliffordGate(g.name, support)
        return PauliRotation(g.generator, support, g.angle)

    def layer(lay: Layer | None) -> Layer | None:
        if lay is None:
            return None
        noise = None
        if lay.noise is not None:
            wide = [None] * n
            for q, ch in zip(sites, lay.noise):
                wide[q] = ch
            noise = tuple(wide)
        return Layer(tuple(gate(g) for g in lay.gates), noise)

    return Circuit(n, tuple(layer(lay) for lay in circuit.layers), layer(circuit.final_layer))


def embed_sum(obs: PauliSum, sites: tuple[int, ...], n: int) -> PauliSum:
    def mask(v: int) -> int:
        return sum(((v >> i) & 1) << q for i, q in enumerate(sites))

    return PauliSum(n, [(PauliString(n, mask(p.x), mask(p.z)), c) for p, c in obs.items()])


@st.composite
def product_states(draw, n: int) -> ProductState:
    bloch = []
    for _ in range(n):
        v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        v = v / max(1.0, float(np.linalg.norm(v)) * (1.0 + 1e-12))
        bloch.append(tuple(float(c) for c in v))
    return ProductState.from_vectors(bloch)


# --- references -----------------------------------------------------------------------


def reference_dynamics_series(
    lattice, j_coupling, h_field, dt, steps, noise, trunc, noise_placement="per_layer"
) -> list[dict]:
    """Dynamics rows recomputed from the observable for every step count s.

    This is the per-s loop ``dynamics_series`` ran before it resumed each
    step from the previous frontier; it costs O(steps^2) step walks.
    """
    observable = center_z(lattice)
    state = ProductState.zeros(lattice.n_sites)
    rows = [
        {
            "t": 0.0,
            "expectation": expectation_product_state(observable, state),
            "surviving_paths": len(observable),
        }
    ]
    for s in range(1, steps + 1):
        circuit = build_trotter_tfim(
            lattice, j_coupling, h_field, dt, s, noise, noise_placement
        )
        res = backpropagate(circuit, observable, trunc)
        rows.append(
            {
                "t": s * dt,
                "expectation": expectation_product_state(res.terms, state),
                "surviving_paths": res.stats.surviving_path_count,
            }
        )
    return rows
