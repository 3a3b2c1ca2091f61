"""Shared generators: random noisy circuits built in two independent forms,
hypothesis strategies for small noisy circuits, reference computations
(the per-term product-state overlap, exact Heisenberg evolution on a dense
tensor and the per-step dynamics series), circuit, channel and Pauli-sum
diagnostics only the tests use, and the Pauli-object views of a result and a
Pauli sum (its terms, a coefficient, its squared norm)."""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import strategies as st

import dense_ref
from gate_ensembles import rotation_ptm
from paulipath import (
    BackpropResult,
    Circuit,
    CliffordGate,
    InfeasibleSizeError,
    PauliRotation,
    PauliString,
    PauliSum,
    ProductState,
    QubitCountMismatch,
    RandomSingleQubitClifford,
    TruncationConfig,
    backpropagate,
    build_trotter_tfim,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
)
from paulipath.channels import (
    Design,
    NormalFormChannel,
    SingleQubitPTM,
    contraction_sq_mean,
    contraction_sq_worstcase,
)
from paulipath.circuits import Layer, _pauli_kron, clifford_forward_ptm, unitary_ptm
from paulipath.experiments import center_z
from paulipath.oracle import _apply_matrix, _noise_ptms
from paulipath.pauli import CODE_TO_BITS
from paulipath.propagation import _split_words


def clifford_adjoint_table(name: str) -> tuple[tuple[int, int], ...]:
    """Entry p is ``(q, sign)`` with U^dag P_p U = sign * P_q, from ``clifford_forward_ptm``."""
    w = clifford_forward_ptm(name)
    return tuple((int(q), int(w[p, q])) for p, q in enumerate(np.abs(w).argmax(axis=1)))


def rotation_forward_ptm(generator: PauliString, angle: float) -> np.ndarray:
    """Forward PTM of conjugation by exp(-i*angle/2*G) on the gate's own qubits."""
    g = _pauli_kron(generator.codes())
    return unitary_ptm(math.cos(angle / 2) * np.eye(len(g)) - 1j * math.sin(angle / 2) * g)


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
            rotation_ptm(draw(st.sampled_from("XYZ")), draw(st.floats(0.0, 2 * math.pi)))
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


def packed_weight_bits(n: int, k: int | None) -> int:
    """Weight bits wb of a packed frontier row under path-weight cutoff k (0 without one).

    The engine packs a row as ``x << (n + wb) | z << wb | w`` over
    ``ceil((2n + wb) / 64)`` uint64 words, word 0 most significant.
    """
    return 0 if k is None else (k - 1 + n).bit_length()


def packed_rows(n: int, wb: int, keys) -> np.ndarray:
    """Integer ``(x, z, w)`` keys as packed rows with wb weight bits, word-major ``(W', m)``."""
    return _split_words([(x << n | z) << wb | w for x, z, w in keys], 2 * n + wb)


@st.composite
def registers(draw, k: int | None = None) -> tuple[int, tuple[int, ...]]:
    """A qubit count n and the qubits a drawn circuit acts on, for rows packed under cutoff k.

    n is 1-4 (all qubits active), "packed" or 60-130.  A packed n is at
    most 32 with 2n + wb within 6 bits below 64 (wb from
    ``packed_weight_bits``): the merge sorts a row and its index as one word
    only while 2n + wb + bits(m - 1) <= 64, so small frontiers take that
    sort and larger ones ``lexsort``; the drawn qubits come from both ends
    of the register.  A wide register activates one or two pairs of
    neighbouring qubits that straddle a word boundary: of the word-major
    masks (63/64 or 127/128) or of the packed row, in its z field, in its x
    field or between the two; and up to one more qubit from the ends of the
    register.
    """
    band = draw(st.sampled_from(("small", "packed", "wide")))
    if band == "small":
        n = draw(st.integers(1, 4))
        return n, tuple(range(n))
    if band == "packed":
        fits = [n for n in range(20, 33) if 0 <= 64 - 2 * n - packed_weight_bits(n, k) <= 6]
        n = draw(st.sampled_from(fits))
        sites = draw(st.lists(st.sampled_from((0, 1, n - 2, n - 1)), min_size=1, max_size=3))
        return n, tuple(sorted(set(sites)))
    n = draw(st.integers(60, 130))
    wb = packed_weight_bits(n, k)
    pairs = [(b - 1, b) for b in (64, 128) if b < n]
    for t in range(1, (2 * n + wb + 63) // 64):
        # packed bit 64t holds qubit 64t - wb of the z field, 64t - wb - n of the x field
        pairs += [(q - 1, q) for q in (64 * t - wb, 64 * t - wb - n) if 0 < q < n]
        if 64 * t == wb + n:  # between the fields: the z field's top qubit, the x field's bottom one
            pairs.append((n - 1, 0))
    sites = {q for pair in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2)) for q in pair}
    sites |= set(draw(st.lists(st.sampled_from((0, 1, n - 1)), max_size=1)))
    return n, tuple(sorted(sites))


@st.composite
def merge_inputs(draw) -> tuple[int, int, list, list]:
    """Unmerged rows for ``_Frontier.merge``: n, weight bits wb, keys (x, z, w) and coefficients.

    n is 1-4, 26-33 (on both sides of the single-word sort bound
    2n + wb + bits(m - 1) <= 64, with 2n + wb often 64 or 65 by itself) or
    60-130.  The rows repeat 2-6 keys in random order, every one at least
    once; their masks favour the lowest, middle and top qubits, the largest
    weight has exactly the drawn bit count (up to 13), and some
    coefficients are followed by their exact negation.  wb is that bit
    count plus 0-2 spare bits, as the engine's weight field is wider than
    its largest weight.  For n in 26-32 the row count m is half the time
    drawn with wb, and no spare bits, so that 2n + wb + bits(m - 1) is
    exactly 64 or one past it (m up to 256; the rows beyond the repeats are
    more keys from the pool).
    """
    n = draw(st.one_of(st.integers(1, 4), st.integers(26, 33), st.integers(60, 130)))
    wbits = st.integers(0, 13)
    rows = None  # the row count to reach, when drawn
    if 26 <= n <= 32:
        wbits = st.one_of(st.sampled_from((64 - 2 * n, 65 - 2 * n)), wbits)
        if draw(st.booleans()):
            past = draw(st.integers(0, 1)) if n < 32 else 1  # 64 + past
            ib = draw(st.integers(max(1, 51 - 2 * n + past), min(8, 64 - 2 * n + past)))
            wbits = st.just(64 + past - 2 * n - ib)
            rows = draw(st.integers((1 << (ib - 1)) + 1, 1 << ib))
    wb = draw(wbits)
    wmax = (1 << wb) - 1
    if rows is None:
        wb += draw(st.integers(0, 2))
    qubits = st.sampled_from(sorted({q for q in (0, 1, n >> 1, n - 1) if q < n}))
    masks = st.one_of(
        st.sets(qubits, max_size=3).map(lambda qs: sum(1 << q for q in qs)),
        st.integers(0, (1 << n) - 1),
    )
    limit = math.inf if rows is None else rows
    pool = draw(
        st.lists(
            st.tuples(masks, masks, st.integers(0, wmax)),
            min_size=2,
            max_size=min(6, limit),
            unique=True,
        )
    )
    pool[0] = (*pool[0][:2], wmax)
    extra = draw(st.lists(st.sampled_from(pool), max_size=min(30, limit - len(pool))))
    keys, values = [], []
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    order = draw(st.permutations(pool + extra))
    for i, key in enumerate(order):
        keys.append(key)
        values.append(draw(coeffs))
        # a repeat must leave room for the rows still to come
        if len(keys) + len(order) - i <= limit and draw(st.booleans()):
            keys.append(key)
            values.append(-values[-1])
    if rows is not None:
        pad = rows - len(keys)
        for key in draw(st.lists(st.sampled_from(pool), min_size=pad, max_size=pad)):
            keys.append(key)
            values.append(draw(coeffs))
    return n, wb, keys, values


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
def product_states(draw, n: int, zeros: bool = False) -> ProductState:
    """One Bloch vector in the unit ball per qubit; with ``zeros`` about half
    of the components are exactly 0."""
    component = st.floats(-1.0, 1.0)
    if zeros:
        component = st.one_of(st.just(0.0), component)
    bloch = []
    for _ in range(n):
        v = np.array(draw(st.tuples(*[component] * 3)))
        v = v / max(1.0, float(np.linalg.norm(v)) * (1.0 + 1e-12))
        bloch.append(tuple(float(c) for c in v))
    return ProductState.from_vectors(bloch)


# --- references -----------------------------------------------------------------------

MAX_HEISENBERG_QUBITS = 8


def reference_expectation(o: PauliSum, state: ProductState) -> float:
    """Tr[O rho] term by term: the product of one Bloch component per non-identity site."""
    if o.n != state.n:
        raise QubitCountMismatch(f"observable on {o.n} qubits, state on {state.n}")
    total = 0.0
    for p, c in o.items():
        f = c
        mask = p.x | p.z
        q = 0
        while mask:
            if mask & 1:
                f *= state.bloch[q][p.code(q) - 1]
                if f == 0.0:
                    break
            mask >>= 1
            q += 1
        total += f
    return total


def heisenberg_exact(circuit: Circuit, observable: PauliSum) -> PauliSum:
    """Exact adjoint evolution of an observable, as a dense-backed Pauli sum."""
    if circuit.n > MAX_HEISENBERG_QUBITS:
        raise InfeasibleSizeError(
            f"dense observable evolution supports at most {MAX_HEISENBERG_QUBITS} qubits"
        )
    if circuit.n != observable.n:
        raise QubitCountMismatch("circuit and observable qubit counts differ")
    tensor = np.zeros((4,) * circuit.n)
    for p, c in observable.items():
        tensor[tuple(p.code(q) for q in range(circuit.n))] += c

    def adjoint_gate(tensor, gate):
        if isinstance(gate, PauliRotation):
            if gate.angle is None:
                raise ValueError("circuit has unresolved ensemble placeholders")
            m = rotation_forward_ptm(gate.generator, gate.angle).T
            return _apply_matrix(tensor, m, gate.support)
        if isinstance(gate, CliffordGate):
            return _apply_matrix(tensor, clifford_forward_ptm(gate.name).T, gate.support)
        raise ValueError("circuit has unresolved ensemble placeholders")

    if circuit.final_layer is not None:
        for gate in circuit.final_layer.gates:
            tensor = adjoint_gate(tensor, gate)
    for layer in reversed(circuit.layers):
        if layer.noise is not None:
            for q, ptm in _noise_ptms(layer.noise, circuit.n):
                tensor = _apply_matrix(tensor, ptm.T, (q,))
        for gate in layer.gates:
            tensor = adjoint_gate(tensor, gate)

    flat = tensor.reshape(-1)
    terms = []
    for idx in np.flatnonzero(flat):
        codes = np.unravel_index(idx, tensor.shape)
        terms.append((pauli_from_codes(int(c) for c in codes), float(flat[idx])))
    return PauliSum(circuit.n, terms)


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
            "expectation": reference_expectation(observable, state),
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
                "expectation": reference_expectation(result_terms(res), state),
                "surviving_paths": res.stats.surviving_path_count,
            }
        )
    return rows


# --- circuit and channel diagnostics ------------------------------------------------


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


def backward_ops_by_units(circuit: Circuit, crossed: bool = False) -> list:
    """The backward walk as an op list, built from ``noisy_units``: the unit form.

    ``("layer", layer)`` applies a layer's gates, ``("noise", pairs)`` a
    noise round, each noised qubit with its channel in qubit order
    (identity channels left out), and ``("boundary",)`` is the weight
    boundary.  The final layer and the trailing noiseless run go first,
    then each unit from the last: a boundary (unless no noise round was
    crossed yet; ``crossed`` says one was before this circuit), its noise
    round and its layers in reverse.  The reference walks run this list,
    and ``TestBackwardOps`` checks ``propagation._compile`` against it.
    """
    units, trailing = noisy_units(circuit)
    ops: list = []
    if circuit.final_layer is not None:
        ops.append(("layer", circuit.final_layer))
    ops.extend(("layer", layer) for layer in reversed(trailing))
    for unit in reversed(units):
        if crossed:
            ops.append(("boundary",))
        crossed = True
        noise = enumerate(unit[-1].noise)
        ops.append(("noise", tuple((q, ch) for q, ch in noise if ch is not None and not ch.is_identity)))
        ops.extend(("layer", layer) for layer in reversed(unit))
    return ops


def noisy_layer_count(circuit: Circuit) -> int:
    return sum(1 for layer in circuit.layers if layer.has_noise)


def truncate_to_last_layers(circuit: Circuit, j: int) -> Circuit:
    """Keep the final single-qubit layer plus the last j+1 noise-terminated units."""
    units, trailing = noisy_units(circuit)
    depth = len(units)
    if j < 0 or j > depth:
        raise ValueError(f"truncation index {j} outside 0..{depth}")
    kept = units[max(depth - (j + 1), 0):]
    layers = [layer for unit in kept for layer in unit] + trailing
    return Circuit(circuit.n, tuple(layers), circuit.final_layer)


def adjoint_action(ch: NormalFormChannel, site: str | int) -> PauliSum:
    """Heisenberg action of the channel on one single-site Pauli.

    Returns the 1-qubit Pauli sum N^dag(P); for a rotation-free channel
    this is d_P * P + t_P * I, and I maps to I for any channel.
    """
    code = "IXYZ".index(site.upper()) if isinstance(site, str) else int(site)
    # expansion of N^dag(P_a) over outputs = column a of the adjoint PTM
    row = ch.forward_ptm()[code]
    return PauliSum(
        1, [(PauliString.from_label("IXYZ"[b]), row[b]) for b in range(4) if row[b] != 0.0]
    )


def effective_depolarizing_rate(ch: NormalFormChannel, design: Design | None = None) -> float:
    """Depolarizing strength the noise mimics on average: 1 - sqrt(chi^2).

    chi^2 is the mean over ``design``, or the worst case when it is None.
    """
    sq = contraction_sq_worstcase(ch) if design is None else contraction_sq_mean(ch, design)
    p = 1.0 - np.sqrt(sq)
    if p <= 0.0:
        warnings.warn(
            "effective depolarizing rate is zero; path damping gives no decay",
            stacklevel=2,
        )
    return float(p)


def pauli_sum_json(s: PauliSum) -> list[dict]:
    """The terms as ``{"pauli", "coeff"}`` objects sorted by label: the config form."""
    return [
        {"pauli": p.label(), "coeff": c} for p, c in sorted(s.items(), key=lambda kv: kv[0].label())
    ]


# --- Pauli-object views ----------------------------------------------------------------


def pauli_from_codes(codes) -> PauliString:
    """The string with site code ``codes[q]`` (0=I, 1=X, 2=Y, 3=Z) on qubit q."""
    x = z = n = 0
    for q, code in enumerate(codes):
        xb, zb = CODE_TO_BITS[code]
        x |= xb << q
        z |= zb << q
        n += 1
    return PauliString(n, x, z)


def join_words(words: np.ndarray) -> list[int]:
    """Word-major ``(W, m)`` uint64 masks as one Python int per column."""
    ints = [0] * words.shape[1]
    for row in words[::-1].tolist():
        ints = [(v << 64) | r for v, r in zip(ints, row)]
    return ints


def result_terms(res: BackpropResult) -> PauliSum:
    """A result's rows as a Pauli sum: coefficients merged over accumulated weight."""
    n = res.n
    rows = zip(join_words(res.x), join_words(res.z), res.c.tolist())
    return PauliSum(n, [(PauliString(n, x, z), c) for x, z, c in rows])


def coeff(s: PauliSum, p: PauliString) -> float:
    """The coefficient of ``p`` in ``s``, 0 when absent."""
    return dict(s.items()).get(p, 0.0)


def frobenius_norm_sq(s: PauliSum) -> float:
    """Squared normalized Frobenius norm: the sum of squared coefficients."""
    return math.fsum(c * c for _, c in s.items())
