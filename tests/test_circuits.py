import functools
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_ref
from helpers import (
    clifford_adjoint_table,
    noisy_layer_count,
    noisy_units,
    rotation_forward_ptm,
    truncate_to_last_layers,
)
from paulipath import (
    Chain,
    Circuit,
    CliffordGate,
    PauliRotation,
    PauliString,
    ProductState,
    RandomSingleQubitClifford,
    Square,
    build_hva,
    build_trotter_tfim,
    make_amplitude_damping,
    sample_circuit,
    simulate_exact,
)
from paulipath.circuits import (
    Layer,
    NotCliffordError,
    _signed_permutation,
    clifford_forward_ptm,
    clifford_group_1q,
    edge_coloring,
    unitary_ptm,
)
from paulipath.cli import _circuit, _lattice
from paulipath.experiments import center_z


class TestCliffordTables:
    def test_hadamard_swaps_x_and_z(self):
        table = clifford_adjoint_table("H")
        # adjoint H: X<->Z, Y -> -Y
        assert table[1] == (3, 1)
        assert table[3] == (1, 1)
        assert table[2] == (2, -1)

    def test_tables_match_dense_conjugation(self):
        for name in ("H", "S", "SDG", "X", "Y", "Z", "CNOT", "CZ", "SWAP"):
            u = dense_ref.GATE_UNITARIES[name]
            k = 1 if u.shape == (2, 2) else 2
            table = clifford_adjoint_table(name)
            for p, (q, sign) in enumerate(table):
                label_p = "".join(
                    "IXYZ"[(p >> (2 * (k - 1 - i))) & 3] for i in range(k)
                )
                label_q = "".join(
                    "IXYZ"[(q >> (2 * (k - 1 - i))) & 3] for i in range(k)
                )
                lhs = u.conj().T @ dense_ref.pauli_matrix(label_p) @ u
                assert np.allclose(lhs, sign * dense_ref.pauli_matrix(label_q))

    def test_group_has_24_elements(self):
        names = clifford_group_1q()
        assert len(names) == 24
        assert len({clifford_adjoint_table(n) for n in names}) == 24

    def test_unknown_gate(self):
        with pytest.raises(NotCliffordError):
            CliffordGate("T", (0,))

    def test_word_names_do_not_depend_on_call_history(self):
        # a fresh interpreter, where nothing has called clifford_group_1q yet
        script = (
            "from paulipath.circuits import CliffordGate, NotCliffordError\n"
            "CliffordGate('HS', (0,))\n"
            "try:\n    CliffordGate('T', (0,))\nexcept NotCliffordError:\n    pass\n"
            "else:\n    raise SystemExit('T is not a Clifford')\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr


def _dense_ptm(u: np.ndarray) -> np.ndarray:
    """``w[p, q]`` = Re Tr(P_q U^dag P_p U) / 2^k, entry by entry on dense_ref's label matrices."""
    k = len(u).bit_length() - 1
    labels = ["".join(codes) for codes in itertools.product("IXYZ", repeat=k)]
    return np.array(
        [
            [np.trace(dense_ref.pauli_matrix(q) @ u.conj().T @ dense_ref.pauli_matrix(p) @ u).real
             for q in labels]
            for p in labels
        ]
    ) / 2**k


class TestUnitaryPtm:
    """``unitary_ptm`` against explicit conjugation of dense_ref's complex matrices."""

    def test_clifford_ptms_are_the_exact_signed_permutations(self):
        words = {w: functools.reduce(np.matmul, (dense_ref.GATE_UNITARIES[g] for g in w))
                 for w in clifford_group_1q()}
        assert len(words) == 24
        for name, u in {**dense_ref.GATE_UNITARIES, **words}.items():
            dense = _dense_ptm(u)
            expected = np.rint(dense)
            assert np.abs(dense - expected).max() < 1e-12, name
            assert (np.abs(expected).sum(axis=1) == 1).all(), name
            w = clifford_forward_ptm(name)
            assert set(np.unique(w)) <= {-1.0, 0.0, 1.0}, name
            assert np.array_equal(w, expected), name
            assert not w.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["X", "Y", "Z", "XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ",
                         "IX", "ZI", "IY"]),
        st.floats(-10.0, 10.0, allow_nan=False),
    )
    def test_rotation_ptms_match_dense_conjugation(self, generator, angle):
        u = dense_ref.rotation_unitary(generator, angle)
        dense = _dense_ptm(u)
        assert np.abs(unitary_ptm(u) - dense).max() < 1e-12
        if "I" not in generator:  # a gate's generator acts on every support site
            ptm = rotation_forward_ptm(PauliString.from_label(generator), angle)
            assert np.abs(ptm - dense).max() < 1e-12

    def test_non_clifford_raises(self):
        t_gate = np.diag([1, np.exp(0.25j * np.pi)])
        with pytest.raises(NotCliffordError):
            _signed_permutation(t_gate)


class TestGateValidation:
    def test_rotation_needs_full_support(self):
        with pytest.raises(ValueError):
            PauliRotation(PauliString.from_label("XI"), (0, 1), 0.1)
        with pytest.raises(ValueError):
            PauliRotation(PauliString.from_label("X"), (0, 1), 0.1)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rotation_rejects_a_non_finite_angle(self, angle):
        # a NaN angle used to reach backpropagate and turn every coefficient NaN
        with pytest.raises(ValueError, match="'angle' must be finite"):
            PauliRotation(PauliString.from_label("X"), (0,), angle)

    def test_clifford_arity(self):
        with pytest.raises(ValueError):
            CliffordGate("H", (0, 1))
        with pytest.raises(ValueError):
            CliffordGate("CNOT", (2,))

    def test_layer_rejects_overlap(self):
        g1 = PauliRotation(PauliString.from_label("X"), (0,), 0.1)
        g2 = CliffordGate("CNOT", (0, 1))
        with pytest.raises(ValueError):
            Layer((g1, g2))

    def test_final_layer_constraints(self):
        two_q = Layer((CliffordGate("CNOT", (0, 1)),))
        with pytest.raises(ValueError):
            Circuit(2, (), final_layer=two_q)
        noisy = Layer((CliffordGate("H", (0,)),), (make_amplitude_damping(0.1),) * 2)
        with pytest.raises(ValueError):
            Circuit(2, (), final_layer=noisy)


class TestLattices:
    def test_chain_edges(self):
        assert Chain(4).edges() == [(0, 1), (1, 2), (2, 3)]
        assert Chain(4, periodic=True).edges() == [(0, 1), (1, 2), (2, 3), (0, 3)]
        assert Chain(2, periodic=True).edges() == [(0, 1)]  # wrap edge deduped

    def test_square_edges(self):
        sq = Square(2, 2)
        assert sorted(sq.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        per = Square(2, 2, periodic=True)
        assert sorted(per.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        big = Square(3, 3, periodic=True)
        assert len(big.edges()) == 18  # 2 * n on a torus

    def test_centers(self):
        assert Chain(6).center() == 3
        assert Square(3, 3).center() == 4
        assert Square(4, 4).center() == 10

    def test_edge_coloring_disjoint_and_complete(self):
        edges = Square(3, 3, periodic=True).edges()
        rounds = edge_coloring(edges)
        seen = []
        for rnd in rounds:
            qubits = [q for e in rnd for q in e]
            assert len(qubits) == len(set(qubits))
            seen.extend(rnd)
        assert sorted(seen) == sorted(edges)


class TestBuilders:
    def test_hva_chain2_structure(self):
        c = build_hva(Chain(2), make_amplitude_damping(0.1), 1, 0.3)
        assert c.n == 2 and len(c.layers) == 3
        rx, rz, rzz = c.layers
        assert [g.generator.label() for g in rx.gates] == ["X", "X"]
        assert [g.generator.label() for g in rz.gates] == ["Z", "Z"]
        assert [g.generator.label() for g in rzz.gates] == ["ZZ"]
        assert rzz.gates[0].support == (0, 1)
        assert all(layer.has_noise for layer in c.layers)

    def test_hva_square_splits_edge_round(self):
        c = build_hva(Square(2, 2), None, 1, 0.1)
        kinds = [len(layer.gates) for layer in c.layers]
        assert kinds[0] == 4 and kinds[1] == 4  # RX, RZ rounds
        edge_layers = c.layers[2:]
        assert len(edge_layers) == 2
        assert sum(len(l.gates) for l in edge_layers) == 4

    def test_hva_zero_blocks(self):
        c = build_hva(Chain(3), make_amplitude_damping(0.1), 0)
        assert c.layers == ()

    def test_hva_per_block_noise(self):
        c = build_hva(Chain(3), make_amplitude_damping(0.1), 2, noise_placement="per_block")
        assert noisy_layer_count(c) == 2
        units, trailing = noisy_units(c)
        assert len(units) == 2 and not trailing

    def test_trotter_zero_steps(self):
        c = build_trotter_tfim(Chain(2), 3.004438, 1.0, 0.04, 0, None)
        assert c.layers == ()

    def test_trotter_accepts_critical_point_parameters(self):
        c = build_trotter_tfim(
            Square(2, 2, periodic=True), 3.004438, 1.0, 0.04, 2, make_amplitude_damping(0.1)
        )
        assert c.n == 4 and noisy_layer_count(c) == 6

    def test_trotter_per_step_noise(self):
        c = build_trotter_tfim(
            Chain(2), 3.004438, 1.0, 0.04, 3, make_amplitude_damping(0.1), "per_step"
        )
        assert noisy_layer_count(c) == 3

    def test_trotter_matches_dense_reference_noiseless(self):
        j_c, h, dt = 1.3, 0.7, 0.11
        c = build_trotter_tfim(Chain(2), j_c, h, dt, 1, None)
        obs = center_z(Chain(2))
        got = simulate_exact(c, ProductState.zeros(2), obs)
        rho = dense_ref.product_density([(0, 0, 1)] * 2)
        u_half = dense_ref.rotation_unitary("Z", h * dt)
        u_xx = dense_ref.rotation_unitary("XX", 2 * j_c * dt)
        for u, supp in ((u_half, (0,)), (u_half, (1,)), (u_xx, (0, 1)),
                        (u_half, (0,)), (u_half, (1,))):
            rho = dense_ref.apply_unitary(rho, u, supp, 2)
        want = dense_ref.expectation(rho, [("IZ", 1.0)])
        assert got == pytest.approx(want, abs=1e-12)

    def test_trotter_small_dt_taylor(self):
        dt = 1e-6
        c = build_trotter_tfim(Chain(2), 1.0, 1.0, dt, 1, None)
        val = simulate_exact(c, ProductState.zeros(2), center_z(Chain(2)))
        assert abs(val - 1.0) < 1e-4  # change from identity is O(dt)


class TestSampling:
    def _template(self):
        return build_hva(Chain(3), make_amplitude_damping(0.1), 2)

    def test_template_detection(self):
        assert self._template().is_template()
        assert not sample_circuit(self._template(), 1).is_template()

    def test_same_seed_identical_serialization(self):
        template = self._template()
        assert sample_circuit(template, 99) == sample_circuit(template, 99)

    def test_different_seeds_differ(self):
        template = self._template()
        assert sample_circuit(template, 1) != sample_circuit(template, 2)

    def test_fixed_template_ignores_seed(self):
        fixed = build_hva(Chain(3), None, 1, 0.7)
        assert sample_circuit(fixed, 1) == sample_circuit(fixed, 2)

    def test_random_clifford_sampling(self):
        tmpl = Circuit(1, (Layer((RandomSingleQubitClifford(0),)),))
        got = sample_circuit(tmpl, 5)
        assert isinstance(got.layers[0].gates[0], CliffordGate)


class TestTruncateToLastLayers:
    def _noise_only(self, depth):
        ch = (make_amplitude_damping(0.1),)
        return Circuit(1, tuple(Layer((), ch) for _ in range(depth)))

    def test_full_circuit_at_j_equals_depth(self):
        c = self._noise_only(5)
        assert truncate_to_last_layers(c, 5) == c

    def test_keeps_last_units(self):
        c = self._noise_only(5)
        kept = truncate_to_last_layers(c, 2)
        assert len(kept.layers) == 3  # layers 3, 4, 5

    def test_j_zero_keeps_one_unit(self):
        c = self._noise_only(5)
        assert len(truncate_to_last_layers(c, 0).layers) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            truncate_to_last_layers(self._noise_only(3), 4)

    def test_keeps_final_layer_and_sublayers(self):
        c = build_hva(Square(2, 2), make_amplitude_damping(0.1), 2)
        kept = truncate_to_last_layers(c, 0)
        units, trailing = noisy_units(kept)
        assert len(units) == 1 and not trailing
        # the edge round keeps its noiseless sublayer
        assert len(units[0]) == 2


def _noise_params(circuit):
    return [
        None if layer.noise is None else [(ch.d, ch.t) for ch in layer.noise]
        for layer in circuit.layers
    ]


class TestJsonInterface:
    def test_circuit_from_literal(self):
        damping = {"kind": "amplitude_damping", "param": 0.25}
        z = [
            {"type": "rot", "generator": "Z", "support": [q], "angle": 0.5 * 0.1} for q in range(3)
        ]
        xx = [
            {"type": "rot", "generator": "XX", "support": e, "angle": 2.0 * 1.5 * 0.1}
            for e in ([0, 1], [1, 2])
        ]
        obj = {
            "n": 3,
            "layers": [
                {"gates": z, "noise": damping},
                {"gates": xx[:1]},
                {"gates": xx[1:], "noise": damping},
                {"gates": z, "noise": damping},
            ],
        }
        c = _circuit(obj)
        want = build_trotter_tfim(Chain(3), 1.5, 0.5, 0.1, 1, make_amplitude_damping(0.25))
        assert [layer.gates for layer in c.layers] == [layer.gates for layer in want.layers]
        assert _noise_params(c) == _noise_params(want)
        assert c.final_layer is None

    def test_template_from_literal(self):
        obj = {
            "n": 2,
            "layers": [
                {"gates": [{"type": "rot", "generator": "X", "support": [0], "angle": "uniform"}]}
            ],
        }
        c = _circuit(obj)
        assert c.layers[0].gates[0].angle is None
        assert c.is_template()

    def test_per_qubit_noise_list(self):
        obj = {
            "n": 2,
            "layers": [
                {
                    "gates": [{"type": "clifford", "name": "H", "support": [0]}],
                    "noise": [{"kind": "dephasing", "param": 0.1}, None],
                }
            ],
        }
        c = _circuit(obj)
        assert c.layers[0].noise[0].d == pytest.approx((1.0 - 0.2, 1.0 - 0.2, 1.0))
        assert c.layers[0].noise[1] is None

    def test_final_layer(self):
        obj = {
            "n": 1,
            "layers": [],
            "final_layer": [{"type": "clifford", "name": "H", "support": [0]}],
        }
        c = _circuit(obj)
        assert c.final_layer is not None
        assert c.final_layer.gates == (CliffordGate("H", (0,)),)

    def test_lattice_from_literal(self):
        chain = {"type": "chain", "n": 5, "periodic": True}
        assert _lattice(chain, "'lattice'") == Chain(5, True)
        square = {"type": "square", "rows": 2, "cols": 3}
        assert _lattice(square, "'lattice'") == Square(2, 3, False)


class TestDisjointnessFuzz:
    def test_builders_always_disjoint(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rows, cols = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            lat = Square(rows, cols, periodic=bool(rng.integers(2)))
            c = build_hva(lat, make_amplitude_damping(0.1), 2)
            for layer in c.layers:
                qubits = [q for g in layer.gates for q in g.support]
                assert len(qubits) == len(set(qubits))
