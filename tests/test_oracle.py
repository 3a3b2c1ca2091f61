import math

import numpy as np
import pytest

import helpers
from helpers import heisenberg_exact, pauli_sum_json
from paulipath import (
    Circuit,
    InfeasibleSizeError,
    RandomSingleQubitClifford,
    PauliString,
    PauliSum,
    ProductState,
    expectation_product_state,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
    simulate_exact,
)
from paulipath.circuits import Layer, PauliRotation
from paulipath.oracle import evolve_state


def _amp_layer(n, gamma):
    return Layer((), (make_amplitude_damping(gamma),) * n)


class TestSimulateExact:
    def test_identity_circuit(self):
        c = Circuit(2, ())
        assert simulate_exact(c, ProductState.zeros(2), PauliSum.single("ZI")) == 1.0

    @pytest.mark.parametrize("theta,gamma", [(0.3, 0.1), (1.2, 0.5), (2.5, 0.9)])
    def test_rx_then_damping_closed_form(self, theta, gamma):
        c = Circuit(
            1,
            (
                Layer(
                    (PauliRotation(PauliString.from_label("X"), (0,), theta),),
                    (make_amplitude_damping(gamma),),
                ),
            ),
        )
        got = simulate_exact(c, ProductState.zeros(1), PauliSum.single("Z"))
        assert got == pytest.approx((1 - gamma) * math.cos(theta) + gamma, abs=1e-12)

    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
    def test_two_site_damping_frobenius_growth(self, q):
        obs = PauliSum.from_strings([("ZZ", 1.0), ("IZ", 1.0), ("ZI", 1.0)])
        acted = heisenberg_exact(Circuit(2, (_amp_layer(2, q),)), obs)
        got = helpers.frobenius_norm_sq(acted)
        want = q * q * (2 + q) ** 2 + (1 - q) ** 4 + 2 * (1 - q * q) ** 2
        assert got == pytest.approx(want, abs=1e-12)
        if q == 1.0:
            assert got / helpers.frobenius_norm_sq(obs) == pytest.approx(3.0, abs=1e-12)

    def test_random_circuits_match_dense_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            circuit, dense_ops, n = helpers.random_noisy_circuit(rng)
            obs = helpers.random_observable(rng, n)
            state = helpers.random_product_state(rng, n)
            got = simulate_exact(circuit, state, obs)
            want = helpers.dense_expectation(dense_ops, n, state, obs)
            assert got == pytest.approx(want, abs=1e-10)

    def test_size_cap(self):
        with pytest.raises(InfeasibleSizeError):
            simulate_exact(Circuit(13, ()), ProductState.zeros(13), PauliSum.single("Z" + "I" * 12))


    @pytest.mark.parametrize(
        "gate",
        [RandomSingleQubitClifford(1), PauliRotation(PauliString.from_label("X"), (0,), None)],
    )
    @pytest.mark.parametrize("final", [False, True])
    def test_templates_rejected_at_entry(self, gate, final):
        layer = Layer((gate,))
        circuit = Circuit(2, (), layer) if final else Circuit(2, (layer,))
        with pytest.raises(ValueError, match="^circuit has unresolved ensemble placeholders$"):
            evolve_state(circuit, ProductState.zeros(2))


class TestHeisenbergExact:
    def test_identity(self):
        obs = PauliSum.from_strings([("XZ", 0.3), ("YI", -0.2)])
        assert pauli_sum_json(heisenberg_exact(Circuit(2, ()), obs)) == pauli_sum_json(obs)

    def test_depolarizing_layer_scales_by_weight(self):
        p = 0.2
        c = Circuit(3, (Layer((), (make_depolarizing(p),) * 3),))
        for label, w in (("ZII", 1), ("ZXI", 2), ("XYZ", 3)):
            acted = heisenberg_exact(c, PauliSum.single(label))
            want = (1 - p) ** w
            assert helpers.coeff(acted, PauliString.from_label(label)) == pytest.approx(want)
            assert len(acted) == 1

    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
    def test_amplitude_damping_expansion(self, q):
        obs = PauliSum.from_strings([("ZZ", 1.0), ("IZ", 1.0), ("ZI", 1.0)])
        acted = heisenberg_exact(Circuit(2, (_amp_layer(2, q),)), obs)
        zz = helpers.coeff(acted, PauliString.from_label("ZZ"))
        assert zz == pytest.approx((1 - q) ** 2, abs=1e-12)
        for label in ("IZ", "ZI"):
            assert helpers.coeff(acted, PauliString.from_label(label)) == pytest.approx(
                1 - q * q, abs=1e-12
            )
        assert helpers.coeff(acted, PauliString.from_label("II")) == pytest.approx(
            2 * q + q * q, abs=1e-12
        )

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            circuit, _, n = helpers.random_noisy_circuit(rng, n_max=3, depth_max=4)
            obs = helpers.random_observable(rng, n)
            state = helpers.random_product_state(rng, n)
            lhs = simulate_exact(circuit, state, obs)
            evolved = heisenberg_exact(circuit, obs)
            assert expectation_product_state(evolved, state) == pytest.approx(lhs, abs=1e-12)

    def test_size_cap(self):
        with pytest.raises(InfeasibleSizeError):
            heisenberg_exact(Circuit(9, ()), PauliSum.single("Z" + "I" * 8))


class TestStateInvariants:
    def test_trace_preservation(self):
        rng = np.random.default_rng(33)
        circuit, _, n = helpers.random_noisy_circuit(rng, n_max=3, depth_max=5)
        vec = evolve_state(circuit, ProductState.zeros(n))
        assert vec.coeffs[(0,) * n] == pytest.approx(1.0, abs=1e-14)

    def test_unital_noise_fixes_maximally_mixed(self):
        n = 3
        mixed = ProductState.from_vectors([(0.0, 0.0, 0.0)] * n)
        layers = (
            Layer((), (make_dephasing(0.3),) * n),
            Layer((), (make_depolarizing(0.4),) * n),
        )
        vec = evolve_state(Circuit(n, layers), mixed)
        out = vec.coeffs.copy()
        out[(0,) * n] = 0.0
        assert np.allclose(out, 0.0)

    def test_nonunital_noise_moves_maximally_mixed(self):
        mixed = ProductState.from_vectors([(0.0, 0.0, 0.0)])
        vec = evolve_state(Circuit(1, (_amp_layer(1, 0.5),)), mixed)
        assert vec.coeffs[3] != 0.0
