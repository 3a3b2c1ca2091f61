import math

import numpy as np
import pytest

from paulipath import (
    Chain,
    Circuit,
    CliffordGate,
    PauliString,
    PauliSum,
    ProductState,
    RandomSingleQubitClifford,
    TruncFrobenius,
    TruncMSE,
    UnsupportedEnsembleError,
    Variance,
    build_hva,
    estimate,
    estimate_many,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
    validate_estimator,
)
from paulipath.circuits import Layer, PauliRotation
from paulipath.oracle import rotation_forward_ptm
from second_moment_ref import (
    second_moment_clifford,
    second_moment_noise,
    second_moment_rotation,
    second_moment_uniform_clifford,
)


def uniform_rx_layer(n, noise, qubits=None):
    qubits = range(n) if qubits is None else qubits
    gates = tuple(PauliRotation(PauliString.from_label("X"), (q,), None) for q in qubits)
    return Layer(gates, noise)


class TestSecondMomentSteps:
    def test_rz_on_z_commutes(self):
        step = second_moment_rotation(PauliRotation(PauliString.from_label("Z"), (0,), None))
        assert step.transitions((3,)) == [((3,), 1.0, 1.0)]

    def test_rz_on_x_splits(self):
        step = second_moment_rotation(PauliRotation(PauliString.from_label("Z"), (0,), None))
        got = dict((out, p) for out, p, _ in step.transitions((1,)))
        assert got == {(1,): 0.5, (2,): 0.5}

    def test_rzz_on_x_tensor_i(self):
        step = second_moment_rotation(PauliRotation(PauliString.from_label("ZZ"), (0, 1), None))
        got = {out: p for out, p, _ in step.transitions((1, 0))}
        assert got == {(1, 0): 0.5, (2, 3): 0.5}

    def test_rotation_matches_angle_averaged_ptm(self):
        # E_theta <<P|U^dag . U|Q>>^2 from a dense angle grid
        gen = PauliString.from_label("ZZ")
        grid = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        acc = np.zeros((16, 16))
        for theta in grid:
            w = rotation_forward_ptm(gen, theta)
            acc += w**2
        acc /= len(grid)
        step = second_moment_rotation(PauliRotation(gen, (0, 1), None))
        for p_in in range(16):
            codes = ((p_in >> 2) & 3, p_in & 3)
            for out, prob, norm in step.transitions(codes):
                joint = (out[0] << 2) | out[1]
                assert acc[p_in, joint] == pytest.approx(prob * norm, abs=1e-9)

    def test_noise_amp_on_z(self):
        g = 0.3
        step = second_moment_noise(make_amplitude_damping(g))
        got = {out[0]: (p, nrm) for out, p, nrm in step.transitions((3,))}
        c = (1 - g) ** 2 + g * g
        assert got[3][0] == pytest.approx((1 - g) ** 2 / c)
        assert got[0][0] == pytest.approx(g * g / c)
        assert got[3][1] == pytest.approx(c)

    def test_noise_dephasing_on_x(self):
        p = 0.2
        step = second_moment_noise(make_dephasing(p))
        trans = step.transitions((1,))
        assert trans == [((1,), 1.0, pytest.approx((1 - 2 * p) ** 2))]

    def test_noise_identity_input(self):
        for ch in (make_amplitude_damping(0.4), make_dephasing(0.3)):
            assert second_moment_noise(ch).transitions((0,)) == [((0,), 1.0, 1.0)]

    def test_probabilities_sum_to_one(self):
        for step, codes in (
            (second_moment_noise(make_amplitude_damping(0.37)), (3,)),
            (second_moment_rotation(PauliRotation(PauliString.from_label("Y"), (0,), None)), (3,)),
            (second_moment_uniform_clifford(), (2,)),
            (second_moment_clifford(CliffordGate("CNOT", (0, 1))), (1, 3)),
        ):
            trans = step.transitions(codes)
            assert sum(p for _, p, _ in trans) == pytest.approx(1.0)
            for _, _, norm in trans:
                assert 0.0 < norm <= 1.0

    def test_uniform_clifford_twirl(self):
        step = second_moment_uniform_clifford()
        assert step.transitions((0,)) == [((0,), 1.0, 1.0)]
        got = {out[0]: p for out, p, _ in step.transitions((2,))}
        assert got == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3), 3: pytest.approx(1 / 3)}


class TestEstimate:
    def test_empty_circuit_exact(self):
        r = estimate(Circuit(1, ()), PauliSum.single("Z"), Variance(ProductState.zeros(1)), 500, 0)
        assert r.mean == 1.0 and r.standard_error == 0.0

    def test_uniform_rx_variance_half(self):
        tmpl = Circuit(1, (uniform_rx_layer(1, None),))
        r = estimate(tmpl, PauliSum.single("Z"), Variance(ProductState.zeros(1)), 300_000, 3)
        assert r.mean == pytest.approx(0.5, abs=5 * r.standard_error + 1e-3)

    def test_rx_then_damping_variance(self):
        g = 0.25
        tmpl = Circuit(1, (uniform_rx_layer(1, (make_amplitude_damping(g),)),))
        r = estimate(tmpl, PauliSum.single("Z"), Variance(ProductState.zeros(1)), 300_000, 5)
        want = (1 - g) ** 2 / 2 + g * g
        assert r.mean == pytest.approx(want, abs=5 * r.standard_error + 1e-3)

    def test_multi_term_observable_bounded(self):
        obs = PauliSum.from_strings([("ZI", 0.6), ("IX", 0.8)])
        tmpl = Circuit(2, (uniform_rx_layer(2, (make_amplitude_damping(0.2),) * 2),))
        r = estimate(tmpl, obs, Variance(ProductState.zeros(2)), 20_000, 1)
        assert 0.0 <= r.mean <= obs.frobenius_norm_sq()

    def test_trunc_mse_dominated_by_variance(self):
        tmpl = build_hva(Chain(3), make_amplitude_damping(0.2), 2, noise_placement="per_block")
        obs = PauliSum.single("ZII")
        st = ProductState.zeros(3)
        var, mse = estimate_many(
            tmpl, obs, [Variance(st), TruncMSE(4, st)], 150_000, 11
        )
        assert mse.mean <= var.mean + 3 * (var.standard_error + mse.standard_error)

    def test_truncation_tail_decay_bound(self):
        from paulipath import WorstCase, effective_depolarizing_rate

        g = 0.3
        ch = make_amplitude_damping(g)
        tmpl = build_hva(Chain(3), ch, 3, noise_placement="per_block")
        obs = PauliSum.single("ZII")
        p = effective_depolarizing_rate(ch, WorstCase())
        for k in (3, 5, 7):
            r = estimate(tmpl, obs, TruncFrobenius(k), 200_000, 13)
            assert r.mean <= (1 - p) ** (2 * k) + 3 * r.standard_error

    def test_estimate_many_matches_single(self):
        tmpl = Circuit(1, (uniform_rx_layer(1, (make_amplitude_damping(0.3),)),))
        obs = PauliSum.single("Z")
        st = ProductState.zeros(1)
        single = estimate(tmpl, obs, Variance(st), 50_000, 21)
        many = estimate_many(tmpl, obs, [Variance(st), TruncFrobenius(2)], 50_000, 21)
        assert many[0].mean == single.mean

    def test_reproducible_and_seed_sensitive(self):
        tmpl = Circuit(1, (uniform_rx_layer(1, (make_amplitude_damping(0.3),)),))
        obs = PauliSum.single("Z")
        f = Variance(ProductState.zeros(1))
        a = estimate(tmpl, obs, f, 30_000, 9)
        b = estimate(tmpl, obs, f, 30_000, 9)
        c = estimate(tmpl, obs, f, 30_000, 10)
        assert a.mean == b.mean
        assert a.mean != c.mean

    def test_rejects_fixed_non_clifford_angles(self):
        c = Circuit(
            1,
            (
                Layer(
                    (PauliRotation(PauliString.from_label("X"), (0,), 0.4),),
                    (make_amplitude_damping(0.1),),
                ),
            ),
        )
        with pytest.raises(UnsupportedEnsembleError):
            estimate(c, PauliSum.single("Z"), Variance(ProductState.zeros(1)), 2000, 0)

    def test_accepts_clifford_angles_and_random_cliffords(self):
        half_turn = PauliRotation(PauliString.from_label("X"), (0,), math.pi / 2)
        layers = (
            Layer((half_turn,), (make_dephasing(0.2),)),
            Layer((RandomSingleQubitClifford(0),), (make_dephasing(0.2),)),
        )
        r = estimate(
            Circuit(1, layers), PauliSum.single("Z"), Variance(ProductState.zeros(1)), 20_000, 2
        )
        assert 0.0 <= r.mean <= 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate(Circuit(1, ()), PauliSum(1, []), Variance(ProductState.zeros(1)), 100, 0)
        with pytest.raises(ValueError):
            estimate(Circuit(1, ()), PauliSum.single("Z"), Variance(ProductState.zeros(1)), 1, 0)


class TestDeterministicCircuits:
    def test_clifford_dephasing_matches_square_exactly(self):
        # single-path circuits: the estimator degenerates to the exact square
        p = 0.3
        layers = (
            Layer((CliffordGate("H", (0,)), CliffordGate("H", (1,))), (make_dephasing(p),) * 2),
            Layer((CliffordGate("CNOT", (0, 1)),), (make_dephasing(p),) * 2),
        )
        c = Circuit(2, layers)
        obs = PauliSum.single("ZI")
        st = ProductState.zeros(2)
        r = estimate(c, obs, Variance(st), 4000, 7)
        from paulipath import simulate_exact

        want = simulate_exact(c, st, obs) ** 2
        assert r.mean == pytest.approx(want, abs=1e-12)
        assert r.standard_error == pytest.approx(0.0, abs=1e-12)


class TestValidateEstimator:
    def test_rx_damping_variance(self):
        tmpl = Circuit(1, (uniform_rx_layer(1, (make_amplitude_damping(0.3),)),))
        rep = validate_estimator(
            tmpl, PauliSum.single("Z"), Variance(ProductState.zeros(1)), 100_000, 300, 17
        )
        assert rep.agree

    def test_hva_dephasing_frobenius(self):
        tmpl = build_hva(Chain(3), make_dephasing(0.15), 2)
        rep = validate_estimator(tmpl, PauliSum.single("ZII"), TruncFrobenius(5), 100_000, 200, 19)
        assert rep.agree

    def test_clifford_amp_damping_mse(self):
        # each noisy unit starts with a fresh uniform-Clifford round so the
        # unit distribution is invariant under Pauli right-multiplication
        ch = make_amplitude_damping(0.25)
        layers = []
        for _ in range(3):
            layers.append(Layer(tuple(RandomSingleQubitClifford(q) for q in range(2))))
            layers.append(Layer((CliffordGate("CZ", (0, 1)),), (ch,) * 2))
        final = Layer(tuple(RandomSingleQubitClifford(q) for q in range(2)))
        tmpl = Circuit(2, tuple(layers), final)
        rep = validate_estimator(
            tmpl, PauliSum.single("ZI"), TruncMSE(4, ProductState.zeros(2)), 100_000, 200, 23
        )
        assert rep.agree

    def test_variance_size_guard(self):
        tmpl = build_hva(Chain(5), make_dephasing(0.1), 1)
        with pytest.raises(ValueError):
            validate_estimator(
                tmpl, PauliSum.single("ZIIII"), Variance(ProductState.zeros(5)), 1000, 10, 0
            )
