import math

import numpy as np
import pytest

from gate_ensembles import (
    rotation_pair_ensemble,
    single_axis_ensemble,
    uniform_clifford_ensemble,
    verify_scrambler,
)
from helpers import adjoint_action, coeff, effective_depolarizing_rate, pauli_sum_json
from paulipath import (
    ChannelClass,
    InvalidChannelError,
    PauliString,
    Scrambler,
    TwoDesign,
    classify,
    contraction_sq_bound,
    contraction_sq_mean,
    contraction_sq_worstcase,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
)
from paulipath.channels import (
    NormalFormChannel,
    SingleQubitPTM,
    UnsupportedDesignError,
    _core_ptm,
)
from paulipath.cli import _channel

GRID = [round(0.05 * i, 2) for i in range(1, 20)]


class TestRotationPTM:
    def test_rotations_and_half_turns_pass(self):
        quarter = np.array([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        for m in (np.eye(4), quarter, np.diag([1.0, -1.0, -1.0, 1.0])):
            assert np.array_equal(SingleQubitPTM(m).matrix, m)

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([1.0, 1.0, 1.0, 5.0]),  # not orthogonal
            np.diag([1.0, 1.0, 1.0, -1.0]),  # a reflection: orthogonal, determinant -1
            np.diag([1.0, -1.0, -1.0, -1.0]),  # the inversion of the Bloch ball
            np.array([[1, 0, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),  # first column
            np.diag([2.0, 1.0, 1.0, 1.0]),  # first row
            np.eye(3),
        ],
    )
    def test_other_matrices_are_rejected(self, m):
        with pytest.raises(ValueError):
            SingleQubitPTM(m)


class TestBuilders:
    def test_depolarizing_endpoints(self):
        assert make_depolarizing(0.0).d == (1.0, 1.0, 1.0)
        assert make_depolarizing(1.0).d == (0.0, 0.0, 0.0)
        assert make_depolarizing(0.5).t == (0.0, 0.0, 0.0)

    def test_depolarizing_scales_by_weight(self):
        # adjoint action scales any Pauli by (1-p); products of sites stack
        ch = make_depolarizing(0.1)
        for site in "XYZ":
            acted = adjoint_action(ch, site)
            assert coeff(acted, PauliString.from_label(site)) == pytest.approx(0.9)
            assert len(acted) == 1

    def test_dephasing(self):
        assert make_dephasing(0.0).d == (1.0, 1.0, 1.0)
        assert make_dephasing(0.5).d == (0.0, 0.0, 1.0)
        assert make_dephasing(0.25).d == (0.5, 0.5, 1.0)

    def test_amplitude_damping(self):
        ch = make_amplitude_damping(0.36)
        assert ch.d == pytest.approx((0.8, 0.8, 0.64))
        assert ch.t == (0.0, 0.0, 0.36)
        full = make_amplitude_damping(1.0)
        assert full.d == (0.0, 0.0, 0.0)
        assert full.t == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("builder", [make_depolarizing, make_dephasing, make_amplitude_damping])
    def test_param_range(self, builder):
        with pytest.raises(InvalidChannelError):
            builder(-0.1)
        with pytest.raises(InvalidChannelError):
            builder(1.1)

    def test_identity_at_zero(self):
        for builder in (make_depolarizing, make_dephasing, make_amplitude_damping):
            assert builder(0.0).is_identity


class TestClassify:
    def test_families(self):
        assert classify(make_amplitude_damping(0.1)) is ChannelClass.NON_UNITAL
        assert classify(make_dephasing(0.1)) is ChannelClass.DEPHASING_LIKE
        assert classify(make_depolarizing(0.1)) is ChannelClass.DEPOLARIZING_LIKE
        assert classify(make_depolarizing(0.0)) is ChannelClass.UNITARY

    def test_interior_params(self):
        for p in (0.05, 0.3, 0.7):
            assert classify(make_amplitude_damping(p)) is ChannelClass.NON_UNITAL
            assert classify(make_depolarizing(p)) is ChannelClass.DEPOLARIZING_LIKE
        for p in (0.05, 0.3, 0.7, 0.95):
            assert classify(make_dephasing(p)) is ChannelClass.DEPHASING_LIKE


class TestAdjointAction:
    def test_amplitude_damping_z(self):
        acted = adjoint_action(make_amplitude_damping(0.36), "Z")
        assert coeff(acted, PauliString.from_label("Z")) == pytest.approx(0.64)
        assert coeff(acted, PauliString.from_label("I")) == pytest.approx(0.36)

    def test_dephasing_x(self):
        acted = adjoint_action(make_dephasing(0.3), "X")
        assert pauli_sum_json(acted) == [{"pauli": "X", "coeff": pytest.approx(0.4)}]

    @pytest.mark.parametrize(
        "ch",
        [make_amplitude_damping(0.3), make_dephasing(0.8), make_depolarizing(0.2)],
    )
    def test_identity_maps_to_identity(self, ch):
        acted = adjoint_action(ch, "I")
        assert pauli_sum_json(acted) == [{"pauli": "I", "coeff": 1.0}]

    @pytest.mark.parametrize(
        "ch",
        [make_amplitude_damping(0.4), make_dephasing(0.7), make_depolarizing(0.15)],
    )
    def test_adjoint_is_transpose_of_forward(self, ch):
        # columns assembled from the per-Pauli adjoint expansions
        assembled = np.zeros((4, 4))
        for b, site in enumerate("IXYZ"):
            acted = adjoint_action(ch, site)
            for p, c in acted.items():
                assembled["IXYZ".index(p.label()), b] = c
        assert np.allclose(assembled, ch.forward_ptm().T, atol=1e-12)


class TestContraction:
    def test_norm_gain_examples(self):
        assert contraction_sq_bound((1, 1, 1), (0, 0, 0)) == pytest.approx(1.0)
        assert contraction_sq_bound((0.8, 0.8, 0.8), (0, 0, 0)) == pytest.approx(0.64)
        s = math.sqrt(0.5)
        assert contraction_sq_bound((s, s, 0.5), (0, 0, 0.5)) == pytest.approx(0.5)

    def test_worstcase_identity(self):
        assert contraction_sq_worstcase(make_depolarizing(0.0)) == pytest.approx(1.0)

    def test_worstcase_amplitude_damping_bound(self):
        for g in GRID:
            assert contraction_sq_worstcase(make_amplitude_damping(g)) <= 1 - g + g * g + 1e-12

    def test_worstcase_dephasing_is_one(self):
        for p in (0.1, 0.5, 0.9):
            assert contraction_sq_worstcase(make_dephasing(p)) == pytest.approx(1.0)

    def test_mean_two_design(self):
        assert contraction_sq_mean(make_amplitude_damping(1.0), TwoDesign()) == pytest.approx(1 / 3)

    def test_mean_scrambler_dephasing_formula(self):
        for p in GRID:
            got = contraction_sq_mean(make_dephasing(p), Scrambler(0.25))
            assert got == pytest.approx((1 + (1 - 2 * p) ** 2) / 2, abs=1e-12)
        assert contraction_sq_mean(make_dephasing(0.5), Scrambler(0.25)) == pytest.approx(0.5)

    def test_scrambler_rejects_other_families(self):
        with pytest.raises(UnsupportedDesignError):
            contraction_sq_mean(make_amplitude_damping(0.2), Scrambler(0.25))
        with pytest.raises(UnsupportedDesignError):
            contraction_sq_mean(make_depolarizing(0.2), Scrambler(0.25))

    def test_effective_rate_examples(self):
        with pytest.warns(UserWarning):
            assert effective_depolarizing_rate(make_depolarizing(0.0)) == 0.0
        got = effective_depolarizing_rate(make_amplitude_damping(0.2))
        # the worst-case coefficient for this channel is max(1-g, (1-g)^2+g^2)
        assert got == pytest.approx(1 - math.sqrt(0.8), abs=1e-12)
        assert 1 - math.sqrt(1 - 0.2 + 0.04) <= got + 1e-12
        deph = effective_depolarizing_rate(make_dephasing(0.2), Scrambler(0.25))
        assert deph == pytest.approx(1 - math.sqrt(0.68), abs=1e-12)

    def test_bound_randomized_channels(self):
        rng = np.random.default_rng(2)
        produced = 0
        while produced < 50:
            d = rng.uniform(-1, 1, 3)
            t = rng.uniform(-1, 1, 3)
            try:
                ch = NormalFormChannel(tuple(d), tuple(t))
            except InvalidChannelError:
                continue
            produced += 1
            ups = contraction_sq_bound(ch.d, ch.t)
            assert ups <= 1.0 + 1e-9
            d_inf_sq = max(v * v for v in ch.d)
            t_sq = sum(v * v for v in ch.t)
            if 0 < d_inf_sq < 1 or 0 < t_sq < 1:
                assert ups < 1.0


class TestValidation:
    def test_rejects_non_cp(self):
        with pytest.raises(InvalidChannelError):
            NormalFormChannel((1, 1, 1), (0, 0, 0.5))
        with pytest.raises(InvalidChannelError):
            NormalFormChannel((1, 1, -0.5), (0, 0, 0))
        with pytest.raises(InvalidChannelError):
            NormalFormChannel((1.2, 1, 1), (0, 0, 0))

    def test_sign_canonicalization_preserves_channel(self):
        # mixed signs with even parity fold into a half-turn rotation
        ch = NormalFormChannel((-0.2, -0.2, 1.0), (0, 0, 0))
        assert ch.d == pytest.approx((0.2, 0.2, 1.0))
        direct = np.diag([1.0, -0.2, -0.2, 1.0])
        assert np.allclose(ch.forward_ptm(), direct, atol=1e-12)
        # odd parity lands all-negative
        ch2 = NormalFormChannel((0.3, 0.3, -0.2), (0, 0, 0))
        assert all(v <= 0 for v in ch2.d)
        assert np.allclose(ch2.forward_ptm(), np.diag([1.0, 0.3, 0.3, -0.2]), atol=1e-12)
        # one negative, one positive and one zero entry: the zero takes the second flip
        d, t = (-0.5, 0.5, 0.0), (0.0, 0.0, 0.0)
        ch3 = NormalFormChannel(d, t)
        assert ch3.d == (0.5, 0.5, 0.0)
        assert np.array_equal(ch3.forward_ptm(), _core_ptm(d, t))
        assert all(math.copysign(1.0, v) == 1.0 for v in ch3.d + ch3.t if v == 0.0)

    def test_same_sign_invariant(self):
        for ch in (make_dephasing(0.9), NormalFormChannel((-0.1, 0.2, 0.3), (0, 0, 0))):
            signs = {v > 0 for v in ch.d if v != 0.0}
            assert len(signs) <= 1


class TestScramblerDiagnostics:
    def test_uniform_clifford(self):
        rep = verify_scrambler(uniform_clifford_ensemble, 20000, tol=0.05, seed=1)
        assert rep.orthogonality_ok
        assert abs(rep.eta_estimate) < 0.05

    def test_rotation_pair(self):
        rep = verify_scrambler(rotation_pair_ensemble(("X", "Z")), 20000, tol=0.05, seed=2)
        assert rep.orthogonality_ok
        assert rep.eta_estimate == pytest.approx(0.25, abs=0.05)

    def test_single_axis_fails(self):
        rep = verify_scrambler(single_axis_ensemble("Z"), 2000, tol=0.05, seed=3)
        assert not rep.orthogonality_ok

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            verify_scrambler(uniform_clifford_ensemble, 10, tol=0.1)


class TestJson:
    def test_builder_kinds(self):
        ch = _channel({"kind": "amplitude_damping", "param": 0.36}, "'noise'")
        assert ch.d == pytest.approx((0.8, 0.8, 0.64))
        ch2 = _channel({"kind": "custom", "D": list(ch.d), "t": list(ch.t)}, "'noise'")
        assert ch2.d == pytest.approx(ch.d) and ch2.t == pytest.approx(ch.t)

    def test_custom_round_trip_with_rotation(self):
        ch = make_dephasing(0.8)  # carries a folded half-turn
        obj = {"kind": "custom", "D": list(ch.d), "t": list(ch.t), "post": ch.post.matrix.tolist()}
        ch2 = _channel(obj, "'noise'")
        assert np.allclose(ch2.forward_ptm(), ch.forward_ptm(), atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(InvalidChannelError):
            _channel({"kind": "thermal"}, "'noise'")
