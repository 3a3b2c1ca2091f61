import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from paulipath import (
    Chain,
    ProductState,
    Square,
    TruncationConfig,
    build_trotter_tfim,
    make_amplitude_damping,
    make_dephasing,
    simulate_exact,
)
from paulipath.experiments import center_z, dynamics_series, sweep_table, theory_contraction_sq


class TestDynamicsSeries:
    def test_row_contract(self):
        rows = dynamics_series(
            Square(2, 2, periodic=True), 3.004438, 1.0, 0.04, 3,
            make_amplitude_damping(0.1), TruncationConfig(),
        )
        assert [r["t"] for r in rows] == pytest.approx([0.0, 0.04, 0.08, 0.12])
        assert rows[0]["expectation"] == 1.0

    @pytest.mark.parametrize("steps", [2.5, True, -1])
    def test_steps_must_be_a_nonnegative_integer(self, steps):
        with pytest.raises(ValueError, match="'steps' must be a nonnegative integer"):
            dynamics_series(Chain(2), 1.0, 1.0, 0.1, steps, None, TruncationConfig())

    def test_matches_oracle_exact_mode(self):
        lat = Square(2, 2, periodic=True)
        noise = make_amplitude_damping(0.15)
        rows = dynamics_series(lat, 3.004438, 1.0, 0.04, 4, noise, TruncationConfig())
        circ = build_trotter_tfim(lat, 3.004438, 1.0, 0.04, 4, noise)
        want = simulate_exact(circ, ProductState.zeros(4), center_z(lat))
        assert rows[4]["expectation"] == pytest.approx(want, abs=1e-10)

    def test_damping_pulls_toward_fixed_point(self):
        # the reset channel drives the center Z back toward its fixed point +1
        lat = Square(2, 2, periodic=True)
        args = (3.004438, 1.0, 0.04, 8)
        noiseless = simulate_exact(
            build_trotter_tfim(lat, *args, None), ProductState.zeros(4), center_z(lat)
        )
        damped = simulate_exact(
            build_trotter_tfim(lat, *args, make_amplitude_damping(0.2)),
            ProductState.zeros(4),
            center_z(lat),
        )
        assert damped > noiseless
        assert abs(damped - 1.0) < abs(noiseless - 1.0)

    def test_successive_cutoffs_converge_early(self):
        lat = Square(2, 2, periodic=True)
        noise = make_amplitude_damping(0.1)
        lo = dynamics_series(
            lat, 3.004438, 1.0, 0.04, 6, noise, TruncationConfig(10), "per_step"
        )
        hi = dynamics_series(
            lat, 3.004438, 1.0, 0.04, 6, noise, TruncationConfig(14), "per_step"
        )
        for a, b in zip(lo, hi):
            if a["t"] <= 0.16:
                assert abs(a["expectation"] - b["expectation"]) <= 0.02


    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_one_pass_equals_per_step_recomputation(self, data):
        lattice = data.draw(
            st.sampled_from([Chain(3), Chain(4, periodic=True), Square(2, 2), Chain(5)])
        )
        noise = data.draw(
            st.sampled_from([None, make_amplitude_damping(0.1), make_dephasing(0.15)])
        )
        placement = data.draw(st.sampled_from(["per_step", "per_layer"]))
        trunc = data.draw(helpers.truncations(k_max=10))
        params = (
            data.draw(st.floats(-2.0, 2.0)),
            data.draw(st.floats(-2.0, 2.0)),
            data.draw(st.floats(0.01, 0.5)),
            data.draw(st.integers(1, 4)),
        )
        got = dynamics_series(lattice, *params, noise, trunc, placement)
        want = helpers.reference_dynamics_series(lattice, *params, noise, trunc, placement)
        assert [r["t"] for r in got] == [r["t"] for r in want]
        assert [r["surviving_paths"] for r in got] == [r["surviving_paths"] for r in want]
        for a, b in zip(got, want):
            assert a["expectation"] == pytest.approx(b["expectation"], abs=1e-12)


class TestSweepTable:
    def test_reference_curve_columns(self):
        rows = sweep_table(
            Chain(3), 2, "amplitude_damping", [0.1], [2, 4], "trunc_frobenius", 2000, 3
        )
        coef = 1 - 0.1 + 0.01
        assert rows[0]["theory_bound"] == pytest.approx(coef**2)
        assert rows[1]["theory_bound"] == pytest.approx(coef**4)

    def test_row_count_matches_grid(self):
        rows = sweep_table(
            Square(2, 2), 1, "dephasing", [0.05, 0.1, 0.2], [1, 2, 3, 4], "trunc_frobenius",
            1000, 0,
        )
        assert len(rows) == 12

    def test_empty_k_grid(self):
        assert sweep_table(Chain(2), 1, "dephasing", [0.1], [], "trunc_frobenius", 100, 0) == []

    def test_theory_coefficients(self):
        assert theory_contraction_sq("amplitude_damping", 0.3) == pytest.approx(1 - 0.3 + 0.09)
        assert theory_contraction_sq("dephasing", 0.3) == pytest.approx((1 + 0.16) / 2)
        assert theory_contraction_sq("depolarizing", 0.3) == pytest.approx(0.49)

    def test_rejects_unknown_kind_or_functional(self):
        with pytest.raises(ValueError):
            sweep_table(Chain(2), 1, "thermal", [0.1], [1], "trunc_frobenius", 100, 0)
        with pytest.raises(ValueError):
            sweep_table(Chain(2), 1, "dephasing", [0.1], [1], "variance", 100, 0)
