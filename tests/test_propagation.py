import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from paulipath import (
    Chain,
    Circuit,
    CliffordGate,
    PauliString,
    PauliSum,
    ProductState,
    QubitCountMismatch,
    TruncationConfig,
    backpropagate,
    build_hva,
    expectation,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
    sample_circuit,
    simulate_exact,
)
from paulipath.circuits import Layer, PauliRotation, RandomSingleQubitClifford
from paulipath.propagation import (
    EXACT,
    FrontierOverflowError,
    _Frontier,
    _join_words,
    _split_words,
)
from reference_walk import count_legal_paths, iter_legal_paths, reference_backpropagate

# "dict" is the reference dict walk in tests/reference_walk.py, "numpy" the engine
WALKS = {"dict": reference_backpropagate, "numpy": backpropagate}


def rx_damping_circuit(theta=0.7, gamma=0.2):
    return Circuit(
        1,
        (
            Layer(
                (PauliRotation(PauliString.from_label("X"), (0,), theta),),
                (make_amplitude_damping(gamma),),
            ),
        ),
    )


class TestTruncationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationConfig(path_weight_cutoff=0)
        with pytest.raises(ValueError):
            TruncationConfig(coeff_cutoff=-1.0)
        with pytest.raises(ValueError):
            TruncationConfig(xy_count_cutoff=0)

    def test_json_round_trip(self):
        cfg = TruncationConfig(30, 2**-23, 5, None)
        again = TruncationConfig.from_json_obj(cfg.to_json_obj())
        assert again == cfg


class TestBackpropagate:
    def test_identity_circuit_passthrough(self):
        obs = PauliSum.from_strings([("XZ", 0.4), ("IY", -0.3)])
        res = backpropagate(Circuit(2, ()), obs, TruncationConfig(path_weight_cutoff=5))
        assert res.terms.to_json_obj() == obs.to_json_obj()

    @pytest.mark.parametrize("engine", sorted(WALKS))
    def test_rx_damping_exact_terms(self, engine):
        theta, gamma = 0.7, 0.2
        res = WALKS[engine](rx_damping_circuit(theta, gamma), PauliSum.single("Z"))
        assert res.terms.coeff(PauliString.from_label("Z")) == pytest.approx(
            (1 - gamma) * math.cos(theta)
        )
        assert res.terms.coeff(PauliString.from_label("Y")) == pytest.approx(
            (1 - gamma) * math.sin(theta)
        )
        assert res.terms.coeff(PauliString.from_label("I")) == pytest.approx(gamma)

    def test_depolarizing_layers_scale_with_total_weight(self):
        p, layers_count = 0.1, 4
        c = Circuit(3, tuple(Layer((), (make_depolarizing(p),) * 3) for _ in range(layers_count)))
        res = backpropagate(c, PauliSum.single("ZIZ"))
        assert res.terms.to_json_obj() == [
            {"pauli": "ZIZ", "coeff": pytest.approx((1 - p) ** (layers_count * 2))}
        ]

    def test_expectation_examples(self):
        assert expectation(
            backpropagate(Circuit(1, ()), PauliSum.single("Z")), ProductState.zeros(1)
        ) == pytest.approx(1.0)
        theta, gamma = 0.7, 0.2
        got = expectation(
            backpropagate(rx_damping_circuit(theta, gamma), PauliSum.single("Z")),
            ProductState.zeros(1),
        )
        assert got == pytest.approx((1 - gamma) * math.cos(theta) + gamma)
        p, depth = 0.15, 5
        c = Circuit(2, tuple(Layer((), (make_depolarizing(p),) * 2) for _ in range(depth)))
        got = expectation(backpropagate(c, PauliSum.single("ZI")), ProductState.zeros(2))
        assert got == pytest.approx((1 - p) ** depth)

    def test_matches_oracle_on_random_circuits(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            circuit, _, n = helpers.random_noisy_circuit(rng)
            obs = helpers.random_observable(rng, n)
            state = helpers.random_product_state(rng, n)
            got = expectation(backpropagate(circuit, obs), state)
            want = simulate_exact(circuit, state, obs)
            assert got == pytest.approx(want, abs=1e-10)

    def test_matches_oracle_with_custom_channels(self):
        # shifted channels with folded rotations exercise dense adjoint rows
        from paulipath import make_custom
        from paulipath.channels import InvalidChannelError

        rng = np.random.default_rng(123)
        channels = []
        while len(channels) < 12:
            d = rng.uniform(-1, 1, 3)
            t = rng.uniform(-0.5, 0.5, 3)
            try:
                channels.append(make_custom(tuple(d), tuple(t)))
            except InvalidChannelError:
                continue
        for trial in range(12):
            n = int(rng.integers(1, 4))
            layers = []
            for _ in range(int(rng.integers(1, 4))):
                gates = [
                    PauliRotation(
                        PauliString.from_label(str(rng.choice(["X", "Y", "Z"]))),
                        (q,),
                        float(rng.uniform(0, 2 * np.pi)),
                    )
                    for q in range(n)
                ]
                noise = tuple(channels[rng.integers(len(channels))] for _ in range(n))
                layers.append(Layer(tuple(gates), noise))
            circuit = Circuit(n, tuple(layers))
            obs = helpers.random_observable(rng, n)
            state = helpers.random_product_state(rng, n)
            for walk in WALKS.values():
                got = expectation(walk(circuit, obs), state)
                assert got == pytest.approx(simulate_exact(circuit, state, obs), abs=1e-10)

    @pytest.mark.parametrize("engine", sorted(WALKS))
    def test_seed_terms_above_cutoff_are_dropped(self, engine):
        obs = PauliSum.from_strings([("ZZZ", 1.0), ("ZII", 0.5)])
        res = WALKS[engine](Circuit(3, ()), obs, TruncationConfig(path_weight_cutoff=2))
        assert res.terms.to_json_obj() == [{"pauli": "ZII", "coeff": 0.5}]
        assert res.stats.paths_discarded_by_weight == 1

    @pytest.mark.parametrize("engine", sorted(WALKS))
    def test_everything_truncated_yields_empty_result(self, engine):
        c = Circuit(
            2, (Layer((), (make_amplitude_damping(0.2),) * 2),) * 3
        )
        res = WALKS[engine](c, PauliSum.single("ZZ"), TruncationConfig(path_weight_cutoff=2))
        assert len(res.terms) == 0
        assert res.stats.surviving_path_count == 0
        assert expectation(res, ProductState.zeros(2)) == 0.0

    def test_engines_agree_with_truncation(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            circuit, _, n = helpers.random_noisy_circuit(rng)
            obs = helpers.random_observable(rng, n)
            trunc = TruncationConfig(
                path_weight_cutoff=int(rng.integers(2, 9)),
                coeff_cutoff=1e-3 if trial % 2 else 0.0,
                xy_count_cutoff=int(rng.integers(1, 4)) if trial % 3 == 0 else None,
                current_weight_cutoff=int(rng.integers(2, 5)) if trial % 5 == 0 else None,
            )
            ra = reference_backpropagate(circuit, obs, trunc)
            rb = backpropagate(circuit, obs, trunc)
            ta, tb = _weighted(ra), _weighted(rb)
            assert set(ta) == set(tb)
            for key in ta:
                assert ta[key] == pytest.approx(tb[key], abs=1e-12)
            assert ra.stats.surviving_path_count == rb.stats.surviving_path_count

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(12)
        circuit, _, n = helpers.random_noisy_circuit(rng, n_max=3, depth_max=4)
        obs = helpers.random_observable(rng, n)
        prev = None
        prev_terms: dict = {}
        for k in range(2, 9):
            res = backpropagate(circuit, obs, TruncationConfig(path_weight_cutoff=k))
            count = res.stats.surviving_path_count
            if prev is not None:
                assert count >= prev
            terms = _weighted(res)
            for key, coeff in prev_terms.items():
                assert terms.get(key, 0.0) == pytest.approx(coeff, abs=1e-12)
            prev, prev_terms = count, terms

    def test_errors(self):
        with pytest.raises(ValueError):
            backpropagate(Circuit(1, ()), PauliSum(1, []))
        with pytest.raises(QubitCountMismatch):
            backpropagate(Circuit(2, ()), PauliSum.single("Z"))

    def test_templates_rejected_at_entry(self):
        obs = PauliSum.single("ZI")
        angles = build_hva(Chain(2), make_amplitude_damping(0.1), 1)
        cliffords = Circuit(2, (Layer((RandomSingleQubitClifford(0),)),))
        resumed = backpropagate(sample_circuit(angles, 3), obs)
        for template in (angles, cliffords):
            for seed in (obs, resumed):
                with pytest.raises(ValueError, match="unresolved ensemble placeholders"):
                    backpropagate(template, seed)

    @pytest.mark.parametrize("engine", sorted(WALKS))
    def test_max_terms_guard(self, engine):
        circuit = sample_circuit(build_hva(Chain(4), make_amplitude_damping(0.05), 3), 8)
        with pytest.raises(FrontierOverflowError):
            WALKS[engine](circuit, PauliSum.single("ZIII"), max_terms=2)

    def test_engine_option(self):
        obs = PauliSum.single("Z")
        for engine in ("auto", "numpy"):
            res = backpropagate(rx_damping_circuit(), obs, engine=engine)
            assert res.stats.surviving_path_count == 3
        with pytest.raises(ValueError):
            backpropagate(rx_damping_circuit(), obs, engine="dict")


class TestAuxiliaryCutoffs:
    def test_xy_cutoff_blocks_transverse_growth(self):
        theta = 0.3
        layers = tuple(
            Layer(
                (PauliRotation(PauliString.from_label("X"), (0,), theta),),
                (make_amplitude_damping(0.1),),
            )
            for _ in range(3)
        )
        res = backpropagate(
            Circuit(1, layers),
            PauliSum.single("Z"),
            TruncationConfig(xy_count_cutoff=5),
        )
        res_tight = backpropagate(
            Circuit(1, layers),
            PauliSum.single("Z"),
            TruncationConfig(current_weight_cutoff=5),
        )
        assert res.stats.paths_discarded_by_xy == 0
        assert res_tight.stats.paths_discarded_by_current_weight == 0

        c2 = Circuit(
            2,
            (
                Layer(
                    (PauliRotation(PauliString.from_label("ZZ"), (0, 1), 0.4),),
                    (make_dephasing(0.1),) * 2,
                ),
            ),
        )
        res2 = backpropagate(c2, PauliSum.single("XI"), TruncationConfig(xy_count_cutoff=1))
        # the branch X(x)I -> Y(x)Z keeps xy-count 1; nothing dropped
        assert res2.stats.paths_discarded_by_xy == 0
        res3 = backpropagate(c2, PauliSum.single("XI"), TruncationConfig(current_weight_cutoff=1))
        assert res3.stats.paths_discarded_by_current_weight == 1
        assert len(res3.terms) == 1

    def test_coeff_cutoff(self):
        res = backpropagate(
            rx_damping_circuit(0.7, 0.001),
            PauliSum.single("Z"),
            TruncationConfig(coeff_cutoff=0.01),
        )
        # the identity branch carries coefficient 0.001 < cutoff
        assert res.terms.coeff(PauliString.from_label("I")) == 0.0
        assert res.stats.paths_discarded_by_coeff >= 1


class TestLegalPaths:
    def test_identity_circuit_single_path(self):
        assert count_legal_paths(Circuit(2, ()), PauliSum.single("ZI"), 3) == 1

    def test_rx_damping_three_paths(self):
        assert count_legal_paths(rx_damping_circuit(0.7, 0.2), PauliSum.single("Z"), 3) == 3

    def test_degenerate_angle_prunes_branch(self):
        assert count_legal_paths(
            rx_damping_circuit(math.pi / 2, 0.2), PauliSum.single("Z"), 3
        ) == 2

    def test_weight_replay(self):
        rng = np.random.default_rng(9)
        circuit, _, n = helpers.random_noisy_circuit(rng, n_max=3, depth_max=4)
        obs = helpers.random_observable(rng, n, terms=2)
        for path in iter_legal_paths(circuit, obs, 7):
            boundary_weight = sum(p.weight for p in path.boundaries[:-1])
            assert boundary_weight == path.weight

    def test_count_grows_with_cutoff(self):
        circuit = sample_circuit(build_hva(Chain(3), make_amplitude_damping(0.2), 1), 3)
        counts = [count_legal_paths(circuit, PauliSum.single("ZII"), k) for k in (2, 4, 6)]
        assert counts == sorted(counts)

    def test_merged_result_equals_path_amplitude_sum(self):
        # the merged frontier is exactly the amplitude sum over branch leaves
        rng = np.random.default_rng(31)
        for _ in range(8):
            circuit, _, n = helpers.random_noisy_circuit(rng, n_max=2, depth_max=3)
            obs = helpers.random_observable(rng, n, terms=2)
            k = int(rng.integers(3, 7))
            summed: dict = {}
            for path in iter_legal_paths(circuit, obs, k):
                p0 = path.boundaries[-1]
                summed[p0] = summed.get(p0, 0.0) + path.amplitude
            res = backpropagate(circuit, obs, TruncationConfig(path_weight_cutoff=k))
            for pauli in set(summed) | set(res.terms.terms):
                assert summed.get(pauli, 0.0) == pytest.approx(
                    res.terms.coeff(pauli), abs=1e-10
                )


class TestUnitalBranchlessness:
    def test_clifford_plus_diagonal_noise_never_splits(self):
        n = 3
        layers = []
        rng = np.random.default_rng(4)
        for _ in range(4):
            gates = [CliffordGate("H", (0,)), CliffordGate("CNOT", (1, 2))]
            noise = tuple(
                make_dephasing(float(rng.uniform(0, 0.5))) if q % 2 else make_depolarizing(0.3)
                for q in range(n)
            )
            layers.append(Layer(tuple(gates), noise))
        res = backpropagate(Circuit(n, tuple(layers)), PauliSum.single("XYZ"))
        assert res.stats.peak_term_count == 1
        assert res.stats.surviving_path_count == 1


class TestResultSurface:
    def test_weight_resolved_terms(self):
        res = backpropagate(
            rx_damping_circuit(), PauliSum.single("Z"), track_weights=True
        )
        assert set(res.w.tolist()) == {1}
        dropped = res.dropped_above(2)
        kept = res.kept_below(2)
        assert not dropped and len(kept) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_overlap_matches_per_term_reference(self, data):
        """The one overlap, for sums and results, against the per-term loop."""
        n, sites = data.draw(helpers.registers())
        state = data.draw(helpers.product_states(n, zeros=True))
        wrong = ProductState.zeros(n + 1)
        if data.draw(st.integers(0, 4)) == 0:
            empty = PauliSum(n)
            assert expectation(empty, state) == helpers.reference_expectation(empty, state) == 0.0
            with pytest.raises(QubitCountMismatch):
                expectation(empty, wrong)
            return
        obs = helpers.embed_sum(data.draw(helpers.observables(len(sites))), sites, n)
        circuit = helpers.embed_circuit(
            data.draw(helpers.noisy_circuits(len(sites), depth_max=2)), sites, n
        )
        res = backpropagate(circuit, obs, data.draw(helpers.truncations()))
        for got, terms in ((expectation(obs, state), obs), (expectation(res, state), res.terms)):
            assert got == pytest.approx(helpers.reference_expectation(terms, state), abs=1e-12)
        for arg in (obs, res):
            with pytest.raises(QubitCountMismatch):
                expectation(arg, wrong)


def _stat_totals(*results):
    keys = ("paths_discarded_by_weight", "paths_discarded_by_coeff",
            "paths_discarded_by_xy", "paths_discarded_by_current_weight")
    return {key: sum(getattr(r.stats, key) for r in results) for key in keys}


def _weighted(res):
    """(x mask, z mask, accumulated weight) -> coefficient, one entry per result row."""
    rows = zip(_join_words(res.x), _join_words(res.z), res.w.tolist(), res.c.tolist())
    return {(x, z, w): c for x, z, w, c in rows}


class TestResume:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_chained_equals_concatenated(self, data):
        n = data.draw(st.integers(1, 4))
        early = data.draw(helpers.noisy_circuits(n, final_layer=False))
        late = data.draw(helpers.noisy_circuits(n))
        obs = data.draw(helpers.observables(n))
        trunc = data.draw(helpers.truncations())
        track = data.draw(st.booleans())
        both = Circuit(n, early.layers + late.layers, late.final_layer)

        whole = backpropagate(both, obs, trunc, track)
        first = backpropagate(late, obs, trunc, track)
        chained = backpropagate(early, first, trunc)

        want, got = _weighted(whole), _weighted(chained)
        assert set(got) == set(want)
        for key, coeff in want.items():
            assert got[key] == pytest.approx(coeff, abs=1e-12)
        assert chained.stats.surviving_path_count == whole.stats.surviving_path_count
        assert _stat_totals(first, chained) == _stat_totals(whole)
        assert chained.crossed_noise == whole.crossed_noise

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_columnar_expectation_matches_pauli_sum(self, data):
        n = data.draw(st.integers(1, 4))
        circuit = data.draw(helpers.noisy_circuits(n))
        obs = data.draw(helpers.observables(n))
        trunc = data.draw(helpers.truncations())
        state = data.draw(helpers.product_states(n))
        res = backpropagate(circuit, obs, trunc)
        assert expectation(res, state) == pytest.approx(
            helpers.reference_expectation(res.terms, state), abs=1e-12
        )

    def test_columnar_expectation_beyond_one_word(self):
        rng = np.random.default_rng(3)
        n = 70
        layers = tuple(
            Layer(
                tuple(
                    PauliRotation(PauliString.from_label(g), (q,), float(rng.uniform(0, 6)))
                    for q in (0, 63, 64, 69)
                ),
                (make_dephasing(0.1),) * n,
            )
            for g in "XZ"
        )
        circuit = Circuit(n, layers)
        obs = PauliSum(n, [(PauliString(n, (1 << 69) | 1, (1 << 64) | (1 << 63)), 0.8)])
        state = helpers.random_product_state(rng, n)
        res = backpropagate(circuit, obs)
        assert res.x.dtype == res.z.dtype == np.uint64
        assert res.x.shape == res.z.shape == (2, len(res.c)) and len(res.c) > 1
        assert expectation(res, state) == pytest.approx(
            helpers.reference_expectation(res.terms, state), abs=1e-14
        )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_seed_with_other_truncation_rejected(self, data):
        n = data.draw(st.integers(1, 3))
        circuit = data.draw(helpers.noisy_circuits(n))
        obs = data.draw(helpers.observables(n))
        trunc = data.draw(helpers.truncations())
        other = data.draw(helpers.truncations().filter(lambda t: t != trunc))
        res = backpropagate(circuit, obs, trunc)
        with pytest.raises(ValueError):
            backpropagate(circuit, res, other)

    def test_seed_with_other_qubit_count_rejected(self):
        res = backpropagate(rx_damping_circuit(), PauliSum.single("Z"))
        with pytest.raises(QubitCountMismatch):
            backpropagate(Circuit(2, ()), res)

    def test_result_columns_read_only(self):
        res = backpropagate(rx_damping_circuit(), PauliSum.single("Z"))
        with pytest.raises(ValueError):
            res.c[0] = 1.0
        again = backpropagate(rx_damping_circuit(), res)
        assert again.stats.surviving_path_count == again.x.shape[1]


def _group_sum(coeffs: list) -> float:
    """The sum of one group's coefficients, added in the given order.

    numpy's segment sum associates differently from a Python loop, so the
    reference sums each group alone with the same ``reduceat`` the merge
    applies to its groups in place: the sums agree bit for bit exactly
    when the merge kept each group in input order.
    """
    return float(np.add.reduceat(np.array(coeffs), [0])[0])


class TestMerge:
    # at n = 32 a weight of 1 is one bit past the pack bound, and 0 exactly at it;
    # the top and bottom mask bits tell a lost or overlapping bit apart
    TOP = 1 << 31

    @settings(max_examples=300, deadline=None)
    @given(helpers.merge_inputs())
    @example((32, [(TOP, 0, 1), (0, 0, 1), (1, 0, 0)], [0.5, 0.25, 1.0]))
    @example((32, [(TOP, 0, 0), (0, 0, 0), (0, TOP, 0), (1, 0, 0)], [0.5, 0.25, 1.0, 2.0]))
    def test_merge_matches_dict_sum(self, case):
        n, keys, coeffs = case
        groups: dict = {}
        for key, coeff in zip(keys, coeffs):
            groups.setdefault(key, []).append(coeff)
        want = [(key, _group_sum(group)) for key, group in sorted(groups.items())]
        want = [(key, total) for key, total in want if total != 0.0]
        f = _Frontier(
            n,
            _split_words([x for x, _, _ in keys], n),
            _split_words([z for _, z, _ in keys], n),
            np.array([w for _, _, w in keys], dtype=np.int64),
            np.array(coeffs),
        )
        f.merge()
        assert f.x.shape == f.z.shape == ((n + 63) // 64, len(want))
        assert f.x.dtype == f.z.dtype == np.uint64 and f.w.dtype == np.int64
        assert f.merged_len == len(want)
        got = list(zip(_join_words(f.x), _join_words(f.z), f.w.tolist()))
        assert got == [key for key, _ in want]
        assert f.c.tolist() == [total for _, total in want]


def _assert_same_frontier(got, want):
    assert got.x.shape == want.x.shape == ((got.n + 63) // 64, len(want.c))
    assert got.x.dtype == got.z.dtype == np.uint64
    assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z)
    assert np.array_equal(got.w, want.w)
    np.testing.assert_allclose(got.c, want.c, rtol=0, atol=1e-12)
    assert got.stats.surviving_path_count == want.stats.surviving_path_count
    assert got.crossed_noise == want.crossed_noise


class TestAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_engine_matches_reference_walk(self, data):
        n, sites = data.draw(helpers.registers())
        k = len(sites)
        early = helpers.embed_circuit(
            data.draw(helpers.noisy_circuits(k, final_layer=False)), sites, n
        )
        late = helpers.embed_circuit(data.draw(helpers.noisy_circuits(k)), sites, n)
        obs = helpers.embed_sum(data.draw(helpers.observables(k)), sites, n)
        trunc = data.draw(helpers.truncations())
        track = data.draw(st.booleans())
        if data.draw(st.booleans(), label="resume"):
            got = backpropagate(early, backpropagate(late, obs, trunc, track), trunc)
            want = reference_backpropagate(
                early, reference_backpropagate(late, obs, trunc, track), trunc
            )
        else:
            both = Circuit(n, early.layers + late.layers, late.final_layer)
            got = backpropagate(both, obs, trunc, track)
            want = reference_backpropagate(both, obs, trunc, track)
        _assert_same_frontier(got, want)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_kmax_run_contains_smaller_cutoff_runs(self, data):
        n, sites = data.draw(helpers.registers())
        circuit = helpers.embed_circuit(data.draw(helpers.noisy_circuits(len(sites))), sites, n)
        obs = helpers.embed_sum(data.draw(helpers.observables(len(sites))), sites, n)
        base = data.draw(helpers.truncations())
        k = data.draw(st.integers(1, 8))
        k_max = data.draw(st.integers(k, 10))
        big = backpropagate(circuit, obs, dataclasses.replace(base, path_weight_cutoff=k_max))
        small = backpropagate(circuit, obs, dataclasses.replace(base, path_weight_cutoff=k))
        below = big.w < k
        assert np.array_equal(big.x[:, below], small.x)
        assert np.array_equal(big.z[:, below], small.z)
        assert np.array_equal(big.w[below], small.w)
        np.testing.assert_allclose(big.c[below], small.c, rtol=0, atol=1e-12)
        kept = big.kept_below(k)
        assert set(kept.terms) == set(small.terms.terms)
        for pauli, coeff in small.terms.items():
            assert kept.coeff(pauli) == pytest.approx(coeff, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_exact_mode_matches_dense_oracle(self, data):
        n = data.draw(st.integers(1, 4))
        circuit = data.draw(helpers.noisy_circuits(n))
        obs = data.draw(helpers.observables(n))
        state = data.draw(helpers.product_states(n))
        got = expectation(backpropagate(circuit, obs), state)
        assert got == pytest.approx(simulate_exact(circuit, state, obs), abs=1e-10)
