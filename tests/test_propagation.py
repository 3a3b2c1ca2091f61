import dataclasses
import math
import tracemalloc

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
    Square,
    TruncationConfig,
    backpropagate,
    build_hva,
    build_trotter_tfim,
    expectation,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
    sample_circuit,
    simulate_exact,
)
from paulipath.circuits import (
    _NAMED_UNITARIES,
    Layer,
    PauliRotation,
    RandomSingleQubitClifford,
    clifford_forward_ptm,
    clifford_group_1q,
)
from paulipath.cli import _resolve_trunc
from paulipath.pauli import BITS_TO_CODE
from paulipath import propagation
from paulipath.propagation import (
    EXACT,
    BackpropResult,
    BackpropStats,
    FrontierOverflowError,
    _compile,
    _Frontier,
    _local_step,
)
from mc_reference_walk import noise_tables
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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("path_weight_cutoff", 2.5),  # would fail inside backpropagate
            ("path_weight_cutoff", True),  # would run as k=1
            ("xy_count_cutoff", 1.5),
            ("coeff_cutoff", math.nan),  # would turn the coefficient filter off
        ],
    )
    def test_rejects_a_bad_cutoff_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            TruncationConfig(**{field: value})

    def test_stores_numpy_integers_as_ints(self):
        trunc = TruncationConfig(np.int64(5), np.float32(0.5), np.int32(3))
        assert trunc == TruncationConfig(5, 0.5, 3)
        assert type(trunc.path_weight_cutoff) is int and type(trunc.coeff_cutoff) is float

    def test_json_round_trip(self):
        obj = {"k": 30, "coeff_cutoff": 2**-23, "xy_cutoff": 5, "current_weight_cutoff": None}
        assert _resolve_trunc({"truncation": obj}) == TruncationConfig(30, 2**-23, 5, None)
        assert _resolve_trunc({"truncation": {"current_weight_cutoff": 4}}) == TruncationConfig(
            current_weight_cutoff=4
        )
        assert _resolve_trunc({"truncation": {}}) == EXACT


class TestBackpropagate:
    def test_identity_circuit_passthrough(self):
        obs = PauliSum.from_strings([("XZ", 0.4), ("IY", -0.3)])
        res = backpropagate(Circuit(2, ()), obs, TruncationConfig(path_weight_cutoff=5))
        assert helpers.pauli_sum_json(helpers.result_terms(res)) == helpers.pauli_sum_json(obs)

    @pytest.mark.parametrize("engine", sorted(WALKS))
    def test_rx_damping_exact_terms(self, engine):
        theta, gamma = 0.7, 0.2
        res = WALKS[engine](rx_damping_circuit(theta, gamma), PauliSum.single("Z"))
        terms = helpers.result_terms(res)
        assert helpers.coeff(terms, PauliString.from_label("Z")) == pytest.approx(
            (1 - gamma) * math.cos(theta)
        )
        assert helpers.coeff(terms, PauliString.from_label("Y")) == pytest.approx(
            (1 - gamma) * math.sin(theta)
        )
        assert helpers.coeff(terms, PauliString.from_label("I")) == pytest.approx(gamma)

    def test_depolarizing_layers_scale_with_total_weight(self):
        p, layers_count = 0.1, 4
        c = Circuit(3, tuple(Layer((), (make_depolarizing(p),) * 3) for _ in range(layers_count)))
        res = backpropagate(c, PauliSum.single("ZIZ"))
        assert helpers.pauli_sum_json(helpers.result_terms(res)) == [
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
        from paulipath.channels import InvalidChannelError, NormalFormChannel

        rng = np.random.default_rng(123)
        channels = []
        while len(channels) < 12:
            d = rng.uniform(-1, 1, 3)
            t = rng.uniform(-0.5, 0.5, 3)
            try:
                channels.append(NormalFormChannel(tuple(d), tuple(t)))
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
        assert helpers.pauli_sum_json(helpers.result_terms(res)) == [{"pauli": "ZII", "coeff": 0.5}]
        assert res.stats.paths_discarded_by_weight == 1

    @pytest.mark.parametrize("engine", sorted(WALKS))
    def test_everything_truncated_yields_empty_result(self, engine):
        c = Circuit(
            2, (Layer((), (make_amplitude_damping(0.2),) * 2),) * 3
        )
        res = WALKS[engine](c, PauliSum.single("ZZ"), TruncationConfig(path_weight_cutoff=2))
        assert len(helpers.result_terms(res)) == 0
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

    @pytest.mark.parametrize("max_terms", [0, -1, 2.5, True])
    def test_max_terms_must_be_a_positive_integer(self, max_terms):
        with pytest.raises(ValueError, match="max_terms"):
            backpropagate(rx_damping_circuit(), PauliSum.single("Z"), max_terms=max_terms)

    def test_max_terms_checks_the_seed_at_entry(self):
        # the seed ends a layer at entry, so even an empty circuit checks its count
        seed = PauliSum.from_strings([("Z", 1.0), ("X", 0.5)])
        with pytest.raises(FrontierOverflowError):
            backpropagate(Circuit(1, ()), seed, max_terms=1)
        assert len(backpropagate(Circuit(1, ()), seed, max_terms=np.int64(2)).c) == 2

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
        assert len(helpers.result_terms(res3)) == 1

    def test_coeff_cutoff(self):
        res = backpropagate(
            rx_damping_circuit(0.7, 0.001),
            PauliSum.single("Z"),
            TruncationConfig(coeff_cutoff=0.01),
        )
        # the identity branch carries coefficient 0.001 < cutoff
        assert helpers.coeff(helpers.result_terms(res), PauliString.from_label("I")) == 0.0
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
            terms = dict(helpers.result_terms(res).items())
            for pauli in set(summed) | set(terms):
                assert summed.get(pauli, 0.0) == pytest.approx(terms.get(pauli, 0.0), abs=1e-10)


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
        res = backpropagate(rx_damping_circuit(), PauliSum.single("Z"), TruncationConfig(2))
        assert set(res.w.tolist()) == {1}
        kept = res.kept_below(2)
        assert len(helpers.result_terms(kept)) == 3 and kept.stats.surviving_path_count == 3
        empty = res.kept_below(1)
        assert len(empty.c) == 0 and empty.stats.surviving_path_count == 0
        assert empty.trunc == TruncationConfig(1)

    def test_kept_below_needs_a_cutoff_at_least_k(self):
        exact = backpropagate(rx_damping_circuit(), PauliSum.single("Z"))
        assert not exact.w.any()
        with pytest.raises(ValueError):
            exact.kept_below(1)
        res = backpropagate(rx_damping_circuit(), PauliSum.single("Z"), TruncationConfig(2))
        with pytest.raises(ValueError):
            res.kept_below(3)

    @pytest.mark.parametrize("k", ["1", 1.5, True, 0])
    def test_kept_below_needs_a_positive_integer(self, k):
        res = backpropagate(rx_damping_circuit(), PauliSum.single("Z"), TruncationConfig(2))
        with pytest.raises(ValueError, match="k must be a positive integer"):
            res.kept_below(k)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_overlap_matches_per_term_reference(self, data):
        """The one overlap, for sums and results, against the per-term loop."""
        trunc = data.draw(helpers.truncations())
        n, sites = data.draw(helpers.registers(trunc.path_weight_cutoff))
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
        res = backpropagate(circuit, obs, trunc)
        view = helpers.result_terms(res)
        for got, terms in ((expectation(obs, state), obs), (expectation(res, state), view)):
            assert got == pytest.approx(helpers.reference_expectation(terms, state), abs=1e-12)
        for arg in (obs, res):
            with pytest.raises(QubitCountMismatch):
                expectation(arg, wrong)


class TestPrunedOverlap:
    """``expectation`` drops the rows whose overlap is exactly 0 and sums the rest bit for bit
    as the full product over every row does."""

    @staticmethod
    def full_product(res: BackpropResult, state: ProductState) -> float:
        """One lookup per qubit in (1, r_x, r_z, r_y) by x_q | z_q << 1 on the masks, every row."""
        vals, (x, z) = res.c.copy(), helpers.result_masks(res)
        table = np.array([(1.0, rx, rz, ry) for rx, ry, rz in state.bloch])
        for q in range(state.n):
            j, s = q >> 6, np.uint64(q & 63)
            code = (x[j] >> s) & 1 | ((z[j] >> s) & 1) << 1
            vals *= table[q][code.view(np.int64)]
        return math.fsum(vals.tolist())

    @staticmethod
    def result(n: int, x: np.ndarray, z: np.ndarray, c: np.ndarray, wb=0, w=None) -> BackpropResult:
        """Word-major x/z masks and weights w (0 if None) packed with wb weight bits."""
        w = np.zeros(len(c), dtype=np.int64) if w is None else w
        keys = zip(helpers.join_words(x), helpers.join_words(z), w.tolist())
        trunc = TruncationConfig(1 << wb) if wb else EXACT  # a cutoff above every weight
        return BackpropResult(n, wb, helpers.packed_rows(n, wb, keys), c, BackpropStats(), trunc, False)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_full_product(self, data):
        n = data.draw(st.sampled_from([1, 2, 5, 16, 63, 64, 65, 130]))
        # weight bits shift the x field across packed word boundaries
        wb = data.draw(st.integers(0, 13)) if n in (5, 63, 64, 65, 130) else 0
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a qubit is dead (r_x = r_y = 0: X and Y overlap 0), lacks one of r_x, r_y, or has both
        kind = st.sampled_from(["dead", "no x", "no y", "full"])
        kinds = data.draw(st.lists(kind, min_size=n, max_size=n))
        bloch = rng.uniform(-0.5, 0.5, (n, 3))
        bloch[[kind in ("dead", "no x") for kind in kinds], 0] = 0.0
        bloch[[kind in ("dead", "no y") for kind in kinds], 1] = 0.0
        state = ProductState.from_vectors([tuple(map(float, r)) for r in bloch])
        m, words = int(rng.integers(0, 200)), (n + 63) // 64
        top = np.array([[(1 << min(64, n - 64 * j)) - 1] for j in range(words)], dtype=np.uint64)
        # sparse x (about one bit in eight), so that some rows avoid every dead qubit
        x = rng.integers(0, 2**64, (3, words, m), dtype=np.uint64)
        x = x[0] & x[1] & x[2] & top
        z = rng.integers(0, 2**64, (words, m), dtype=np.uint64) & top
        c = rng.standard_normal(m) * rng.choice([1e-300, 1.0, 1e300], m)
        res = self.result(n, x, z, c, wb, rng.integers(0, 1 << wb, m))
        assert all(map(np.array_equal, helpers.result_masks(res), (x, z)))
        assert expectation(res, state).hex() == self.full_product(res, state).hex()

    @pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
    def test_an_infinite_coefficient_on_a_zero_overlap_gives_nan(self):
        # X on qubit 0 of |0>: the overlap is 0, but inf * 0 must reach the sum
        x, z = np.array([[1, 0, 2]], dtype=np.uint64), np.array([[0, 1, 2]], dtype=np.uint64)
        state = ProductState.zeros(2)
        for c in ([math.inf, 0.5, 1.0], [-math.inf, 0.5, 1.0], [math.nan, 0.5, 1.0]):
            res = self.result(2, x, z, np.array(c))
            assert math.isnan(self.full_product(res, state))
            assert math.isnan(expectation(res, state))
        res = self.result(2, x, z, np.array([1e308, 0.5, 1.0]))
        assert expectation(res, state) == self.full_product(res, state) == 0.5


def _stat_totals(*results):
    keys = ("paths_discarded_by_weight", "paths_discarded_by_coeff",
            "paths_discarded_by_xy", "paths_discarded_by_current_weight")
    return {key: sum(getattr(r.stats, key) for r in results) for key in keys}


def _weighted(res):
    """(x mask, z mask, accumulated weight) -> coefficient, one entry per result row."""
    rows = zip(*map(helpers.join_words, helpers.result_masks(res)), res.w.tolist(), res.c.tolist())
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
        both = Circuit(n, early.layers + late.layers, late.final_layer)

        whole = backpropagate(both, obs, trunc)
        first = backpropagate(late, obs, trunc)
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
            helpers.reference_expectation(helpers.result_terms(res), state), abs=1e-12
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
        x, z = helpers.result_masks(res)
        assert x.dtype == z.dtype == np.uint64
        assert x.shape == z.shape == (2, len(res.c)) and len(res.c) > 1
        assert expectation(res, state) == pytest.approx(
            helpers.reference_expectation(helpers.result_terms(res), state), abs=1e-14
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

    def test_seed_with_a_narrower_weight_field_rejected(self):
        # a boundary adds up to 3 to weights below 8, which one weight bit cannot hold
        trunc = TruncationConfig(8)
        circuit = Circuit(3, (Layer((), (make_amplitude_damping(0.1),) * 3),) * 3)

        def seed(wb):
            rows = helpers.packed_rows(3, wb, [(0, 0b111, 0)])
            return BackpropResult(3, wb, rows, np.array([1.0]), BackpropStats(), trunc, True)

        wide = seed(helpers.packed_weight_bits(3, 8))
        want = reference_backpropagate(circuit, wide, trunc)
        _assert_same_frontier(backpropagate(circuit, wide, trunc), want)
        with pytest.raises(ValueError, match="weight bits"):
            backpropagate(circuit, seed(1), trunc)

    def test_seed_with_other_qubit_count_rejected(self):
        res = backpropagate(rx_damping_circuit(), PauliSum.single("Z"))
        with pytest.raises(QubitCountMismatch):
            backpropagate(Circuit(2, ()), res)

    def test_result_columns_read_only(self):
        res = backpropagate(rx_damping_circuit(), PauliSum.single("Z"))
        with pytest.raises(ValueError):
            res.c[0] = 1.0
        again = backpropagate(rx_damping_circuit(), res)
        assert again.stats.surviving_path_count == again.p.shape[1]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_resume_over_an_empty_circuit_keeps_the_frontier(self, data):
        # a result and its slice, whose weight field is its run's, come back bit for bit
        trunc = data.draw(helpers.truncations())
        n, sites = data.draw(helpers.registers(trunc.path_weight_cutoff))
        circuit = helpers.embed_circuit(data.draw(helpers.noisy_circuits(len(sites))), sites, n)
        obs = helpers.embed_sum(data.draw(helpers.observables(len(sites))), sites, n)
        res = backpropagate(circuit, obs, trunc)
        seeds = [res]
        if trunc.path_weight_cutoff is not None:
            seeds.append(res.kept_below(data.draw(st.integers(1, trunc.path_weight_cutoff))))
        for seed in seeds:
            again = backpropagate(Circuit(n, ()), seed, seed.trunc)
            for column in ("p", "w", "c"):
                got, want = getattr(again, column), getattr(seed, column)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert again.wb == seed.wb and again.crossed_noise == seed.crossed_noise

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_resume_across_a_packed_width(self, data):
        # at n = 61 a cutoff of 3 packs rows into 128 bits (two words) and one
        # of 4 into 129 (three): the k = 4 run, cut to k = 3, resumes on two words.
        # The sites straddle packed word boundaries of both widths: 57/58 in
        # the z field of two words, 56/57 in the z field and 59/60 in the x field of three
        n, sites = 61, (56, 57, 58, 59, 60)
        assert [2 * n + helpers.packed_weight_bits(n, k) for k in (3, 4)] == [128, 129]
        late = helpers.embed_circuit(data.draw(helpers.noisy_circuits(5)), sites, n)
        early = helpers.embed_circuit(
            data.draw(helpers.noisy_circuits(5, final_layer=False)), sites, n
        )
        obs = helpers.embed_sum(data.draw(helpers.observables(5)), sites, n)
        base = data.draw(st.one_of(st.just(EXACT), helpers.truncations()))
        small = dataclasses.replace(base, path_weight_cutoff=3)
        big = backpropagate(late, obs, dataclasses.replace(base, path_weight_cutoff=4))
        got = backpropagate(early, big.kept_below(3), small)
        want = reference_backpropagate(early, reference_backpropagate(late, obs, small), small)
        _assert_same_frontier(got, want)


def _group_sum(coeffs: list) -> float:
    """The sum of one group's coefficients, added in the given order.

    numpy's segment sum associates differently from a Python loop, so the
    reference sums each group alone with the same ``reduceat`` the merge
    applies to its groups in place: the sums agree bit for bit exactly
    when the merge kept each group in input order.
    """
    return float(np.add.reduceat(np.array(coeffs), [0])[0])


class TestMerge:
    # at n = 32 a weight field of one bit spills the top x bit into a second
    # word, and none fills one word exactly; the top and bottom mask bits tell
    # a lost or overlapping bit apart
    TOP = 1 << 31

    @settings(max_examples=300, deadline=None)
    @given(helpers.merge_inputs())
    @example((32, 1, [(TOP, 0, 1), (0, 0, 1), (1, 0, 0)], [0.5, 0.25, 1.0]))
    @example((32, 0, [(TOP, 0, 0), (0, 0, 0), (0, TOP, 0), (1, 0, 0)], [0.5, 0.25, 1.0, 2.0]))
    # the row index packed in: 2n + wb + bits(m - 1) = 58 + 3 + bits(6 - 1) = 64,
    # the top x bit in bit 63
    @example((29, 3, [(1 << 28, 0, 7), (0, 0, 1), (1, 1 << 28, 7), (1 << 28, 0, 7), (0, 0, 1),
                      (1, 0, 0)], [0.5, 0.25, 1.0, -0.5, 2.0, 1.5]))
    # and 62 + 0 + bits(5 - 1) = 65, one past it
    @example((31, 0, [(1 << 30, 0, 0), (0, 1 << 30, 0), (1, 0, 0), (1 << 30, 0, 0), (0, 0, 0)],
              [0.5, 0.25, 1.0, 0.125, 2.0]))
    # an empty frontier and a single row: no gather block, and one short one
    @example((3, 2, [], []))
    @example((3, 2, [(5, 2, 3)], [0.5]))
    def test_merge_matches_dict_sum(self, case):
        n, wb, keys, coeffs = case
        groups: dict = {}
        for key, coeff in zip(keys, coeffs):
            groups.setdefault(key, []).append(coeff)
        want = [(key, _group_sum(group)) for key, group in sorted(groups.items())]
        want = [(key, total) for key, total in want if total != 0.0]
        # gather blocks of 1 and 3 rows put block edges inside and between groups
        for block in (1, 3, propagation._GATHER_BLOCK):
            f = _Frontier(n, wb, helpers.packed_rows(n, wb, keys), np.array(coeffs))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(propagation, "_GATHER_BLOCK", block)
                f.merge()
            assert f.p.shape == ((2 * n + wb + 63) // 64, len(want)) and f.p.dtype == np.uint64
            assert f.merged_len == len(want)
            # the merged rows read through a result's columns
            res = BackpropResult(n, wb, f.p, f.c, BackpropStats(), EXACT, False)
            (x, z), w = helpers.result_masks(res), res.w
            assert x.shape == z.shape == ((n + 63) // 64, len(want)) and w.dtype == np.int64
            got = list(zip(helpers.join_words(x), helpers.join_words(z), w.tolist()))
            assert got == [key for key, _ in want]
            assert f.c.tolist() == [total for _, total in want]


def _traced_peak(build, run) -> int:
    """Bytes ``run(build())`` allocates at its peak above the traced state ``build()`` leaves.

    Tracing starts before ``build``, so the columns a kernel frees count as freed.
    """
    tracemalloc.start()
    try:
        obj = build()
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(obj)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Traced peaks above the entry state, in m-row 8-byte columns.

    The rotation and the ``lexsort`` merge stay under three, the one-word
    merge under two plus one gather block (the gathered coefficients or the
    row indices, next to the key and the coefficients it enters with).  The
    frontier owns its columns (the builders keep no reference to them), so
    a merge that drops ``p`` and ``c`` gives their bytes back.  Rows are drawn
    from m / 4 keys, so most repeat.
    """

    M = 1 << 18
    COLUMN = 8 * M

    def frontier(self, n: int, wb: int, seed: int = 5) -> _Frontier:
        rng = np.random.default_rng(seed)
        bits = 2 * n + wb  # of a packed row, word 0 holding the top bits % 64 (or 64) of them
        pool = rng.integers(0, 2**64, size=((bits + 63) // 64, self.M // 4), dtype=np.uint64)
        pool[0] &= np.uint64((1 << ((bits - 1) % 64 + 1)) - 1)
        # np.take keeps the rows C-contiguous, as the engine's are
        p = np.take(pool, rng.integers(0, self.M // 4, size=self.M), axis=1)
        return _Frontier(n, wb, p, rng.standard_normal(self.M))

    def test_one_word_merge(self):
        n, wb = 16, 5
        assert 2 * n + wb + (self.M - 1).bit_length() <= 64  # the one-word sort
        peak = _traced_peak(lambda: self.frontier(n, wb), _Frontier.merge)
        assert peak < 2 * self.COLUMN + 8 * propagation._GATHER_BLOCK

    def test_lexsort_merge(self):
        n, wb = 40, 5
        f = self.frontier(n, wb)
        assert len(f.p) == 2  # W' = 2: lexsort
        assert _traced_peak(lambda: self.frontier(n, wb), _Frontier.merge) < 3 * self.COLUMN

    def test_rotation(self):
        n, wb = 16, 5
        gate = PauliRotation(PauliString.from_label("XYZ"), (2, 7, 13), 0.3)
        (step,) = [s for s in _compile(Circuit(n, (Layer((gate,)),))) if s[0] == "rot"]
        args = propagation._packed(step, n, wb)
        branch = []
        peak = _traced_peak(
            lambda: self.frontier(n, wb), lambda f: branch.append(propagation._np_rotation(f, *args))
        )
        (pa,), (ca,) = branch[0]
        assert 0.45 * self.M < len(ca) < 0.55 * self.M  # about half the rows anticommute
        assert peak < 3 * self.COLUMN


def _assert_same_frontier(got, want):
    (got_x, got_z), (want_x, want_z) = helpers.result_masks(got), helpers.result_masks(want)
    assert got_x.shape == want_x.shape == ((got.n + 63) // 64, len(want.c))
    assert got_x.dtype == got_z.dtype == np.uint64
    assert np.array_equal(got_x, want_x) and np.array_equal(got_z, want_z)
    assert np.array_equal(got.w, want.w)
    np.testing.assert_allclose(got.c, want.c, rtol=0, atol=1e-12)
    assert got.stats.surviving_path_count == want.stats.surviving_path_count
    assert got.crossed_noise == want.crossed_noise


def _skeleton(steps) -> list:
    """A compiled program's markers (noise steps whole), each with the steps since the last one."""
    out, count = [], 0
    for step in steps:
        if step[0] in ("boundary", "noise", "layer_end"):
            out.append((*step, count))
            count = 0
        else:
            count += 1
    return out


def _unit_skeleton(ops) -> list:
    """``_skeleton`` of the unit-form op list: one step per gate, and the noise ops as they are."""
    return [("layer_end", len(op[1].gates)) if op[0] == "layer" else (*op, 0) for op in ops]


class TestBackwardOps:
    """The compiled program walks the circuit as the unit form does, marker for marker."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_circuits_match_unit_form(self, data):
        n = data.draw(st.integers(1, 4))
        circuit = data.draw(
            st.one_of(helpers.noisy_circuits(n, depth_max=6), helpers.templates(n, depth_max=6))
        )
        crossed = data.draw(st.booleans())
        want = _unit_skeleton(helpers.backward_ops_by_units(circuit, crossed))
        assert _skeleton(_compile(circuit, crossed)) == want

    @pytest.mark.parametrize("crossed", [False, True])
    def test_builders_match_unit_form(self, crossed):
        ch = make_amplitude_damping(0.1)
        for circuit in (
            build_hva(Square(2, 3), ch, 2),
            build_hva(Chain(4, periodic=True), ch, 3, noise_placement="per_block"),
            build_hva(Chain(3), None, 1),
            build_trotter_tfim(Square(2, 2, periodic=True), 1.0, 0.5, 0.1, 2, ch),
            build_trotter_tfim(Chain(5), 1.0, 0.5, 0.1, 3, ch, "per_step"),
        ):
            got = _skeleton(_compile(circuit, crossed))
            assert got == _unit_skeleton(helpers.backward_ops_by_units(circuit, crossed))
            assert [m[0] for m in got].count("noise") == helpers.noisy_layer_count(circuit)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_rotation_reads_each_qubit_of_its_support(self, data):
        # a generator covers a qubit and is not the identity there, so the
        # reads ``_packed`` makes of its masks are never empty (``_np_rotation``
        # relies on it)
        support = tuple(
            data.draw(
                st.lists(st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, 129]),
                         min_size=1, max_size=3, unique=True)
            )
        )
        label = "".join(data.draw(st.sampled_from("XYZ")) for _ in support)
        angle = data.draw(st.one_of(st.none(), helpers.ANGLES))
        gate = PauliRotation(PauliString.from_label(label), support, angle)
        rot = [step for step in _compile(Circuit(130, (Layer((gate,)),))) if step[0] == "rot"]
        ((_, gx, gz, _),) = rot
        assert gx | gz == sum(1 << q for q in support)


def _check_against_reference(data):
    """The engine against the reference walk on a drawn circuit, whole or resumed."""
    trunc = data.draw(helpers.truncations())
    n, sites = data.draw(helpers.registers(trunc.path_weight_cutoff))
    k = len(sites)
    early = helpers.embed_circuit(data.draw(helpers.noisy_circuits(k, final_layer=False)), sites, n)
    late = helpers.embed_circuit(data.draw(helpers.noisy_circuits(k)), sites, n)
    obs = helpers.embed_sum(data.draw(helpers.observables(k)), sites, n)
    if data.draw(st.booleans(), label="resume"):
        got = backpropagate(early, backpropagate(late, obs, trunc), trunc)
        want = reference_backpropagate(early, reference_backpropagate(late, obs, trunc), trunc)
    else:
        both = Circuit(n, early.layers + late.layers, late.final_layer)
        got = backpropagate(both, obs, trunc)
        want = reference_backpropagate(both, obs, trunc)
    _assert_same_frontier(got, want)
    # bit for bit: the two walks merge at the same points
    assert np.array_equal(got.c, want.c) and got.stats == want.stats


@st.composite
def long_rotation_circuits(draw, k: int) -> Circuit:
    """1-4 layers on k qubits, each one rotation on 1 to k of them, in drawn order, and a
    noise round or none."""
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.permutations(range(k)))[: draw(st.integers(1, k))]
        label = "".join(draw(st.sampled_from("XYZ")) for _ in support)
        gate = PauliRotation(PauliString.from_label(label), tuple(support), draw(helpers.ANGLES))
        layers.append(Layer((gate,), draw(helpers.noise_rounds(k))))
    return Circuit(k, tuple(layers))


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_long_generators_match_reference_walk(self, data):
        # supports of up to 9 sites take up to three sign groups (``_packed``);
        # n = 130 packs a row in 5 words, n <= 16 in one
        n = data.draw(st.sampled_from([130, *range(1, 17)]))
        pool = (0, 1, 62, 63, 64, 65, 127, 128, 129) if n == 130 else range(n)
        sites = tuple(data.draw(st.permutations(pool))[: data.draw(st.integers(1, min(9, n)))])
        trunc = data.draw(helpers.truncations())
        circuit = helpers.embed_circuit(data.draw(long_rotation_circuits(len(sites))), sites, n)
        obs = helpers.embed_sum(data.draw(helpers.observables(len(sites))), sites, n)
        got = backpropagate(circuit, obs, trunc)
        want = reference_backpropagate(circuit, obs, trunc)
        _assert_same_frontier(got, want)
        assert np.array_equal(got.c, want.c) and got.stats == want.stats

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_engine_matches_reference_walk(self, data):
        _check_against_reference(data)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_engine_matches_reference_walk_merging_mid_layer(self, data):
        # at a merge floor of 1 a frontier merges once it outgrows 4x its
        # last merge, so both walks merge inside layers and noise rounds too
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "_MERGE_FLOOR", 1)
            _check_against_reference(data)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_kmax_run_contains_smaller_cutoff_runs(self, data):
        k = data.draw(st.integers(1, 8))
        k_max = data.draw(st.integers(k, 10))
        n, sites = data.draw(helpers.registers(k_max))
        late = helpers.embed_circuit(data.draw(helpers.noisy_circuits(len(sites))), sites, n)
        early = helpers.embed_circuit(
            data.draw(helpers.noisy_circuits(len(sites), final_layer=False)), sites, n
        )
        obs = helpers.embed_sum(data.draw(helpers.observables(len(sites))), sites, n)
        # weight-only (EXACT) or with auxiliary cutoffs too
        base = data.draw(st.one_of(st.just(EXACT), helpers.truncations()))
        big = backpropagate(late, obs, dataclasses.replace(base, path_weight_cutoff=k_max))
        small = backpropagate(late, obs, dataclasses.replace(base, path_weight_cutoff=k))
        kept = big.kept_below(k)
        _assert_same_frontier(kept, small)
        assert kept.trunc == small.trunc
        assert not kept.c.flags.writeable
        # the slice seeds a further walk as the run at k does
        _assert_same_frontier(
            backpropagate(early, kept, small.trunc), backpropagate(early, small, small.trunc)
        )

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_exact_mode_matches_dense_oracle(self, data):
        n = data.draw(st.integers(1, 4))
        circuit = data.draw(helpers.noisy_circuits(n))
        obs = data.draw(helpers.observables(n))
        state = data.draw(helpers.product_states(n))
        got = expectation(backpropagate(circuit, obs), state)
        assert got == pytest.approx(simulate_exact(circuit, state, obs), abs=1e-10)


@st.composite
def light_and_heavy_sums(draw, n: int) -> PauliSum:
    """2-6 terms of 0-9 letters each on qubits at both ends of the register and of its mask words."""
    pool = [q for q in (0, 1, 2, 62, 63, 64, 65, 127, 128, 129) if q < n]
    letters = st.lists(st.tuples(st.sampled_from(pool), st.sampled_from("XYZ")), max_size=9)
    coeffs = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)
    terms = []
    for sites, c in draw(st.lists(st.tuples(letters, coeffs), min_size=2, max_size=6)):
        codes = [0] * n
        for q, letter in sites:
            codes[q] = "IXYZ".index(letter)
        terms.append((helpers.pauli_from_codes(codes), c))
    return PauliSum(n, terms)


class TestSeedEntry:
    """A fresh seed runs a weight boundary and a layer end before the circuit's first step."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_seed_over_an_empty_circuit(self, data):
        n = data.draw(st.sampled_from([3, 64, 130]))
        obs = data.draw(light_and_heavy_sums(n))
        trunc = data.draw(helpers.truncations())
        k = trunc.path_weight_cutoff
        res = backpropagate(Circuit(n, ()), obs, trunc)
        rows = helpers.join_words(res.p[::-1])  # word 0 of a packed row is its top word
        assert rows == sorted(set(rows))
        # heavy terms go at the boundary, before an auxiliary cutoff can count them
        weights = {(p.x, p.z): p.weight for p, _ in obs.items()}
        heavy = sum(k is not None and w >= k for w in weights.values())
        assert res.stats.paths_discarded_by_weight == heavy
        aux = (res.stats.paths_discarded_by_coeff + res.stats.paths_discarded_by_xy
               + res.stats.paths_discarded_by_current_weight)
        assert aux + len(res.c) == len(obs) - heavy
        for x, z, w in zip(*map(helpers.join_words, helpers.result_masks(res)), res.w.tolist()):
            assert k is None or weights[x, z] < k
            assert w == (weights[x, z] if k is not None else 0)
        assert res.stats.peak_term_count == res.stats.surviving_path_count == len(res.c)
        want = reference_backpropagate(Circuit(n, ()), obs, trunc)
        _assert_same_frontier(res, want)
        assert np.array_equal(res.c, want.c) and res.stats == want.stats


def _run_slots(step) -> tuple[np.ndarray, list]:
    """Every input of a ``_local_step`` run through its slots.

    Returns the re-indexed forward PTM the slots rebuild (row i over
    output site codes, i a joint bit pair) and, per input, the output site
    code and threshold of each of its slots.
    """
    _kind, support, slots, _norm = step
    shifts = (2, 0)[2 - len(support):]
    size = 4 ** len(support)
    assert all(codes.dtype == np.uint8 and codes.max() < size for codes, _, _ in slots)
    ptm, outs = np.zeros((size, size)), []
    for i in range(size):
        out, prev = [], i
        for codes, coeffs, thresholds in slots:
            if out and coeffs[i] == 0.0:
                # no slot s: the output stays that of slot s - 1
                assert codes[i] == prev
                continue
            prev = int(codes[i])
            code = sum(BITS_TO_CODE[(prev >> t) & 3] << t for t in shifts)
            ptm[i, code] += coeffs[i]
            out.append((code, thresholds[i]))
        outs.append(out)
    return ptm, outs


def _joint_flip(arity: int) -> list[int]:
    """Joint site code of each joint bit pair (support[0] in the high bits)."""
    shifts = (2, 0)[2 - arity:]
    return [sum(BITS_TO_CODE[(i >> t) & 3] << t for t in shifts) for i in range(4**arity)]


def _check_slot_table(step, rows: np.ndarray) -> list:
    """Assert that a slot table encodes ``rows``, its re-indexed PTM.

    Returns each input's (output site code, threshold) per slot.
    """
    _kind, _support, slots, _norm = step
    ptm, outs = _run_slots(step)
    # the identity input has one slot, itself with coefficient 1 (a channel
    # maps I to I up to rounding in its transfer matrix's first row)
    assert outs[0] == [(0, 0.0)]
    assert [coeffs[0] for _, coeffs, _ in slots] == [1.0] + [0.0] * (len(slots) - 1)
    assert np.array_equal(ptm[1:], rows[1:])
    for i, out in enumerate(outs[1:], 1):
        codes = [code for code, _ in out]
        if not (rows[i] ** 2).sum():
            # zero squared norm: to I with coefficient 0 first
            assert codes[0] == 0 and slots[0][1][i] == 0.0
            codes = codes[1:]
        assert codes == sorted(set(codes))  # joint site-code order
    return outs


# by PTM size: one- and two-qubit supports, some across the word boundary at 63/64
LOCAL_SUPPORTS = {
    4: [(0,), (63,), (64,), (129,)],
    16: [(0, 1), (1, 0), (63, 64), (64, 63), (2, 129)],
}


class TestLocalStep:
    @pytest.mark.parametrize("name", sorted(_NAMED_UNITARIES) + clifford_group_1q())
    def test_clifford_slots_rebuild_its_ptm(self, name):
        ptm = clifford_forward_ptm(name)
        for support in LOCAL_SUPPORTS[len(ptm)]:
            step = _local_step(support, name)
            outs = _check_slot_table(step, ptm[_joint_flip(len(support))])
            assert [len(out) for out in outs] == [1] * len(ptm)
            assert np.array_equal(step[3], np.ones(len(ptm)))

    @settings(max_examples=150, deadline=None)
    @given(helpers.channels(), st.sampled_from([0, 63, 64, 129]))
    def test_channel_slots_rebuild_its_ptm_and_sampling_law(self, ch, q):
        step = _local_step((q,), ch)
        rows = ch.forward_ptm()[_joint_flip(1)]
        outs = _check_slot_table(step, rows)
        prob, norm = noise_tables(rows)
        assert step[3].tobytes() == norm.tobytes()
        # slot s's threshold is the share of the norm before its output
        cdf = np.cumsum(prob, axis=1)
        for i, out in enumerate(outs[1:], 1):
            assert [t for _, t in out] == [cdf[i, code - 1] if code else 0.0 for code, _ in out]
