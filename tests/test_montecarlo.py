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
)
from paulipath.channels import _BUILDERS, NormalFormChannel, SingleQubitPTM
from paulipath.circuits import Layer, PauliRotation
from paulipath.montecarlo import (
    _LANES,
    _LETTERS,
    _below,
    _chunk_stats,
    _letter_law,
    _pack,
    _seed_paths,
    _unpack,
    _walk_chunk,
    _walk_program,
)
from paulipath.propagation import _compile, _local_step
from gate_ensembles import rotation_ptm
from helpers import rotation_forward_ptm
from validation import validate_estimator

from mc_reference_walk import cut_below, noise_round_steps, reference_walk
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
        assert 0.0 <= r.mean <= helpers.frobenius_norm_sq(obs)

    def test_trunc_mse_dominated_by_variance(self):
        tmpl = build_hva(Chain(3), make_amplitude_damping(0.2), 2, noise_placement="per_block")
        obs = PauliSum.single("ZII")
        st = ProductState.zeros(3)
        var, mse = estimate_many(
            tmpl, obs, [Variance(st), TruncMSE(4, st)], 150_000, 11
        )
        assert mse.mean <= var.mean + 3 * (var.standard_error + mse.standard_error)

    def test_truncation_tail_decay_bound(self):
        g = 0.3
        ch = make_amplitude_damping(g)
        tmpl = build_hva(Chain(3), ch, 3, noise_placement="per_block")
        obs = PauliSum.single("ZII")
        p = helpers.effective_depolarizing_rate(ch)
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

    def test_no_functionals_walks_nothing(self, monkeypatch):
        import paulipath.montecarlo as mc

        def refuse(*args):
            raise AssertionError("walked with no functional to evaluate")

        monkeypatch.setattr(mc, "_walk_chunk", refuse)
        tmpl = Circuit(1, (uniform_rx_layer(1, (make_amplitude_damping(0.3),)),))
        assert estimate_many(tmpl, PauliSum.single("Z"), [], 1_000_000, 0) == []
        with pytest.raises(ValueError):  # inputs are still checked
            estimate_many(tmpl, PauliSum.single("Z"), [], 1, 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate(Circuit(1, ()), PauliSum(1, []), Variance(ProductState.zeros(1)), 100, 0)
        with pytest.raises(ValueError):
            estimate(Circuit(1, ()), PauliSum.single("Z"), Variance(ProductState.zeros(1)), 1, 0)

    @pytest.mark.parametrize(
        "functional,samples,named",
        [
            (Variance(ProductState.zeros(1)), 2.5, "samples"),
            (TruncFrobenius(2.5), 100, "cutoff k"),
            (TruncFrobenius(True), 100, "cutoff k"),  # would run as k=1
        ],
    )
    def test_errors_on_a_count_that_is_not_an_integer(self, functional, samples, named):
        with pytest.raises(ValueError, match=named):
            estimate(Circuit(1, ()), PauliSum.single("Z"), functional, samples, 0)

    @pytest.mark.parametrize("seed", [2.5, -1, True, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            estimate(Circuit(1, ()), PauliSum.single("Z"), Variance(ProductState.zeros(1)), 100, seed)


def _rot(label, support, angle=None):
    return PauliRotation(PauliString.from_label(label), support, angle)


def plane_walk(template, observable, m, rng):
    """One chunk of m paths on the bit-plane walk, seeded as ``estimate_many`` seeds it."""
    return _walk_chunk(_walk_program(template), *_seed_paths(observable), m, rng)


def site_codes(x, z, n):
    """(m, n) site codes 0=I, 1=X, 2=Y, 3=Z of word-major x/z masks."""
    code = np.array([0, 1, 3, 2], dtype=np.uint8)  # indexed by x_q + 2 * z_q
    cols = []
    for q in range(n):
        j, s = q >> 6, np.uint64(q & 63)
        cols.append(code[((x[j] >> s) & 1) + 2 * ((z[j] >> s) & 1)])
    return np.stack(cols, axis=1)


def _planes(masks: np.ndarray, n: int) -> np.ndarray:
    """Word-major ``(2, W, m)`` x/z masks as ``(2, n, ceil(m / 64))`` bit planes."""
    words = np.ascontiguousarray(masks, dtype=_LANES)[..., None].view(np.uint8)
    bits = np.unpackbits(words, axis=-1, bitorder="little")  # (2, W, m, 64)
    return _pack(bits.transpose(0, 1, 3, 2).reshape(2, -1, masks.shape[-1])[:, :n])


def _masks(planes: np.ndarray, m: int) -> np.ndarray:
    """The first m lanes of ``(2, n, L)`` bit planes as word-major ``(2, W, m)`` x/z masks."""
    n = planes.shape[1]
    masks = np.zeros((2, -(-n // 64), m, 8), dtype=np.uint8)
    for j in range(masks.shape[1]):
        packed = np.packbits(_unpack(planes[:, 64 * j:64 * j + 64])[..., :m], axis=1, bitorder="little")
        masks[:, j, :, :packed.shape[1]] = packed.transpose(0, 2, 1)
    return masks.view(_LANES)[..., 0]


def random_masks(gen, n, m):
    """Random word-major (2, W, m) x/z masks on n qubits."""
    words = (n + 63) // 64
    masks = gen.integers(0, 2**64, size=(2, words, m), dtype=np.uint64)
    masks[:, -1] &= np.uint64((1 << (n - 64 * (words - 1))) - 1)
    return masks


def padding(planes, m):
    """The lanes past m of the planes' last word."""
    return planes[..., -1] >> np.uint64(m & 63) if m & 63 else np.zeros(planes.shape[:-1], np.uint64)


class TestPlanes:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.integers(1, 4), st.integers(60, 130)),
           st.integers(1, 300).filter(lambda m: m % 64), st.integers(0, 2**32 - 1))
    def test_round_trip_through_word_major_masks(self, n, m, key):
        masks = random_masks(np.random.default_rng(key), n, m)
        planes = _planes(masks, n)
        assert planes.shape == (2, n, -(-m // 64))
        assert not padding(planes, m).any()  # lanes past m are I
        back = _masks(planes, m)
        assert back.shape == masks.shape and np.array_equal(back, masks)
        # lane p of qubit q's plane is bit q of path p's mask
        p = np.arange(m)
        for q in {0, n // 2, n - 1}:
            for side in (0, 1):
                lanes = (planes[side, q][p >> 6] >> (p & 63).astype(np.uint64)) & 1
                assert np.array_equal(lanes, (masks[side, q >> 6] >> np.uint64(q & 63)) & 1)
        # whatever the padding lanes hold, they do not reach the masks
        planes[..., -1] |= ~np.uint64(0) << np.uint64(m & 63)
        assert np.array_equal(_masks(planes, m), masks)


class _Plane:
    """A stand-in generator whose raw words force k, one word of 64 lanes, one plane per call."""

    def __init__(self, ks):
        self.ks, self.planes = ks, 0
        self.bit_generator = self

    def random_raw(self, size):
        assert size == 1  # the one word still holds an undecided lane
        b = 52 - self.planes
        self.planes += 1
        return np.array([sum(((k >> b) & 1) << lane for lane, k in enumerate(self.ks))], np.uint64)


_CHANCES = [1.0, 0.5, 0.375, 2.0**-1074, 1 - 2.0**-53, 0.1, 0.2**2 / (0.8**2 + 0.2**2)]


class TestComparator:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from(_CHANCES), st.floats(2.0**-1074, 1.0)), st.data())
    def test_drops_exactly_below_the_cutoff(self, chance, data):
        cut = math.ceil(chance * 2.0**53)
        near = st.integers(max(cut - 2, 0), min(cut + 1, 2**53 - 1))
        ks = data.draw(st.lists(st.one_of(near, st.integers(0, 2**53 - 1), st.sampled_from([0, 2**53 - 1])),
                                min_size=64, max_size=64), label="ks")
        carriers = data.draw(st.integers(0, 2**64 - 1), label="carriers")
        rng = _Plane(ks)
        below = _below(np.array([[carriers]], dtype=np.uint64), cut, rng)
        want = sum(1 << lane for lane, k in enumerate(ks) if carriers >> lane & 1 and k < cut)
        assert int(below[0, 0]) == want
        # the law of random() < chance, random() = k / 2**53
        assert want == sum(1 << lane for lane, k in enumerate(ks) if carriers >> lane & 1 and k / 2**53 < chance)
        # planes past the cutoff's lowest set bit are never drawn
        assert rng.planes <= 53 - ((cut & -cut).bit_length() - 1) if cut < 2**53 else rng.planes == 0


class TestAgainstReferenceWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_walk_matches_site_code_walk(self, data):
        n, sites = data.draw(helpers.registers())
        template = helpers.embed_circuit(data.draw(helpers.templates(len(sites))), sites, n)
        obs = helpers.embed_sum(data.draw(helpers.observables(len(sites))), sites, n)
        m = data.draw(st.integers(1, 300), label="m")
        key = data.draw(st.integers(0, 2**64 - 1), label="key")
        rng = np.random.Generator(np.random.SFC64(key))
        planes, weight, k_factor = plane_walk(template, obs, m, rng)
        ref = np.random.Generator(np.random.SFC64(key))
        ref_codes, ref_weight, ref_k_factor = reference_walk(template, obs, m, ref)
        assert planes.shape == (2, n, -(-m // 64))
        assert not padding(planes, m).any()  # lanes past m stay at I
        assert np.array_equal(site_codes(*_masks(planes, m), n), ref_codes)
        assert np.array_equal(weight, ref_weight)
        assert k_factor.tobytes() == ref_k_factor.tobytes()
        # both walks consumed the same draws
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


class TestChunkStats:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_histograms_match_per_functional_values(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        m = data.draw(st.integers(2, 400), label="m")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="key"))
        masks = random_masks(gen, n, m)
        weight = gen.integers(0, data.draw(st.integers(1, 12), label="w"), size=m)
        k_factor = gen.random(m) * (gen.random(m) < data.draw(st.floats(0.0, 1.0), label="live"))
        states = [data.draw(helpers.product_states(n)) for _ in range(2)]
        kinds = st.sampled_from(["frobenius", "mse", "variance"])
        fs = []
        for kind in data.draw(st.lists(kinds, min_size=1, max_size=6), label="kinds"):
            k, state = data.draw(st.integers(1, 14)), data.draw(st.sampled_from(states))
            fs.append({"frobenius": TruncFrobenius(k), "mse": TruncMSE(k, state),
                       "variance": Variance(state)}[kind])
        codes = site_codes(*masks, n)
        got = _chunk_stats(fs, _planes(masks, n), weight, k_factor)
        for f, (mean, m2, nonzero) in zip(fs, got):
            lam = k_factor.copy()
            if not isinstance(f, TruncFrobenius):
                table = np.array([[1.0, rx, ry, rz] for rx, ry, rz in f.state.bloch])
                lam *= np.prod(table[np.arange(n), codes], axis=1) ** 2
            if not isinstance(f, Variance):
                lam *= weight >= f.k
            want = lam.mean()
            assert mean == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert m2 == pytest.approx(((lam - want) ** 2).sum(), rel=1e-12, abs=1e-13 * (lam**2).sum())
            assert nonzero == np.count_nonzero(lam)


@st.composite
def letter_channels(draw) -> NormalFormChannel:
    """A channel that mostly maps each letter to itself and I.

    Builder channels (endpoints included, so letters of zero norm), the
    same with a sign pair folded into ``post``, a channel whose squared
    entries underflow to zero, and one in five a channel of ``helpers.channels``,
    half of whose forms are rotated and mix letters.
    """
    form = draw(st.sampled_from(["builder", "builder", "folded", "tiny", "any"]))
    if form == "any":
        return draw(helpers.channels())
    if form == "tiny":
        return NormalFormChannel((1e-170,) * 3, (0.0,) * 3)
    param = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    ch = _BUILDERS[draw(st.sampled_from(sorted(_BUILDERS)))](param)
    if form == "builder":
        return ch
    # negating two damping entries: the constructor folds the pair into post
    flip = draw(st.sampled_from([(-1, -1, 1), (-1, 1, -1), (1, -1, -1)]))
    return NormalFormChannel(tuple(s * d for s, d in zip(flip, ch.d)), ch.t)


class _Draws:
    """A stand-in generator: each seed term seeds one path, in order; ``random`` hands out queued draws."""

    def __init__(self, queue):
        self.queue = list(queue)

    def multinomial(self, m, p):
        return np.ones(len(p), dtype=np.int64)

    def random(self, out):
        draws = self.queue.pop(0)
        assert len(draws) == len(out)
        out[...] = draws
        return out


class _InOrder(_Draws):
    """The generator itself, but each seed term seeds one path, in order."""

    def __init__(self, rng):
        self.rng, self.bit_generator = rng, rng.bit_generator

    def random(self, out):
        return self.rng.random(out=out)


class TestNoiseRoundStep:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_round_step_matches_per_qubit_steps(self, data):
        n = data.draw(st.integers(1, 130), label="n")
        noised = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12, unique=True))
        noise = [None] * n
        for q in noised:
            noise[q] = data.draw(letter_channels())
        template = Circuit(n, (Layer((), tuple(noise)),))
        m = data.draw(st.integers(1, 300), label="m")
        key = data.draw(st.integers(0, 2**64 - 1), label="key")
        paths = random_masks(np.random.default_rng(key), n, m)

        def walk(program, rng):
            terms = _planes(paths, n)
            return _walk_chunk(program, terms, np.zeros(m, np.int64), np.full(m, 1.0 / m), 1.0, m, rng)

        rng = _InOrder(np.random.Generator(np.random.SFC64(key)))
        planes, weight, k_factor = walk(_walk_program(template), rng)

        # the same stream through the site-code walk's comparator: a dropped
        # lane draws u = 0, a kept one the largest double below 1 (it keeps its
        # letter unless the chance is 1); the other channels draw as they go
        ref = np.random.Generator(np.random.SFC64(key))
        codes = site_codes(*paths, n)
        (_, groups), *rest = noise_round_steps([(q, noise[q]) for q in sorted(noised)])
        u = {}
        for qubits, _, drops in groups:
            for letter, cut in drops:
                gone = cut_below((codes[:, qubits] == letter).T, cut, ref)
                for q, lanes in zip(qubits, gone):
                    codes[lanes, q] = 0
                    u.setdefault(q, np.full(m, 1 - 2.0**-53))[lanes] = 0.0
        for _, q, _, _, draws in rest:
            if draws:
                u[q] = ref.random(m)
        steps = [_local_step((q,), noise[q]) for q in sorted(noised)]
        queue = [u.get(q, np.zeros(m)) for _, (q,), slots, _ in steps if len(slots) > 1]
        q_planes, q_weight, q_k_factor = walk(steps, _Draws(queue))

        assert np.array_equal(planes, q_planes)
        assert np.array_equal(weight, q_weight)
        # the per-qubit steps round once per qubit, the round once per class
        np.testing.assert_allclose(k_factor, q_k_factor, rtol=(len(noised) + 4) * 2.0**-52, atol=0)
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(helpers.channels(), letter_channels()), st.sampled_from([0, 63, 64, 129]))
    @example(make_amplitude_damping(1.0), 63)  # X and Y of zero norm, Z only to I
    @example(NormalFormChannel((1e-170,) * 3, (0.0,) * 3), 64)  # squares underflow
    @example(NormalFormChannel((-0.5, -0.5, 0.9), (0.0, 0.0, 0.1)), 129)  # a sign pair in post
    @example(NormalFormChannel((0.8, 0.8, 0.64), (0.0, 0.0, 0.36),
                               pre=SingleQubitPTM(rotation_ptm("X", 0.3))), 0)  # mixes Y and Z
    def test_letter_law_matches_local_step(self, ch, q):
        # the law read off the transfer matrix against the slots of the channel's own step
        _, _, slots, norm = _local_step((q,), ch)
        mixes = any(codes[lt] not in (0, lt) for lt in _LETTERS for codes, _, _ in slots)
        law = _letter_law(ch)
        assert (law is None) == mixes
        if law is None:
            return
        assert np.array([n for n, _ in law]).tobytes() == norm[list(_LETTERS)].tobytes()
        for (_, chance), lt in zip(law, _LETTERS):
            # a slot the letter lacks repeats its last code, so the first one that is L is L's own
            assert chance == next((t[lt] for codes, _, t in slots if codes[lt] == lt), 1.0)

    def test_rotated_channel_keeps_its_local_step(self):
        damp, deph = make_amplitude_damping(0.2), make_dephasing(0.1)
        pre = SingleQubitPTM(rotation_ptm("X", 0.3))
        rotated = NormalFormChannel(damp.d, damp.t, pre=pre)
        folded = NormalFormChannel((-0.5, -0.5, 0.9), (0.0, 0.0, 0.1))  # a sign pair in post
        assert folded.post is not None
        template = Circuit(4, (Layer((), (damp, rotated, folded, damp)),))
        (_, (group, other)), local = _walk_program(template)
        assert local is _local_step((1,), rotated)
        # qubits 0 and 3 share a law; 2 has its own, so it is a group of its own
        assert [g[0].tolist() for g in (group, other)] == [[0, 3], [2]]
        assert group[1] == (((1, 3), pytest.approx(0.8)), ((2,), pytest.approx(0.8**2 + 0.2**2)))
        assert group[2] == ((2, math.ceil(0.2**2 / (0.8**2 + 0.2**2) * 2**53)),)


def test_step_kinds_are_closed():
    # the engine treats a kind it does not know as a weight boundary and the
    # walk skips one, so a renamed kind would go unnoticed: pin both sets
    damp = make_amplitude_damping(0.2)
    rotated = NormalFormChannel(damp.d, damp.t, pre=SingleQubitPTM(rotation_ptm("X", 0.3)))
    template = Circuit(3, (
        Layer((_rot("X", (0,), math.pi / 2), CliffordGate("CNOT", (1, 2))), (damp,) * 3),
        Layer((_rot("ZZ", (0, 1)), CliffordGate("H", (2,))), (damp, None, rotated)),
        Layer((RandomSingleQubitClifford(1),), (damp,) * 3),
    ), Layer((CliffordGate("S", (0,)), RandomSingleQubitClifford(2))))
    kinds = {step[0] for step in _compile(template)}
    assert kinds == {"rot", "local", "ucliff", "boundary", "layer_end", "noise"}
    walk_kinds = {"rot", "clifford", "noise", "local", "ucliff", "boundary"}
    assert {step[0] for step in _walk_program(template)} == walk_kinds


class TestRandomStream:
    def test_estimates_pinned(self):
        # every step kind: uniform and pi/2 rotations, fixed and random
        # Cliffords, two noise channels, weight boundaries; two chunks
        damp, depol = make_amplitude_damping(0.15), make_depolarizing(0.1)
        layers = (
            Layer((_rot("X", (0,)), _rot("ZZ", (1, 2))), (damp, depol, damp)),
            Layer((CliffordGate("CNOT", (0, 1)), CliffordGate("H", (2,))), (depol, damp, depol)),
            Layer((RandomSingleQubitClifford(0), _rot("XY", (1, 2), math.pi / 2))),
            Layer((_rot("YZ", (0, 2)), CliffordGate("S", (1,))), (damp, damp, damp)),
        )
        template = Circuit(3, layers, Layer((_rot("Y", (1,)),)))
        obs = PauliSum.from_strings([("ZIZ", 0.7), ("IXI", -0.5), ("YYI", 0.3)])
        state = ProductState.from_vectors([(0.3, -0.4, 0.8), (0.0, 0.6, -0.5), (0.5, 0.5, 0.5)])
        fs = [Variance(state), TruncMSE(3, state), TruncFrobenius(4)]
        got = estimate_many(template, obs, fs, (1 << 17) + 4099, 2024)
        want = [
            ("0x1.cd031c17d8a62p-6", "0x1.6e521f048cbc7p-13"),
            ("0x1.988937deee655p-6", "0x1.1498be14f4b0dp-13"),
            ("0x1.c3e20f122a8f5p-3", "0x1.629cb79479d6ep-13"),
        ]
        for r, (mean, stderr) in zip(got, want):
            assert r.mean == float.fromhex(mean)
            assert r.standard_error == float.fromhex(stderr)


class TestNonzeroFraction:
    def test_zero_when_cutoff_unreachable(self):
        tmpl = build_hva(Chain(3), make_amplitude_damping(0.2), 2, noise_placement="per_block")
        (r,) = estimate_many(tmpl, PauliSum.single("ZII"), [TruncFrobenius(100)], 5000, 4)
        assert r.mean == 0.0 and r.nonzero_fraction == 0.0

    def test_one_for_noiseless_uniform_rotation_variance(self):
        # Z folds to Y or stays Z; both overlap a state with r_y, r_z != 0
        tmpl = Circuit(1, (uniform_rx_layer(1, None),))
        state = ProductState.from_vectors([(0.3, 0.5, 0.7)])
        r = estimate(tmpl, PauliSum.single("Z"), Variance(state), 5000, 6)
        assert r.nonzero_fraction == 1.0

    def test_counts_every_chunk(self):
        tmpl = Circuit(1, (uniform_rx_layer(1, None),))
        samples = (1 << 17) + 1001
        r = estimate(tmpl, PauliSum.single("Z"), Variance(ProductState.zeros(1)), samples, 8)
        # the samples ending on Z carry the whole mean, 1 each
        assert r.nonzero_fraction * samples == pytest.approx(r.mean * samples, abs=1e-6)
        assert 0.45 < r.nonzero_fraction < 0.55


class TestMaxReweight:
    def test_equals_norm_on_noiseless_uniform_rotations(self):
        tmpl = Circuit(2, (uniform_rx_layer(2, None),))
        obs = PauliSum.from_strings([("ZI", 0.7), ("IZ", -0.5)])
        fs = [Variance(ProductState.zeros(2)), TruncFrobenius(1)]
        got = estimate_many(tmpl, obs, fs, (1 << 17) + 11, 3)
        # nothing reweights a path, so every factor stays ||O||_F^2
        assert [r.max_reweight for r in got] == [_seed_paths(obs)[-1]] * 2

    def test_at_most_norm_under_amplitude_damping(self):
        g = 0.3
        tmpl = Circuit(1, (uniform_rx_layer(1, (make_amplitude_damping(g),)),))
        r = estimate(tmpl, PauliSum.single("Z"), TruncFrobenius(1), 5000, 5)
        # the adjoint channel maps Z to (1 - g) Z + g I before any rotation
        assert r.max_reweight == pytest.approx((1 - g) ** 2 + g**2, rel=1e-12)
        tmpl = build_hva(Chain(3), make_amplitude_damping(0.2), 2, noise_placement="per_block")
        obs = PauliSum.from_strings([("ZII", 0.6), ("IXX", 0.8)])
        (r,) = estimate_many(tmpl, obs, [TruncFrobenius(2)], 20_000, 9)
        assert 0.0 < r.max_reweight <= _seed_paths(obs)[-1]


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
