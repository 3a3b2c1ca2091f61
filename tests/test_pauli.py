import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_ref
from paulipath import (
    PauliString,
    PauliSum,
    ProductState,
    QubitCountMismatch,
    commutes,
    expectation_product_state,
    multiply,
)

LABELS_1Q = ["I", "X", "Y", "Z"]


def dense(p: PauliString) -> np.ndarray:
    return dense_ref.pauli_matrix(p.label())


class TestPauliString:
    def test_label_round_trip(self):
        for label in ("XIZ", "IIII", "Y", "ZYXI"):
            assert PauliString.from_label(label).label() == label

    def test_canonical_equality_and_hash(self):
        a = PauliString.from_label("XY")
        b = PauliString.from_label("XY")
        assert a == b and hash(a) == hash(b)
        assert a != PauliString.from_label("YX")

    @pytest.mark.parametrize(
        "label,expected",
        [("III", 0), ("XIZ", 2), ("YYY", 3), ("I", 0), ("IZ", 1)],
    )
    def test_weight(self, label, expected):
        assert PauliString.from_label(label).weight == expected

    def test_support_and_codes(self):
        p = PauliString.from_label("XIZY")
        assert p.support() == (0, 2, 3)
        assert p.codes() == (1, 0, 3, 2)
        assert p.xy_count == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")
        with pytest.raises(ValueError):
            PauliString(2, 4, 0)
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)


class TestMultiply:
    def test_all_single_qubit_pairs_against_dense(self):
        for la, lb in itertools.product(LABELS_1Q, repeat=2):
            a, b = PauliString.from_label(la), PauliString.from_label(lb)
            r, m = multiply(a, b)
            lhs = dense(a) @ dense(b)
            rhs = (1j**m) * dense(r)
            assert np.allclose(lhs, rhs), (la, lb, r.label(), m)

    def test_examples(self):
        assert multiply(PauliString.from_label("X"), PauliString.from_label("X")) == (
            PauliString.from_label("I"),
            0,
        )
        # X @ Z = -iY
        r, m = multiply(PauliString.from_label("X"), PauliString.from_label("Z"))
        assert (r.label(), m) == ("Y", 3)
        r, m = multiply(PauliString.from_label("XZ"), PauliString.from_label("ZZ"))
        assert (r.label(), m) == ("YI", 3)

    def test_recover_second_factor(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            q = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            prod, _ = multiply(p, q)
            back, _ = multiply(p, prod)
            assert back == q  # P(PQ) = Q up to phase

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_associativity_phases(self, data):
        n = data.draw(st.integers(1, 8))
        masks = data.draw(
            st.tuples(*[st.integers(0, (1 << n) - 1) for _ in range(6)])
        )
        p = PauliString(n, masks[0], masks[1])
        q = PauliString(n, masks[2], masks[3])
        r = PauliString(n, masks[4], masks[5])
        pq, m1 = multiply(p, q)
        left, m2 = multiply(pq, r)
        qr, m3 = multiply(q, r)
        right, m4 = multiply(p, qr)
        assert left == right
        assert (m1 + m2) % 4 == (m3 + m4) % 4

    def test_triple_products_against_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            ps = [
                PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                for _ in range(3)
            ]
            first, m01 = multiply(ps[0], ps[1])
            prod, m2 = multiply(first, ps[2])
            m_total = (m01 + m2) % 4
            lhs = dense(ps[0]) @ dense(ps[1]) @ dense(ps[2])
            assert np.allclose(lhs, (1j**m_total) * dense(prod))

    def test_mismatch(self):
        with pytest.raises(QubitCountMismatch):
            multiply(PauliString.from_label("X"), PauliString.from_label("XX"))


class TestCommutes:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("X", "X", True), ("X", "Z", False), ("XZ", "ZX", True)],
    )
    def test_examples(self, a, b, expected):
        assert commutes(PauliString.from_label(a), PauliString.from_label(b)) is expected

    def test_exhaustive_small_against_dense(self):
        for n in (1, 2, 3):
            for codes_a in itertools.product(range(4), repeat=n):
                a = PauliString.from_codes(codes_a)
                da = dense(a)
                for codes_b in itertools.product(range(4), repeat=n):
                    b = PauliString.from_codes(codes_b)
                    db = dense(b)
                    dense_commutes = np.allclose(da @ db, db @ da)
                    assert commutes(a, b) is dense_commutes


class TestPauliSum:
    def test_merging_and_zero_drop(self):
        z = PauliString.from_label("Z")
        s = PauliSum(1, [(z, 0.5), (z, -0.5), (PauliString.from_label("X"), 1.0)])
        assert len(s) == 1
        assert s.coeff(z) == 0.0

    @pytest.mark.parametrize(
        "pairs,expected",
        [
            ([("Z", 1.0)], 1.0),
            ([("X", 0.6), ("Z", 0.8)], 1.0),
            ([("Z", 0.7), ("I", 0.3)], 0.58),
        ],
    )
    def test_frobenius_examples(self, pairs, expected):
        assert PauliSum.from_strings(pairs).frobenius_norm_sq() == pytest.approx(
            expected, abs=1e-15
        )

    def test_frobenius_matches_dense_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            pairs = [
                (
                    PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                    float(rng.standard_normal()),
                )
                for _ in range(4)
            ]
            s = PauliSum(n, pairs)
            mat = sum(c * dense(p) for p, c in s.items()) if s else np.zeros((2**n, 2**n))
            dense_norm = np.trace(mat @ mat).real / 2**n
            assert s.frobenius_norm_sq() == pytest.approx(dense_norm, abs=1e-12)

    def test_json_round_trip(self):
        s = PauliSum.from_strings([("XIZ", 0.5), ("IYI", -0.25)])
        assert PauliSum.from_json_obj(s.to_json_obj()).to_json_obj() == s.to_json_obj()

    def test_mismatched_terms(self):
        with pytest.raises(QubitCountMismatch):
            PauliSum(2, [(PauliString.from_label("X"), 1.0)])


class TestProductState:
    def test_zeros(self):
        st0 = ProductState.zeros(3)
        assert st0.n == 3
        assert st0.factor(1, 3) == 1.0  # Z component
        assert st0.factor(1, 1) == 0.0  # X component

    def test_invalid_bloch(self):
        with pytest.raises(ValueError):
            ProductState.from_vectors([(1.0, 1.0, 1.0)])

    @pytest.mark.parametrize(
        "pairs,expected",
        [
            ([("ZI", 1.0)], 1.0),
            ([("XI", 1.0)], 0.0),
            ([("ZZ", 0.5), ("IZ", 0.25)], 0.75),
        ],
    )
    def test_expectation_on_zeros(self, pairs, expected):
        obs = PauliSum.from_strings(pairs)
        assert expectation_product_state(obs, ProductState.zeros(2)) == pytest.approx(
            expected
        )

    def test_expectation_matches_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            pairs = [
                (
                    PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                    float(rng.standard_normal()),
                )
                for _ in range(3)
            ]
            s = PauliSum(n, pairs)
            if not s:
                continue
            v = rng.standard_normal(3)
            v = v / np.linalg.norm(v) * rng.random()
            state = ProductState.from_vectors([tuple(v)] * n)
            rho = dense_ref.product_density(list(state.bloch))
            expected = dense_ref.expectation(rho, [(p.label(), c) for p, c in s.items()])
            assert expectation_product_state(s, state) == pytest.approx(expected, abs=1e-12)

    def test_mismatch(self):
        with pytest.raises(QubitCountMismatch):
            expectation_product_state(PauliSum.single("Z"), ProductState.zeros(2))
