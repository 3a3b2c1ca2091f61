import math

import numpy as np
import pytest

import dense_ref
from helpers import coeff, frobenius_norm_sq, pauli_sum_json
from paulipath import (
    PauliString,
    PauliSum,
    ProductState,
    QubitCountMismatch,
    expectation_product_state,
)
from paulipath.cli import _resolve_observable


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

    def test_codes(self):
        p = PauliString.from_label("XIZY")
        assert p.codes() == (1, 0, 3, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")
        with pytest.raises(ValueError):
            PauliString(2, 4, 0)
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)


class TestPauliSum:
    def test_merging_and_zero_drop(self):
        z = PauliString.from_label("Z")
        s = PauliSum(1, [(z, 0.5), (z, -0.5), (PauliString.from_label("X"), 1.0)])
        assert len(s) == 1
        assert coeff(s, z) == 0.0

    @pytest.mark.parametrize(
        "pairs,expected",
        [
            ([("Z", 1.0)], 1.0),
            ([("X", 0.6), ("Z", 0.8)], 1.0),
            ([("Z", 0.7), ("I", 0.3)], 0.58),
        ],
    )
    def test_frobenius_examples(self, pairs, expected):
        assert frobenius_norm_sq(PauliSum.from_strings(pairs)) == pytest.approx(
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
            assert frobenius_norm_sq(s) == pytest.approx(dense_norm, abs=1e-12)

    def test_json_round_trip(self):
        # through the CLI's observable reader, and ``from_json_obj``, which calls it
        s = PauliSum.from_strings([("XIZ", 0.5), ("IYI", -0.25)])
        read = _resolve_observable({"observable": pauli_sum_json(s)}, 3)
        assert pauli_sum_json(read) == pauli_sum_json(s)
        assert pauli_sum_json(PauliSum.from_json_obj(pauli_sum_json(s))) == pauli_sum_json(s)

    def test_mismatched_terms(self):
        with pytest.raises(QubitCountMismatch):
            PauliSum(2, [(PauliString.from_label("X"), 1.0)])

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_coefficient(self, c):
        with pytest.raises(ValueError, match="coefficient of XZ must be finite"):
            PauliSum.from_strings([("ZI", 1.0), ("XZ", c)])


class TestProductState:
    def test_zeros(self):
        st0 = ProductState.zeros(3)
        assert st0.n == 3
        assert st0.bloch[1] == (0.0, 0.0, 1.0)  # (r_x, r_y, r_z)

    def test_invalid_bloch(self):
        with pytest.raises(ValueError):
            ProductState.from_vectors([(1.0, 1.0, 1.0)])
        # NaN passes a unit-ball compare, and the overlap would be NaN
        with pytest.raises(ValueError, match="non-finite"):
            ProductState(((math.nan, 0.0, 0.0),))

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
