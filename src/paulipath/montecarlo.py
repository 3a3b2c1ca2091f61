"""Path-sampling estimation of circuit-ensemble second moments.

For circuit families whose random elements are uniform-angle Pauli
rotations and uniform single-qubit Cliffords (noise and Clifford gates
fixed), second-moment functionals of the path decomposition (variance
of expectation values, mean-squared truncation error and its Frobenius
variant) are estimated without bias by sampling one backward path per
shot.  Each primitive transition is drawn with probability proportional
to its mean squared amplitude, and the product of per-step squared-norm
contributions reweights the functional, so every sample value lands in
[0, ||O||_F^2].

The walk is vectorized over samples: a chunk of paths is an (m, n)
array of site codes updated step by step with a counter-based generator,
so results are reproducible and independent of chunking internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .channels import NormalFormChannel
from .circuits import (
    Circuit,
    CliffordGate,
    PauliRotation,
    RandomSingleQubitClifford,
    clifford_adjoint_table,
    sample_circuit,
)
from .oracle import simulate_exact
from .pauli import PauliSum, ProductState, QubitCountMismatch
from .propagation import EXACT, _backward_ops, _cos_sin, backpropagate, expectation

_CHUNK = 1 << 17

# site-code product table, signs dropped (only squared amplitudes matter here)
_MULT = np.array(
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], dtype=np.uint8
)


class UnsupportedEnsembleError(ValueError):
    """The circuit contains a random element outside the supported families."""


@dataclass(frozen=True)
class Variance:
    """f = Tr[P_0 rho]^2: the ensemble second moment of the expectation value."""

    state: ProductState


@dataclass(frozen=True)
class TruncMSE:
    """f = Tr[P_0 rho]^2 on paths at or above the weight cutoff, else 0."""

    k: int
    state: ProductState


@dataclass(frozen=True)
class TruncFrobenius:
    """f = 1 on paths at or above the weight cutoff, else 0."""

    k: int


Functional = Union[Variance, TruncMSE, TruncFrobenius]


@dataclass(frozen=True)
class EstimateResult:
    mean: float
    standard_error: float
    samples: int
    seed: int

    def to_json_obj(self) -> dict:
        return {"mean": self.mean, "stderr": self.standard_error, "samples": self.samples}


# --- per-primitive second-moment steps (reference / test surface) -----------------


@dataclass(frozen=True)
class SecondMomentStep:
    """Transition law of one primitive under squared-amplitude sampling.

    ``transitions(codes)`` maps input site codes (restricted to the
    primitive's support) to a list of (output codes, probability,
    squared-norm contribution); probabilities sum to one.
    """

    arity: int
    _table: tuple  # opaque payload interpreted by kind
    kind: str

    def transitions(self, codes: Sequence[int]) -> list[tuple[tuple[int, ...], float, float]]:
        codes = tuple(int(c) for c in codes)
        if len(codes) != self.arity:
            raise ValueError("input does not match the primitive's support size")
        if self.kind == "rotation":
            gcodes = self._table
            anti = False
            for c, g in zip(codes, gcodes):
                anti ^= c != 0 and c != g
            if not anti:
                return [(codes, 1.0, 1.0)]
            folded = tuple(int(_MULT[c, g]) for c, g in zip(codes, gcodes))
            return [(codes, 0.5, 1.0), (folded, 0.5, 1.0)]
        if self.kind == "noise":
            prob, norm = self._table
            c = codes[0]
            outs = [
                ((b,), float(prob[c, b]), float(norm[c]))
                for b in range(4)
                if prob[c, b] > 0.0
            ]
            return outs
        if self.kind == "clifford":
            lut = self._table
            joint = 0
            for c in codes:
                joint = (joint << 2) | c
            out = int(lut[joint])
            out_codes = tuple((out >> (2 * (self.arity - 1 - i))) & 3 for i in range(self.arity))
            return [(out_codes, 1.0, 1.0)]
        if self.kind == "uniform_clifford":
            if codes[0] == 0:
                return [((0,), 1.0, 1.0)]
            return [((b,), 1.0 / 3.0, 1.0) for b in (1, 2, 3)]
        raise AssertionError(self.kind)


def second_moment_rotation(rotation: PauliRotation) -> SecondMomentStep:
    """Uniform-angle rotation: commuting inputs pass; anticommuting split 1/2-1/2."""
    return SecondMomentStep(len(rotation.support), rotation.generator.codes(), "rotation")


def _noise_tables(ch: NormalFormChannel) -> tuple[np.ndarray, np.ndarray]:
    # row a of the forward PTM expands N^dag(P_a) over output Paulis
    sq = ch.forward_ptm() ** 2
    norm = sq.sum(axis=1)
    prob = np.zeros((4, 4))
    for a in range(4):
        if norm[a] > 0.0:
            prob[a] = sq[a] / norm[a]
        else:
            prob[a, 0] = 1.0  # dead branch; the zero norm kills its contribution
    return prob, norm


def second_moment_noise(ch: NormalFormChannel) -> SecondMomentStep:
    """Fixed channel: outputs drawn with probability ~ squared adjoint amplitude."""
    return SecondMomentStep(1, _noise_tables(ch), "noise")


def second_moment_clifford(gate: CliffordGate) -> SecondMomentStep:
    table = clifford_adjoint_table(gate.name)
    lut = tuple(q for q, _sign in table)
    return SecondMomentStep(len(gate.support), lut, "clifford")


def second_moment_uniform_clifford() -> SecondMomentStep:
    return SecondMomentStep(1, (), "uniform_clifford")


# --- compiled vectorized walk ------------------------------------------------------


def _compile_steps(circuit: Circuit) -> list:
    steps: list = []
    for op in _backward_ops(circuit):
        kind = op[0]
        if kind == "boundary":
            steps.append(("boundary",))
        elif kind == "noise":
            for q in range(circuit.n):
                ch = op[1][q]
                if ch is None or ch.is_identity:
                    continue
                prob, norm = _noise_tables(ch)
                steps.append(("noise", q, np.cumsum(prob, axis=1), norm))
        else:
            gate = op[1]
            if isinstance(gate, RandomSingleQubitClifford):
                steps.append(("ucliff", gate.qubit))
            elif isinstance(gate, CliffordGate):
                table = clifford_adjoint_table(gate.name)
                lut = np.array([q for q, _s in table], dtype=np.uint8)
                if len(gate.support) == 1:
                    steps.append(("cliff1", gate.support[0], lut))
                else:
                    steps.append(("cliff2", gate.support[0], gate.support[1], lut))
            elif isinstance(gate, PauliRotation):
                gcodes = gate.generator.codes()
                if gate.angle is None:
                    steps.append(("urot", gate.support, gcodes))
                    continue
                c, s = _cos_sin(gate.angle)
                if s == 0.0:
                    continue  # +-identity on Paulis
                if c == 0.0:
                    steps.append(("flip", gate.support, gcodes))
                    continue
                raise UnsupportedEnsembleError(
                    "fixed rotation angles must be multiples of pi/2; "
                    "use a uniform-angle placeholder or propagate sampled circuits"
                )
            else:  # pragma: no cover - exhaustive over gate variants
                raise UnsupportedEnsembleError(f"unsupported gate {gate!r}")
    return steps


def _anticommute_mask(codes: np.ndarray, support, gcodes) -> np.ndarray:
    anti = np.zeros(codes.shape[0], dtype=bool)
    for q, g in zip(support, gcodes):
        cq = codes[:, q]
        anti ^= (cq != 0) & (cq != g)
    return anti


def _walk_chunk(steps, seed_codes, seed_weights, probs, norm_sq, m, rng):
    idx = rng.choice(len(probs), size=m, p=probs)
    codes = seed_codes[idx].copy()
    weight = seed_weights[idx].astype(np.int64)
    k_factor = np.full(m, norm_sq)
    for step in steps:
        kind = step[0]
        if kind == "boundary":
            weight += np.count_nonzero(codes, axis=1)
        elif kind == "noise":
            _, q, cdf, norm = step
            c = codes[:, q]
            k_factor *= norm[c]
            u = rng.random(m)
            codes[:, q] = (u[:, None] >= cdf[c]).sum(axis=1)
        elif kind == "urot":
            _, support, gcodes = step
            anti = _anticommute_mask(codes, support, gcodes)
            flip = anti & (rng.random(m) < 0.5)
            if flip.any():
                for q, g in zip(support, gcodes):
                    codes[flip, q] = _MULT[codes[flip, q], g]
        elif kind == "flip":
            _, support, gcodes = step
            anti = _anticommute_mask(codes, support, gcodes)
            if anti.any():
                for q, g in zip(support, gcodes):
                    codes[anti, q] = _MULT[codes[anti, q], g]
        elif kind == "cliff1":
            _, q, lut = step
            codes[:, q] = lut[codes[:, q]]
        elif kind == "cliff2":
            _, q0, q1, lut = step
            joint = (codes[:, q0].astype(np.intp) << 2) | codes[:, q1]
            out = lut[joint]
            codes[:, q0] = out >> 2
            codes[:, q1] = out & 3
        elif kind == "ucliff":
            _, q = step
            nz = codes[:, q] != 0
            draws = rng.integers(1, 4, size=m, dtype=np.uint8)
            codes[nz, q] = draws[nz]
        else:  # pragma: no cover
            raise AssertionError(kind)
    return codes, weight, k_factor


def _bloch_table(state: ProductState) -> np.ndarray:
    table = np.ones((state.n, 4))
    for q, r in enumerate(state.bloch):
        table[q, 1:] = r
    return table


def _functional_values(f: Functional, codes, weight, k_factor, n) -> np.ndarray:
    if isinstance(f, TruncFrobenius):
        return k_factor * (weight >= f.k)
    state = f.state
    table = _bloch_table(state)
    factors = table[np.arange(n)[None, :], codes]
    overlap_sq = factors.prod(axis=1) ** 2
    if isinstance(f, TruncMSE):
        return k_factor * overlap_sq * (weight >= f.k)
    return k_factor * overlap_sq


def _check_functionals(functionals: Sequence[Functional], n: int) -> None:
    for f in functionals:
        if isinstance(f, (Variance, TruncMSE)) and f.state.n != n:
            raise QubitCountMismatch("functional state qubit count differs from circuit")
        if isinstance(f, (TruncMSE, TruncFrobenius)) and f.k <= 0:
            raise ValueError("weight cutoff must be positive")


def estimate_many(
    template: Circuit,
    observable: PauliSum,
    functionals: Sequence[Functional],
    samples: int,
    seed: int,
) -> list[EstimateResult]:
    """One path-sampling walk evaluated under several functionals at once."""
    if not observable:
        raise ValueError("observable has no terms")
    if observable.n != template.n:
        raise QubitCountMismatch("circuit and observable qubit counts differ")
    if samples <= 1:
        raise ValueError("need at least two samples")
    _check_functionals(functionals, template.n)

    steps = _compile_steps(template)
    n = template.n
    terms = list(observable.items())
    seed_codes = np.array([[p.code(q) for q in range(n)] for p, _ in terms], dtype=np.uint8)
    seed_weights = np.array([p.weight for p, _ in terms], dtype=np.int64)
    coeffs_sq = np.array([c * c for _, c in terms])
    norm_sq = coeffs_sq.sum()
    probs = coeffs_sq / norm_sq

    rng = np.random.Generator(np.random.Philox(key=seed))
    stats = [(0, 0.0, 0.0) for _ in functionals]  # (count, mean, M2)

    remaining = samples
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        codes, weight, k_factor = _walk_chunk(
            steps, seed_codes, seed_weights, probs, norm_sq, m, rng
        )
        if k_factor.max() > norm_sq * (1.0 + 1e-9):
            raise FloatingPointError("sample reweighting escaped [0, ||O||_F^2]")
        for i, f in enumerate(functionals):
            lam = _functional_values(f, codes, weight, k_factor, n)
            cnt, mean, m2 = stats[i]
            b_mean = float(lam.mean())
            b_m2 = float(((lam - b_mean) ** 2).sum())
            delta = b_mean - mean
            tot = cnt + m
            mean += delta * m / tot
            m2 += b_m2 + delta * delta * cnt * m / tot
            stats[i] = (tot, mean, m2)

    out = []
    for cnt, mean, m2 in stats:
        stderr = float(np.sqrt(m2 / (cnt - 1) / cnt)) if cnt > 1 else 0.0
        out.append(EstimateResult(mean, stderr, cnt, seed))
    return out


def estimate(
    template: Circuit,
    observable: PauliSum,
    functional: Functional,
    samples: int,
    seed: int,
) -> EstimateResult:
    """Unbiased estimate of one second-moment functional, with standard error."""
    return estimate_many(template, observable, [functional], samples, seed)[0]


# --- cross-validation against direct circuit sampling -----------------------------


@dataclass(frozen=True)
class ValidationReport:
    mc: EstimateResult
    direct: float
    direct_stderr: float
    agree: bool


def _direct_value(circuit: Circuit, observable: PauliSum, f: Functional) -> float:
    if isinstance(f, Variance):
        return simulate_exact(circuit, f.state, observable) ** 2
    res = backpropagate(circuit, observable, EXACT, track_weights=True)
    dropped = res.dropped_above(f.k)
    if isinstance(f, TruncMSE):
        if not dropped:
            return 0.0
        from .pauli import expectation_product_state

        return expectation_product_state(dropped, f.state) ** 2
    return dropped.frobenius_norm_sq()


def validate_estimator(
    template: Circuit,
    observable: PauliSum,
    f: Functional,
    samples: int,
    circuits: int,
    seed: int,
) -> ValidationReport:
    """Compare the path-sampling estimate against brute circuit sampling.

    The direct route draws concrete circuits from the template, evaluates
    the functional exactly on each (dense oracle for the variance,
    weight-resolved backpropagation for the truncation errors) and
    averages.  Agreement is within four combined standard errors.
    """
    if isinstance(f, Variance) and template.n > 4:
        raise ValueError("direct variance validation needs n <= 4 for the dense oracle")
    if circuits < 2:
        raise ValueError("need at least two directly sampled circuits")
    mc = estimate(template, observable, f, samples, seed)
    values = []
    for i in range(circuits):
        sub = int(np.random.SeedSequence([seed, 7919, i]).generate_state(1)[0])
        values.append(_direct_value(sample_circuit(template, sub), observable, f))
    direct = float(np.mean(values))
    direct_se = float(np.std(values, ddof=1) / np.sqrt(circuits))
    combined = float(np.hypot(mc.standard_error, direct_se))
    agree = abs(mc.mean - direct) <= 4.0 * combined
    return ValidationReport(mc, direct, direct_se, agree)
