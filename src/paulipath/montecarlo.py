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

The walk is vectorized over samples and runs the propagation engine's
compiled backward program (``propagation._compile``) in the engine's
Pauli encoding: a chunk of m paths is a pair of word-major ``(W, m)``
uint64 x/z masks, ``W = ceil(n / 64)``, qubit q in bit ``q & 63`` of
word ``q >> 6``.  A uniform rotation folds the generator into the paths
that anticommute with it (one popcount parity over the gate's words),
Cliffords XOR the program's deltas (their signs do not matter here),
noise draws from thresholds over each row of the program's re-indexed
transfer matrix, and a weight boundary adds one popcount of x | z.
Draws come from a counter-based generator, so results are reproducible
and independent of chunking internals.  The check of these estimates
against direct circuit sampling is in the test suite
(``tests/validation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .circuits import Circuit
from .pauli import BITS_TO_CODE, PauliSum, ProductState, QubitCountMismatch
from .propagation import (
    _bloch_scale,
    _clifford,
    _compile,
    _cos_sin,
    _fold,
    _odd_parity,
    _popcount,
    _seed_columns,
    _site,
)

_CHUNK = 1 << 17


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
    """Sample mean and standard error of one functional.

    ``nonzero_fraction`` is the share of samples whose functional value
    is non-zero: near 0 the mean rests on few paths.
    """

    mean: float
    standard_error: float
    samples: int
    seed: int
    nonzero_fraction: float


def _noise_tables(ptm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output law (proportional to the squared coefficient) and squared norm per row.

    Row a of a channel's transfer matrix expands the adjoint image of input a
    over the output Paulis I, X, Y, Z.
    """
    sq = ptm**2
    norm = sq.sum(axis=1)
    # a dead row draws I; its zero norm kills the contribution
    dead = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
    return np.divide(sq, norm[:, None], out=dead, where=norm[:, None] > 0.0), norm


# --- compiled vectorized walk ------------------------------------------------------


def _compile_steps(circuit: Circuit) -> list:
    """The backward program as walk steps: ``propagation._compile`` for sampling.

    Uniform rotations become ``urot`` (fold with probability 1/2), pi/2
    multiples ``flip`` (always fold) or nothing (identity on Paulis); noise
    becomes output thresholds indexed by input bit pair.  Clifford and
    boundary steps pass through; the engine's merge points are dropped.
    """
    steps: list = []
    for step in _compile(circuit):
        kind = step[0]
        if kind == "rot":
            _, reads, writes, _phase, angle = step
            if angle is None:
                steps.append(("urot", reads, writes))
                continue
            c, s = _cos_sin(angle)
            if s == 0.0:
                continue  # +-identity on Paulis
            if c != 0.0:
                raise UnsupportedEnsembleError(
                    "fixed rotation angles must be multiples of pi/2; "
                    "use a uniform-angle placeholder or propagate sampled circuits"
                )
            steps.append(("flip", reads, writes))
        elif kind == "noise":
            (q,), rows = step[1], step[5]
            prob, norm = _noise_tables(rows)
            # the thresholds keep the I, X, Y, Z output order of the site-code
            # law (the fourth, the row total, is 1)
            t0, t1, t2 = np.cumsum(prob, axis=1)[:, :3].T
            steps.append(("noise", q, np.uint64(1 << (q & 63)), t0, t1, t2, norm))
        elif kind == "ucliff":
            q = step[1]
            # x and z bits of the drawn site code 1..3 (index 0 unused)
            tx = np.array([(bp & 1) << (q & 63) for bp in BITS_TO_CODE], dtype=np.uint64)
            tz = np.array([(bp >> 1) << (q & 63) for bp in BITS_TO_CODE], dtype=np.uint64)
            steps.append(("ucliff", q, np.uint64(1 << (q & 63)), tx, tz))
        elif kind in ("cliff", "boundary"):
            steps.append(step)
    return steps


def _set_bit(row: np.ndarray, bit: np.uint64, on: np.ndarray, tmp: np.ndarray) -> None:
    """Set ``bit`` of ``row`` where ``on`` holds and clear it elsewhere."""
    row &= ~bit
    row |= np.multiply(on, bit, out=tmp)


def _seed_paths(observable: PauliSum) -> tuple:
    """Term masks, weights, sampling probabilities and ||O||_F^2 of the observable."""
    x, z, weights, coeffs = _seed_columns(observable)
    coeffs_sq = coeffs * coeffs
    norm_sq = coeffs_sq.sum()
    return x, z, weights, coeffs_sq / norm_sq, norm_sq


def _walk_chunk(steps, seed_x, seed_z, seed_weights, probs, norm_sq, m, rng):
    """Walk m sampled paths; returns ((x, z) masks, accumulated weights, reweight factors)."""
    idx = rng.choice(len(probs), size=m, p=probs)
    paths = np.take(np.stack((seed_x, seed_z)), idx, axis=2)  # (2, W, m): x, z
    x, z = paths
    weight = seed_weights[idx]
    del idx  # not needed during the walk, where memory peaks
    k_factor = np.full(m, norm_sq)
    # scratch rows reused by every step: mapping fresh temporaries of this
    # size costs more than the arithmetic done on them
    u, g = np.empty(m), np.empty(m)  # uniform draws, gathered table values
    a, b, c = (np.empty(m, dtype=np.uint64) for _ in range(3))
    odd = np.empty(m, dtype=np.uint8)
    hit, hit2 = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    # the tables are tiny and every code is in range; mode="clip" only keeps
    # np.take from buffering its output (the same holds in ``_clifford``)
    for step in steps:
        kind = step[0]
        if kind == "boundary":
            weight += _popcount(x | z)
        elif kind == "noise":
            _, q, bit, t0, t1, t2, norm = step
            j, _s, bp = _site(x, z, q, (a, b))
            k_factor *= np.take(norm, bp, out=g, mode="clip")
            rng.random(out=u)
            # the site code drawn is the number of thresholds u passed:
            # 1 or 2 sets the x bit, 2 or 3 the z bit
            np.greater_equal(u, np.take(t0, bp, out=g, mode="clip"), out=hit)
            hit ^= np.greater_equal(u, np.take(t2, bp, out=g, mode="clip"), out=hit2)
            np.greater_equal(u, np.take(t1, bp, out=g, mode="clip"), out=hit2)
            _set_bit(x[j], bit, hit, a)
            _set_bit(z[j], bit, hit2, a)
        elif kind == "urot":
            _, reads, writes = step
            _odd_parity(paths, reads, a, b, odd)
            rng.random(out=u)
            odd &= np.less(u, 0.5, out=hit)
            _fold(paths, writes, odd, a)
        elif kind == "flip":
            _, reads, writes = step
            _fold(paths, writes, _odd_parity(paths, reads, a, b, odd), a)
        elif kind == "cliff":
            _clifford(paths, step[1], step[2], a, b, c)
        elif kind == "ucliff":
            _, q, bit, tx, tz = step
            j, _s, bp = _site(x, z, q, (a, b))
            np.not_equal(bp, 0, out=hit)
            draws = c.view(np.int64)
            draws[...] = rng.integers(1, 4, size=m, dtype=np.uint8)
            for row, table in ((x[j], tx), (z[j], tz)):
                row &= ~bit
                row |= np.multiply(np.take(table, draws, out=a, mode="clip"), hit, out=a)
        else:  # pragma: no cover
            raise AssertionError(kind)
    return (x, z), weight, k_factor


def _functional_values(f: Functional, x, z, weight, k_factor) -> np.ndarray:
    if isinstance(f, TruncFrobenius):
        return k_factor * (weight >= f.k)
    overlap_sq = _bloch_scale(np.ones(len(weight)), x, z, f.state) ** 2
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
    seeds = _seed_paths(observable)
    norm_sq = seeds[-1]

    rng = np.random.Generator(np.random.Philox(key=seed))
    stats = [(0, 0.0, 0.0, 0) for _ in functionals]  # (count, mean, M2, non-zero count)

    remaining = samples
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        (x, z), weight, k_factor = _walk_chunk(steps, *seeds, m, rng)
        if k_factor.max() > norm_sq * (1.0 + 1e-9):
            raise FloatingPointError("sample reweighting escaped [0, ||O||_F^2]")
        for i, f in enumerate(functionals):
            lam = _functional_values(f, x, z, weight, k_factor)
            cnt, mean, m2, nonzero = stats[i]
            b_mean = float(lam.mean())
            b_m2 = float(((lam - b_mean) ** 2).sum())
            delta = b_mean - mean
            tot = cnt + m
            mean += delta * m / tot
            m2 += b_m2 + delta * delta * cnt * m / tot
            stats[i] = (tot, mean, m2, nonzero + int(np.count_nonzero(lam)))

    out = []
    for cnt, mean, m2, nonzero in stats:
        stderr = float(np.sqrt(m2 / (cnt - 1) / cnt)) if cnt > 1 else 0.0
        out.append(EstimateResult(mean, stderr, cnt, seed, nonzero / cnt))
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
