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

The walk is vectorized over samples and runs the list of steps that
``propagation._compile`` returns, the engine's own backward program, in
the engine's Pauli encoding: a chunk of m paths is a pair of word-major
``(W, m)`` uint64 x/z masks, ``W = ceil(n / 64)``, qubit q in bit
``q & 63`` of word ``q >> 6``.  A uniform rotation folds the generator
into the paths that anticommute with it (one popcount parity over the
gate's words) on a coin, a pi/2 multiple always.  The coins of one
uniform rotation come from ``ceil(m / 64)`` raw 64-bit Philox words:
path p's coin is bit ``p & 63`` of word ``p >> 6``.  Cliffords and noise
share the slot tables of ``propagation._local_step``: slot 0's XOR
deltas move every path (signs do not matter here); a noise step then
reweights by the input's squared norm and moves on through each further
slot whose threshold the step's uniform draw, one ``random()`` double
per path, reaches.  A weight boundary adds one popcount of x | z.
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
from .pauli import PauliSum, ProductState, QubitCountMismatch
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
    """Sample mean, standard error and sample count of one functional.

    ``nonzero_fraction`` is the share of samples whose functional value
    is non-zero: near 0 the mean rests on few paths.  ``max_reweight`` is
    the largest reweight factor of any sampled path, at most ||O||_F^2
    (shared by every functional of one walk).  The seed is the caller's
    own and is not echoed back.
    """

    mean: float
    standard_error: float
    samples: int
    nonzero_fraction: float
    max_reweight: float


def _check_angles(steps: list) -> None:
    """Reject a fixed rotation angle that is not a multiple of pi/2."""
    for step in steps:
        if step[0] == "rot" and step[4] is not None and 0.0 not in _cos_sin(step[4]):
            raise UnsupportedEnsembleError(
                "fixed rotation angles must be multiples of pi/2; "
                "use a uniform-angle placeholder or propagate sampled circuits"
            )


def _seed_paths(observable: PauliSum) -> tuple:
    """Term masks, weights, sampling probabilities and ||O||_F^2 of the observable."""
    x, z, weights, coeffs = _seed_columns(observable)
    coeffs_sq = coeffs * coeffs
    norm_sq = coeffs_sq.sum()
    return x, z, weights, coeffs_sq / norm_sq, norm_sq


def _walk_chunk(steps, seed_x, seed_z, seed_weights, probs, norm_sq, m, rng):
    """Walk m sampled paths through ``propagation._compile``'s program.

    Returns ((x, z) masks, accumulated weights, reweight factors).
    """
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
    hit = np.empty(m, dtype=bool)
    # the tables are tiny and every code is in range; mode="clip" only keeps
    # np.take from buffering its output (the same holds in ``_clifford``)
    for step in steps:
        kind = step[0]
        if kind == "boundary":
            weight += _popcount(x | z)
        elif kind in ("cliff", "noise"):
            _, support, ((deltas, _, _), *rest), norm = step
            code = _clifford(paths, support, deltas, a, b, c)
            if kind == "cliff":
                continue
            k_factor *= np.take(norm, code, out=g, mode="clip")
            rng.random(out=u)
            # the path ends on the last slot whose threshold u reaches
            for deltas, _, thresholds in rest:
                np.greater_equal(u, np.take(thresholds, code, out=g, mode="clip"), out=hit)
                for j, dx, dz in deltas:
                    x[j] ^= np.multiply(np.take(dx, code, out=b, mode="clip"), hit, out=b)
                    z[j] ^= np.multiply(np.take(dz, code, out=b, mode="clip"), hit, out=b)
        elif kind == "rot":
            _, reads, writes, _phase, angle = step
            if angle is None:
                _odd_parity(paths, reads, a, b, odd)
                # path p's coin is bit p & 63 of raw word p >> 6, also on a
                # big-endian host ("<u8")
                words = rng.bit_generator.random_raw(-(-m // 64)).astype("<u8", copy=False)
                odd &= np.unpackbits(words.view(np.uint8), count=m, bitorder="little")
                _fold(paths, writes, odd, a)
            elif _cos_sin(angle)[0] == 0.0:
                _fold(paths, writes, _odd_parity(paths, reads, a, b, odd), a)
            # else sin is 0 (``_check_angles`` rejects the rest): +-identity on Paulis
        elif kind == "ucliff":
            _, q, bit, tx, tz = step
            j, _s, bp = _site(x, z, q, (a, b))
            np.not_equal(bp, 0, out=hit)
            draws = c.view(np.int64)
            draws[...] = rng.integers(1, 4, size=m, dtype=np.uint8)
            for row, table in ((x[j], tx), (z[j], tz)):
                row &= ~bit
                row |= np.multiply(np.take(table, draws, out=a, mode="clip"), hit, out=a)
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

    steps = _compile(template)
    _check_angles(steps)
    seeds = _seed_paths(observable)
    norm_sq = seeds[-1]

    rng = np.random.Generator(np.random.Philox(key=seed))
    stats = [(0, 0.0, 0.0, 0) for _ in functionals]  # (count, mean, M2, non-zero count)
    max_reweight = 0.0

    remaining = samples
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        (x, z), weight, k_factor = _walk_chunk(steps, *seeds, m, rng)
        max_reweight = max(max_reweight, float(k_factor.max()))
        if max_reweight > norm_sq * (1.0 + 1e-9):
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
        out.append(EstimateResult(mean, stderr, cnt, nonzero / cnt, max_reweight))
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
