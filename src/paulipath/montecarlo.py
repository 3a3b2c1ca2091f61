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

The walk is vectorized over samples and runs ``_walk_program``, the
engine's own backward program from ``propagation._compile`` with its
rotations grouped, in the engine's Pauli encoding: a chunk of m paths is
a pair of word-major ``(W, m)`` uint64 x/z masks, ``W = ceil(n / 64)``,
qubit q in bit ``q & 63`` of word ``q >> 6``.  A uniform rotation folds
the generator into the paths that anticommute with it on a coin, a pi/2
multiple always.  Rotations come in runs: a maximal stretch of
consecutive rotations whose generators commute pairwise, at most 64
(multiples of pi drop out).  Folding by one generator of a run leaves
every path's parity with the others as it was, so one step applies the
whole run from byte tables over GF(2): bit i of a path's parity word,
the XOR of one table entry per mask byte the run reads, says whether it
anticommutes with generator i.  ANDed with the path's coin word (one raw
64-bit word per path, bit i for rotation i, drawn only when the run has
a uniform rotation), ORed with the pi/2 bits, it selects the generators
whose product one table entry per byte of that word XORs in.  A fixed
Clifford is a ``"local"`` step, the slot tables of
``propagation._local_step``: slot 0's XOR deltas move every path (signs
do not matter here), the path reweights by the input's squared norm
and, when some input has a further slot, moves on through each further
slot whose threshold the step's uniform draw, one ``random()`` double
per path, reaches.  A noise round is one ``"noise"`` step for its qubits
whose channel maps each letter L to L and I only (all three builder
channels, signs folded into ``post`` included), and a ``local`` step
after it for each other qubit.  Its qubits are grouped by equal squared
norm and chance of going to I of each letter, read off the channel's
transfer matrix; a path reweights by one power of each norm, raised to
the count of its letters of that norm on the group's qubits (one
popcount per mask word).  Then, for each letter that can go to I (X, Y,
Z) and each qubit in ascending order, the paths carrying it there draw
one ``random()`` double each and go to I where it falls below the
chance.  A weight boundary adds one popcount of x | z.  Draws
come from an SFC64 generator seeded by the seed through ``SeedSequence``
(any nonnegative integer); chunks draw one after another from its
stream, so results are reproducible.  The check of these estimates
against direct circuit sampling is in ``tests/validation.py``.
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
    _frozen,
    _local_step,
    _popcount,
    _seed_columns,
    _site,
    _WORD,
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


def _seed_paths(observable: PauliSum) -> tuple:
    """Term masks, weights, sampling probabilities and ||O||_F^2 of the observable."""
    x, z, weights, coeffs = _seed_columns(observable)
    coeffs_sq = coeffs * coeffs
    norm_sq = coeffs_sq.sum()
    return x, z, weights, coeffs_sq / norm_sq, norm_sq


_RUN_MAX = 64  # rotations in one run: its coin word holds one bit for each


def _byte_at(k: int) -> int:
    """Index of byte k (bits 8k..8k+7) of a uint64 word in the word's uint8 view."""
    return k if np.little_endian else 7 - k


def _byte_tables(images: list) -> np.ndarray:
    """Read-only uint64 tables, 256 entries on the last axis, of maps linear over GF(2) in a byte.

    ``images[..., t]`` is a map's image of bit t; entry v is the XOR of the images of v's set bits.
    """
    bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint64)
    tables = np.bitwise_xor.reduce(np.array(images, dtype=np.uint64)[..., None, :] * bits, axis=-1)
    tables.flags.writeable = False
    return tables


def _run_tables(gens: tuple) -> tuple:
    """Byte tables of a run of pairwise commuting generators, given as (x, z) integer masks.

    Input tables ``(side, j, at, table)``: byte ``at`` of word j of the x
    (side 0) or z (side 1) masks maps to its share of the run's parity
    word, bit i the parity of the byte's set bits under generator i (x
    bits against its z mask, z bits against its x mask).  XORing the
    shares of every byte the run reads gives each path's parity with
    every generator.  Output tables ``(at, ((side, j, table), ...))``: byte
    ``at`` of a word of fold bits maps to the XOR of the generators it
    selects, for each mask word they write.
    """
    width = max(max(g).bit_length() for g in gens)
    # bit t of byte b of one side: bit i set where generator i has bit 8b + t on the other side
    reads = [(side, b) for side in (0, 1) for b in range(-(-width // 8))]
    ins = zip(reads, _byte_tables([
        [sum(((g[1 - side] >> (8 * b + t)) & 1) << i for i, g in enumerate(gens)) for t in range(8)]
        for side, b in reads
    ]))
    # bit t of fold byte k selects generator 8k + t, whose word j of each side it XORs in
    padded = gens + ((0, 0),) * (-len(gens) % 8)
    writes = [(side, j) for side in (0, 1) for j in range(-(-width // 64))]
    folds = [zip(writes, fold) for fold in _byte_tables([
        [[(g[side] >> 64 * j) & _WORD for g in padded[k:k + 8]] for side, j in writes]
        for k in range(0, len(padded), 8)
    ])]
    return (
        tuple((side, b >> 3, _byte_at(b & 7), table) for (side, b), table in ins if table.any()),
        tuple(
            (_byte_at(k), tuple((side, j, table) for (side, j), table in fold if table.any()))
            for k, fold in enumerate(folds)
        ),
    )


_LETTERS = (1, 3, 2)  # X, Y, Z as bit pairs x | z << 1


def _letter_law(ch) -> tuple | None:
    """Each letter's (squared norm, chance of going to I) under a channel, from its forward PTM.

    For X, Y and Z; None unless the row of every letter L (its adjoint
    image) is zero outside I and L.  The norm is the row's sum of squares
    and the chance I's share of it, 1 where the norm is 0: the values
    that ``propagation._local_step`` gives as L's norm and the threshold
    of L's own slot, so the walk keeps L exactly where its draw would.
    """
    ptm = ch.forward_ptm()
    if ptm[1:, 1:][~np.eye(3, dtype=bool)].any():
        return None
    sq = ptm**2
    norm = sq.sum(axis=1)  # summed as ``_local_step`` sums it
    # rows 1, 2, 3 are X, Y, Z, the order of ``_LETTERS``
    return tuple((float(norm[p]), float(sq[p, 0] / norm[p]) if norm[p] else 1.0) for p in (1, 2, 3))


def _noise_round(pairs) -> list:
    """A noise round's (qubit, channel) pairs as one ``("noise", groups)`` step, then the rest.

    The step takes every qubit whose letters each go to themselves or I
    (``_letter_law``); every other qubit keeps its ``_local_step``, after
    it.  A group is the qubits of one law, in order of their lowest
    qubit: ``(words, classes, drops)`` with

    - ``words``, ``(j, mask, bits)`` for each mask word j the group
      touches: its bits there, and each one alone in ascending order;
    - ``classes``, ``(letters, table)`` for each distinct squared norm
      other than 1.0, ``table[c]`` the norm to the power c, for c letters
      of the class on the group's qubits;
    - ``drops``, ``(letter, chance)`` for each letter that can go to I, in
      the order X, Y, Z.

    Groups that neither reweight nor drop are left out.
    """
    laws: dict = {}
    rest = []
    for q, ch in pairs:
        law = _letter_law(ch)
        if law is None:
            rest.append(_local_step((q,), ch))
        else:
            laws.setdefault(law, []).append(q)
    groups = []
    for law, qubits in laws.items():
        by_word: dict = {}
        for q in qubits:
            by_word.setdefault(q >> 6, []).append(np.uint64(1 << (q & 63)))
        norms: dict = {}
        for letter, (norm, _) in zip(_LETTERS, law):
            norms.setdefault(norm, []).append(letter)
        classes = tuple(
            (tuple(letters), _frozen(norm ** np.arange(len(qubits) + 1)))
            for norm, letters in norms.items() if norm != 1.0
        )
        drops = tuple((letter, drop) for letter, (_, drop) in zip(_LETTERS, law) if drop > 0.0)
        if classes or drops:
            words = tuple((j, np.bitwise_or.reduce(bits), tuple(bits)) for j, bits in by_word.items())
            groups.append((words, classes, drops))
    return ([("noise", tuple(groups))] if groups else []) + rest


def _walk_program(template: Circuit) -> list:
    """The steps the walk runs: ``propagation._compile``'s program with rotations grouped in runs.

    A run is a maximal stretch of consecutive rotations, uniform or by a
    multiple of pi/2, whose generators commute pairwise, at most 64 of
    them.  ``layer_end`` steps and noise rounds without a channel are
    dropped without ending a run, and so are rotations by a multiple of
    pi (+-identity on Paulis); every other step ends one.  A run becomes
    one step ``("run", ins, outs, coins, fixed)``: the tables of
    ``_run_tables`` (built once per distinct run), whether it has a
    uniform rotation, and the bits of its pi/2 rotations.  A ``noise``
    step's pairs go to ``_noise_round``.  Raises
    ``UnsupportedEnsembleError`` on a fixed angle that is not a multiple
    of pi/2.
    """
    program: list = []
    run: list = []  # (generator masks, uniform) of each rotation in the open run
    tables: dict = {}

    def close_run() -> None:
        if run:
            gens = tuple(g for g, _ in run)
            if gens not in tables:
                tables[gens] = _run_tables(gens)
            fixed = sum(1 << i for i, (_, uniform) in enumerate(run) if not uniform)
            coins = fixed != (1 << len(run)) - 1
            program.append(("run", *tables[gens], coins, np.uint64(fixed)))
            run.clear()

    for step in _compile(template):
        kind = step[0]
        if kind == "layer_end" or kind == "noise" and not step[1]:
            continue
        if kind != "rot":
            close_run()
            program.extend(_noise_round(step[1]) if kind == "noise" else [step])
            continue
        _, _reads, writes, _phase, angle = step
        if angle is not None:
            cos_t, sin_t = _cos_sin(angle)
            if sin_t == 0.0:
                continue
            if cos_t != 0.0:
                raise UnsupportedEnsembleError(
                    "fixed rotation angles must be multiples of pi/2; "
                    "use a uniform-angle placeholder or propagate sampled circuits"
                )
        g = [0, 0]  # the generator's x and z masks
        for side, j, w in writes:
            g[side] |= int(w) << 64 * j
        gx, gz = g
        if len(run) == _RUN_MAX or any(
            ((gx & hz) ^ (gz & hx)).bit_count() & 1 for (hx, hz), _ in run
        ):
            close_run()
        run.append(((gx, gz), angle is None))
    close_run()
    return program


def _letter_bits(x, z, letters, mask: np.uint64, out: np.ndarray) -> np.ndarray:
    """``out`` = the bits in ``mask`` of mask words x, z whose letter is one of ``letters``.

    X's bits are x ^ (x & z), Y's x & z and Z's z ^ (x & z), so a set's
    bits are x if it holds X, ^ z if it holds Z, ^ (x & z) if its size is odd.
    """
    if len(letters) == 2 and 3 in letters:  # X and Y, or Y and Z
        return np.bitwise_and(x if 1 in letters else z, mask, out=out)
    if len(letters) & 1:
        np.bitwise_and(x, z, out=out)
        if 1 in letters:
            out ^= x
        if 2 in letters:
            out ^= z
    else:
        np.bitwise_xor(x, z, out=out)
    out &= mask
    return out


def _walk_chunk(program, seed_x, seed_z, seed_weights, probs, norm_sq, m, rng):
    """Walk m sampled paths through ``_walk_program``'s steps.

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
    u = np.empty(m)  # uniform draws
    a, b, c = (np.empty(m, dtype=np.uint64) for _ in range(3))
    g = c.view(np.float64)  # gathered table values; a noise step leaves c free
    hit = np.empty(m, dtype=bool)
    # the tables are tiny and every code is in range; mode="clip" only keeps
    # np.take from buffering its output (the same holds in ``_clifford``)
    for step in program:
        kind = step[0]
        if kind == "boundary":
            weight += _popcount(x | z)
        elif kind == "run":
            _, ins, outs, coins, fixed = step
            # bit i of a: the path's parity with generator i, all read from the
            # masks at the start of the run, since folding by one generator
            # leaves the parities with the others (it commutes with) alone
            # byte values go through a uint8 view of the words into a scratch
            # row of indices, which np.take would otherwise allocate itself
            idx = b.view(np.int64)
            (side, j, at, table), *rest = ins
            np.copyto(idx, paths[side][j].view(np.uint8)[at::8])
            np.take(table, idx, out=a, mode="clip")
            for side, j, at, table in rest:
                np.copyto(idx, paths[side][j].view(np.uint8)[at::8])
                a ^= np.take(table, idx, out=c, mode="clip")
            if coins:  # bit i of path p's raw word is its coin for rotation i
                words = rng.bit_generator.random_raw(m)
                words |= fixed
                a &= words
                del words  # else it would still be alive beside the next run's draw
            for at, writes in outs:
                np.copyto(idx, a.view(np.uint8)[at::8])
                for side, j, table in writes:
                    paths[side][j] ^= np.take(table, idx, out=c, mode="clip")
        elif kind == "noise":
            for words, classes, drops in step[1]:
                count = b.view(np.int64)
                for letters, table in classes:
                    # the class's letters on the group's qubits, summed over words
                    (j, mask, _), *rest = words
                    np.bitwise_count(_letter_bits(x[j], z[j], letters, mask, a), out=b)
                    for j, mask, _ in rest:
                        b += np.bitwise_count(_letter_bits(x[j], z[j], letters, mask, a), out=a)
                    k_factor *= np.take(table, count, out=g, mode="clip")
                for letter, drop in drops:
                    for j, mask, bits in words:
                        # a drop at one qubit leaves the letters of the others as they were
                        _letter_bits(x[j], z[j], (letter,), mask, a)
                        for bit in bits:
                            # flatnonzero is several times faster on bools than on words
                            rows = np.flatnonzero(
                                np.not_equal(np.bitwise_and(a, bit, out=b), 0, out=hit)
                            )
                            draws = rng.random(out=u[:len(rows)])
                            rows = rows[np.less(draws, drop, out=hit[:len(rows)])]
                            x[j][rows] &= ~bit
                            z[j][rows] &= ~bit
        elif kind == "local":
            _, support, ((deltas, _, _), *rest), norm = step
            code = _clifford(paths, support, deltas, a, b, c)
            # a Clifford's norms are all exactly 1.0, so this is exact for it too
            k_factor *= np.take(norm, code, out=g, mode="clip")
            if not rest:
                continue  # every input has one slot: nothing to draw
            rng.random(out=u)
            # the path ends on the last slot whose threshold u reaches
            for deltas, _, thresholds in rest:
                np.greater_equal(u, np.take(thresholds, code, out=g, mode="clip"), out=hit)
                for j, dx, dz in deltas:
                    x[j] ^= np.multiply(np.take(dx, code, out=b, mode="clip"), hit, out=b)
                    z[j] ^= np.multiply(np.take(dz, code, out=b, mode="clip"), hit, out=b)
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

    program = _walk_program(template)
    seeds = _seed_paths(observable)
    norm_sq = seeds[-1]

    rng = np.random.Generator(np.random.SFC64(seed))
    stats = [(0, 0.0, 0.0, 0) for _ in functionals]  # (count, mean, M2, non-zero count)
    max_reweight = 0.0

    remaining = samples
    while remaining > 0:
        m = min(_CHUNK, remaining)
        remaining -= m
        (x, z), weight, k_factor = _walk_chunk(program, *seeds, m, rng)
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
