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

The walk translates ``propagation._compile``'s backward program once
(``_walk_program``) and runs it one step at a time on bit planes: m paths
are a ``(2, n, ceil(m / 64))`` uint64 array, an x and a z plane per qubit,
path p at bit ``p & 63`` of word ``p >> 6`` (lanes past m stay I).  A
rotation XORs the x planes of its generator's z bits and the z planes of
its x bits, ANDs that with a fresh raw word per 64 paths if the angle is
uniform, and XORs it into the planes of the generator's own bits; a fixed
Clifford is a GF(2)-linear map of its support's planes, read off the codes
of its slot table.  A noise round's qubits whose channel maps each
letter L to L and I only are grouped by each letter's squared norm and
chance of going to I (from the transfer matrix).  Three draw rules:

- reweight: a group adds its letter planes into bit-sliced exponent
  counters, one per norm; at the end each path takes one ``norm**e``;
- drop: a letter's lanes go to I where a fresh uniform 53-bit k is below
  ``ceil(chance * 2**53)``, the law of ``random() < chance``, compared
  bit-sliced from the top bit, one raw word per word still undecided;
- per path: a uniform Clifford (an integer in 1..3) and any other channel
  (the code of the last of ``_local_step``'s slots whose threshold a
  ``random()`` double reaches) unpack their qubit.

A weight boundary adds the ``x | z`` planes into a bit-sliced counter; the
program's first one weighs the seed terms.  The seed's term planes are
built from the Pauli strings' masks, and the ``Variance`` and ``TruncMSE``
values read each qubit's codes x_q | z_q << 1 from the planes for the
overlap they share with the engine, ``propagation._bloch_scale``.  Draws
come from an SFC64 generator seeded by the seed through ``SeedSequence``
(any nonnegative integer, else ``ValueError``); chunks draw one after
another from its stream, so results are reproducible.  Every cutoff of a
chunk is read from histograms over the weight.  The check of these
estimates against direct circuit sampling is in ``tests/validation.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .circuits import Circuit
from .pauli import BITS_TO_CODE, PauliSum, ProductState, QubitCountMismatch, _is_int
from .propagation import _bloch_scale, _compile, _cos_sin, _local_step

_CHUNK = 1 << 17
_LANES = np.dtype("<u8")  # a word of 64 paths; byte b holds paths 8b..8b+7
_SITE_BITS = np.array(BITS_TO_CODE, dtype=np.uint8)  # site code 1..3 to x | z << 1, an involution


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


def _unpack(planes: np.ndarray) -> np.ndarray:
    """One uint8 0/1 per lane of each plane on the last axis."""
    return np.unpackbits(planes.view(np.uint8), axis=-1, bitorder="little")


def _pack(bits: np.ndarray) -> np.ndarray:
    """Planes of 0/1 lanes on the last axis, padded with I lanes to whole words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, -packed.shape[-1] % 8)]).view(_LANES)


def _seed_paths(observable: PauliSum) -> tuple:
    """Term planes (one lane per term, weighed by the first boundary), probabilities and ||O||_F^2."""
    terms = list(observable.items())
    bits = [[[v >> q & 1 for v in masks] for q in range(observable.n)]
            for masks in ([p.x for p, _ in terms], [p.z for p, _ in terms])]
    coeffs_sq = np.array([c * c for _, c in terms])
    norm_sq = coeffs_sq.sum()
    if not 0.0 < norm_sq < math.inf:  # no sampling law
        raise FloatingPointError(f"the observable's ||O||_F^2 is {float(norm_sq)!r}")
    return _pack(np.array(bits, dtype=np.uint8)), coeffs_sq / norm_sq, norm_sq


_LETTERS = (1, 3, 2)  # X, Y, Z as bit pairs x | z << 1


def _letter_law(ch) -> tuple | None:
    """Each letter's (squared norm, chance of going to I) under a channel, from its forward PTM.

    For X, Y and Z; None unless the row of every letter L (its adjoint
    image) is zero outside I and L.  The norm is the row's sum of squares
    and the chance I's share of it, 1 where the norm is 0: L's norm and
    the threshold of L's own slot in ``propagation._local_step``.
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
    it.  A group, in order of its lowest qubit, is ``(qubits, classes,
    drops)``: an index array of its qubits, ``(letters, norm)`` per distinct
    squared norm but 1.0, and ``(letter, ceil(chance * 2**53))`` per letter
    (X, Y, Z) that can go to I; if neither, it is left out.
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
        norms: dict = {}
        for letter, (norm, _) in zip(_LETTERS, law):
            norms.setdefault(norm, []).append(letter)
        classes = tuple((tuple(letters), norm) for norm, letters in norms.items() if norm != 1.0)
        # the chance times 2**53 is exact: a power of two scales it
        drops = tuple((letter, math.ceil(p * 2.0**53)) for letter, (_, p) in zip(_LETTERS, law) if p)
        if classes or drops:
            groups.append((np.array(qubits), classes, drops))
    return ([("noise", tuple(groups))] if groups else []) + rest


def _linear_map(step: tuple, n: int) -> tuple | None:
    """A fixed Clifford's ``local`` step as ``("clifford", outs, ins, starts)`` on flat plane indices.

    Signs dropped, a Clifford is linear over GF(2) on its support's planes:
    slot 0 maps the joint bit pair with only plane i's bit set to plane i's
    image, and plane ``outs[i]`` is the XOR of the planes
    ``ins[starts[i]:starts[i + 1]]`` whose image holds it.
    """
    _, support, ((codes, _, _),), _ = step  # a Clifford has one slot
    planes = [side * n + q for q in support for side in (0, 1)]
    bits = [t + side for t in (2, 0)[2 - len(support):] for side in (0, 1)]  # of each plane's joint code
    ins = [[p for p, b in zip(planes, bits) if int(codes[1 << b]) >> c & 1] for c in bits]
    outs = [(p, i) for p, i in zip(planes, ins) if i != [p]]
    if not outs:
        return None
    return ("clifford", np.array([p for p, _ in outs]), np.concatenate([i for _, i in outs]),
            np.cumsum([0] + [len(i) for _, i in outs[:-1]]))


def _walk_program(template: Circuit) -> list:
    """The steps the walk runs: ``propagation._compile``'s program on flat plane indices.

    ``("rot", reads, writes, uniform)``: the planes a rotation's generator
    reads and folds into, indices into the ``(2n, L)`` planes (x first).
    A first ``boundary`` weighs the seed.  Rotations by a multiple of pi,
    ``layer_end`` and rounds without a channel drop out; fixed Cliffords go
    to ``_linear_map``, rounds to ``_noise_round``.  Raises
    ``UnsupportedEnsembleError`` on a fixed angle that is not a multiple of
    pi/2.
    """
    n = template.n
    program: list = [("boundary",)]  # the seed's own Pauli weight

    def indices(xs: int, zs: int) -> tuple:  # the x planes of the bits of xs, then the z planes of zs
        return tuple(side * n + q for side, v in ((0, xs), (1, zs)) for q in range(n) if v >> q & 1)

    for step in _compile(template):
        kind = step[0]
        if kind == "rot":
            _, gx, gz, angle = step
            if angle is not None:
                cos_t, sin_t = _cos_sin(angle)
                if sin_t == 0.0:
                    continue
                if cos_t != 0.0:
                    raise UnsupportedEnsembleError(
                        "fixed rotation angles must be multiples of pi/2; "
                        "use a uniform-angle placeholder or propagate sampled circuits"
                    )
            program.append(("rot", indices(gz, gx), indices(gx, gz), angle is None))
        elif kind == "local":
            program += filter(None, [_linear_map(step, n)])
        elif kind == "noise":
            program += _noise_round(step[1])
        elif kind in ("ucliff", "boundary"):
            program.append(step)
    return program


class _Tally:
    """A count per path, bit-sliced: ``levels[b]`` holds rows of planes of weight 2**b.

    ``add`` puts rows of weight 1 in.  Past 64 of them, full adders take
    three rows of a level to one there and one carry row a level up, all
    triples at once, until each level holds one row: its bit of the count.
    """

    __slots__ = ("levels",)

    def __init__(self, words: int) -> None:
        self.levels: list = [[np.zeros((1, words), dtype=_LANES)]]

    def add(self, rows: np.ndarray) -> None:
        self.levels[0].append(rows)
        if sum(map(len, self.levels[0])) > 64:
            self._reduce()

    def _reduce(self) -> None:
        for b, blocks in enumerate(self.levels):  # a carry appends a level
            rows = np.concatenate(blocks)
            while len(rows) > 1:
                t = len(rows) // 3 or 1  # with two rows left, one half adder
                a, c, d = rows[:t], rows[t:2 * t], rows[2 * t:3 * t]
                s, carry = a ^ c, a & c
                if len(d):
                    carry |= s & d
                    s ^= d
                if b + 1 == len(self.levels):
                    self.levels.append([])
                self.levels[b + 1].append(carry)
                rows = np.concatenate((s, rows[2 * t + len(d):]))
            self.levels[b] = [rows]

    def counts(self, m: int) -> np.ndarray:
        """The first m paths' counts."""
        self._reduce()
        count = np.zeros(m, dtype=np.min_scalar_type((1 << len(self.levels)) - 1))
        for (row,) in reversed(self.levels):
            count <<= 1
            count |= _unpack(row[0])[:m]
        return count


def _carriers(x: np.ndarray, z: np.ndarray, letters) -> np.ndarray:
    """The lanes of x/z planes whose letter (bit pair: X 1, Y 3, Z 2) is one of ``letters``."""
    with_x, with_z = 1 in letters, 2 in letters
    if 3 not in letters:
        return x ^ z if with_x and with_z else x ^ (x & z) if with_x else z ^ (x & z)
    if with_x and with_z:
        return x | z
    return (x if with_x else z).copy() if with_x or with_z else x & z


def _below(carriers: np.ndarray, cut: int, rng) -> np.ndarray:
    """The carrying lanes whose fresh uniform 53-bit integer k is below ``cut``, 1 <= cut <= 2**53.

    Most significant bit first, each bit draws one raw word per word, in
    order, that still holds an undecided lane.  A lane is below where k
    has a 0 and ``cut`` a 1, not where k has a 1 and ``cut`` a 0, and not
    when still undecided past the lowest set bit of ``cut``.
    """
    if cut >> 53:
        return carriers
    flat = carriers.reshape(-1)
    below = np.zeros_like(flat)
    pos = np.flatnonzero(flat)
    open_ = flat[pos]
    for b in range(52, (cut & -cut).bit_length() - 2, -1):
        if not len(pos):
            break
        ones = open_ & rng.bit_generator.random_raw(len(pos))
        if cut >> b & 1:
            below[pos] |= open_ ^ ones
        open_ = ones if cut >> b & 1 else open_ ^ ones
        live = np.flatnonzero(open_)
        pos, open_ = pos[live], open_[live]
    return below.reshape(carriers.shape)


def _walk_chunk(program, terms, probs, norm_sq, m, rng):
    """Walk m sampled paths through ``_walk_program``'s steps.

    Returns the (2, n, ceil(m / 64)) bit planes, the boundary tally as weights and reweight factors.
    """
    counts = rng.multinomial(m, probs)  # paths are exchangeable: term t seeds the next counts[t] lanes
    n, words, bits = terms.shape[1], -(-m // 64), _unpack(terms)[..., :len(probs)]
    planes = np.empty((2, n, words), dtype=_LANES)
    for q in range(0, n, 8):  # eight qubits at a time bound the unpacked lanes
        planes[:, q:q + 8] = _pack(np.repeat(bits[:, q:q + 8], counts, axis=-1))
    flat = planes.reshape(2 * n, words)  # x planes, then z planes
    x, z = planes
    k_factor = np.full(m, norm_sq)
    boundaries, exponents = _Tally(words), {}  # exponents: a tally per squared norm
    for step in program:
        kind = step[0]
        if kind == "rot":
            _, reads, writes, uniform = step
            # a lone read is never written: its letter is X or Z
            fold = flat[reads[0]] if len(reads) == 1 else np.bitwise_xor.reduce(flat[list(reads)])
            if uniform:  # bit p & 63 of word p >> 6 is path p's coin
                fold = fold & rng.bit_generator.random_raw(words)
            for plane in writes:
                flat[plane] ^= fold
        elif kind == "clifford":
            _, outs, ins, starts = step
            flat[outs] = np.bitwise_xor.reduceat(flat[ins], starts)
        elif kind == "noise":
            for qubits, classes, drops in step[1]:
                xs, zs = x[qubits], z[qubits]
                for letters, norm in classes:
                    exponents.setdefault(norm, _Tally(words)).add(_carriers(xs, zs, letters))
                for letter, cut in drops:
                    # a drop at one lane leaves the letters of the others as they were
                    kept = ~_below(_carriers(xs, zs, (letter,)), cut, rng)
                    xs &= kept
                    zs &= kept
                if drops:
                    x[qubits], z[qubits] = xs, zs
        elif kind == "boundary":
            boundaries.add(x | z)
        elif kind in ("local", "ucliff"):  # per-path bit pair codes of one qubit
            q = step[1][0] if kind == "local" else step[1]
            xq, zq = _unpack(planes[:, q])
            code = xq | zq << 1
            if kind == "ucliff":
                draws = rng.integers(1, 4, size=m, dtype=np.uint8)
                out = np.where(code[:m] != 0, _SITE_BITS[draws], 0)
            else:  # a channel without a letter law
                _, _, ((codes, _, _), *rest), norm = step
                k_factor *= norm[code[:m]]
                out = codes[code]
                if rest:  # the path ends on the last slot whose threshold u reaches
                    u = np.zeros(len(code))  # I lanes past m stay on slot 0
                    rng.random(out=u[:m])
                    for codes, _, thresholds in rest:
                        out = np.where(u >= thresholds[code], codes[code], out)
            x[q], z[q] = _pack(out & 1), _pack(out >> 1)
    weight = boundaries.counts(m)
    for norm, tally in exponents.items():
        e = tally.counts(m)
        k_factor *= (norm ** np.arange(int(e.max()) + 1))[e]
    return planes, weight, k_factor


def _chunk_stats(functionals: Sequence[Functional], planes, weight, k_factor) -> list:
    """Each functional's (mean, M2, non-zero count) over one chunk, from histograms over the weight.

    A sample's value is ``v * (weight >= k)``, ``v`` the reweight factor
    (times the squared state overlap for ``Variance``, k = 0, and ``TruncMSE``).
    Per distinct ``v`` and weight w: the sum of ``v``, its squared deviations
    from its mean at w, and its non-zero count.  A cutoff sums them over
    w >= k; M2 joins the weights' means as Chan, Golub and LeVeque do, so
    nearly constant values do not cancel.
    """
    m = len(weight)
    counts = np.bincount(weight)
    hists: dict = {}
    out = []
    for f in functionals:
        state = None if isinstance(f, TruncFrobenius) else f.state
        if state not in hists:
            v = k_factor
            if state is not None:  # each qubit's codes x_q | z_q << 1, read from its planes
                codes = (x[:m] | z[:m] << 1 for x, z in map(_unpack, planes.transpose(1, 0, 2)))
                v = k_factor * _bloch_scale(np.ones(m), codes, state) ** 2
            sums = np.bincount(weight, v, len(counts))
            means = sums / np.maximum(counts, 1)
            devs = np.bincount(weight, (v - means[weight]) ** 2, len(counts))
            nonzero = np.bincount(weight[v != 0.0], minlength=len(counts))
            hists[state] = (sums, means, devs, nonzero)
        k = min(getattr(f, "k", 0), len(counts))
        sums, means, devs, nonzero = (h[k:] for h in hists[state])
        tail = counts[k:]
        mean = float(sums.sum()) / m
        gap = means - mean
        m2 = float(devs.sum() + (tail * gap * gap).sum() + (m - tail.sum()) * mean * mean)
        out.append((mean, m2, int(nonzero.sum())))
    return out


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
    if not (_is_int(samples) and samples > 1):
        raise ValueError(f"samples must be an integer of at least 2, not {samples!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, not {seed!r}")
    for f in functionals:
        if isinstance(f, (Variance, TruncMSE)) and f.state.n != template.n:
            raise QubitCountMismatch("functional state qubit count differs from circuit")
        if isinstance(f, (TruncMSE, TruncFrobenius)) and not (_is_int(f.k) and f.k > 0):
            raise ValueError(f"weight cutoff k must be a positive integer, not {f.k!r}")
    if not functionals:
        return []

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
        planes, weight, k_factor = _walk_chunk(program, *seeds, m, rng)
        max_reweight = max(max_reweight, float(k_factor.max()))
        if max_reweight > norm_sq * (1.0 + 1e-9):
            raise FloatingPointError("sample reweighting escaped [0, ||O||_F^2]")
        for i, (b_mean, b_m2, b_nonzero) in enumerate(_chunk_stats(functionals, planes, weight, k_factor)):
            cnt, mean, m2, nonzero = stats[i]
            delta = b_mean - mean
            tot = cnt + m
            mean += delta * m / tot
            m2 += b_m2 + delta * delta * cnt * m / tot
            stats[i] = (tot, mean, m2, nonzero + b_nonzero)

    out = [EstimateResult(mean, float(np.sqrt(m2 / (cnt - 1) / cnt)), cnt, nonzero / cnt, max_reweight)
           for cnt, mean, m2, nonzero in stats]  # cnt is the sample count, at least 2
    if not all(math.isfinite(r.mean) and math.isfinite(r.standard_error) for r in out):
        raise FloatingPointError("the estimate's mean or standard error is not finite")
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
