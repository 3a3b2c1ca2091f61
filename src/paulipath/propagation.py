"""Truncated Heisenberg-picture backpropagation of Pauli observables.

The engine walks the circuit from the last layer to the first, applying
adjoint noise and gate actions to a sparse frontier of terms keyed by
(Pauli, accumulated weight).  Accumulated weight is the running sum of
the Pauli weights sampled at damping-round boundaries; terms whose
accumulated weight reaches the cutoff are discarded the moment they are
created.  Keying terms by weight as well as Pauli keeps the truncated
sum exactly equal to the per-path definition: coincident Paulis that
arrived with different accumulated weight must not be conflated, or the
cutoff would remove the wrong paths.

The engine's frontier is a column of packed rows next to a coefficient
column.  A row is one bit string, x in its top n bits, then z, then the
accumulated weight in the low wb bits: wb = bits(k - 1 + n) under a cutoff
k (a boundary adds at most n to some w < k before the drop), else 0.  It
spans W' = ceil((2n + wb) / 64) uint64 words, word 0 most significant,
stored word-major ``(W', m)``: as integers, rows are in (x, z, w) order.  A
merge consumes both columns and sums the coefficients of equal rows after a
stable sort: in place, of each row shifted over its index, when 2n + wb +
bits(m - 1) <= 64 (at most three m-row columns alive), else by ``lexsort``.

``_compile`` turns a circuit into its backward program in one pass, one step
per gate, noise round and weight boundary.  A fixed Clifford and a noised
qubit share one kernel: a slot table built by ``_local_step`` from the
forward PTM, where slot s of an input is its s-th non-zero output, as XOR
deltas, a coefficient and a sampling threshold per input.  The engine
applies slot 0 in place and appends each further slot; the walk applies slot
0 and draws among the rest.  ``backpropagate``, the one engine entry, packs
its seed, translates the steps to packed words once per call, runs them on
sampled circuits, unpacks its result and rejects a template at entry.  The
Monte Carlo walk in ``montecarlo`` samples paths, placeholders included,
through the same program on bit planes (noise rounds read from their
channels' PTMs), each fixed Clifford's planes mapped as ``_clifford`` maps
masks.  Weights accumulate only under a path-weight cutoff; without one
every row has weight 0.  The run at cutoff k_max holds the run at every
smaller k as its rows with w < k, and ``kept_below(k)`` returns that run as
a result of its own, so a k-sweep needs one pass.

``expectation`` is the one product-state overlap in the package, for
results and Pauli sums alike: one Bloch-table lookup per qubit on the
x/z columns (``_bloch_scale``, which the walk's functionals share).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .circuits import (
    Circuit,
    CliffordGate,
    PauliRotation,
    RandomSingleQubitClifford,
    clifford_forward_ptm,
)
from .pauli import BITS_TO_CODE, PauliSum, ProductState, QubitCountMismatch


@dataclass(frozen=True)
class TruncationConfig:
    """Cutoffs for the backpropagation frontier.

    ``path_weight_cutoff`` k keeps only paths with accumulated weight
    strictly below k (None = no cutoff, exact mode).  The remaining
    cutoffs are per-term heuristics applied after every layer: drop
    coefficients with |a| < coeff_cutoff, terms with more than
    xy_count_cutoff X/Y sites, and terms whose current Pauli weight
    exceeds current_weight_cutoff.
    """

    path_weight_cutoff: int | None = None
    coeff_cutoff: float = 0.0
    xy_count_cutoff: int | None = None
    current_weight_cutoff: int | None = None

    def __post_init__(self) -> None:
        if self.path_weight_cutoff is not None and self.path_weight_cutoff <= 0:
            raise ValueError("path weight cutoff must be positive")
        if self.coeff_cutoff < 0.0:
            raise ValueError("coefficient cutoff must be nonnegative")
        for c in (self.xy_count_cutoff, self.current_weight_cutoff):
            if c is not None and c <= 0:
                raise ValueError("count cutoffs must be positive")


EXACT = TruncationConfig()


@dataclass
class BackpropStats:
    paths_discarded_by_weight: int = 0
    paths_discarded_by_coeff: int = 0
    paths_discarded_by_xy: int = 0
    paths_discarded_by_current_weight: int = 0
    peak_term_count: int = 0
    surviving_path_count: int = 0


_WORD = (1 << 64) - 1


def _split_words(masks: Sequence[int], n: int) -> np.ndarray:
    """Integer bit masks as a word-major (ceil(n/64), len(masks)) uint64 array."""
    words = (n + 63) // 64
    return np.array(
        [[(v >> (64 * j)) & _WORD for v in masks] for j in range(words)], dtype=np.uint64
    ).reshape(words, len(masks))


@dataclass(frozen=True, eq=False)
class BackpropResult:
    """Backpropagated observable as a columnar frontier.

    Row i is the term ``c[i] * P(x[:, i], z[:, i])`` reached with
    accumulated weight ``w[i]`` (0 for every row when ``trunc`` has no
    path-weight cutoff); rows are unique in (x, z, w) and sorted by it.
    The masks are word-major ``(ceil(n/64), m)`` uint64 arrays, qubit q in
    bit ``q & 63`` of word ``q >> 6``.  ``trunc`` and ``crossed_noise``
    (the walk has passed a noise round) let the result seed a further
    ``backpropagate`` call.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    c: np.ndarray
    stats: BackpropStats
    trunc: TruncationConfig
    crossed_noise: bool

    def kept_below(self, k: int) -> "BackpropResult":
        """The result of the same run at path-weight cutoff k: the rows with w < k.

        ``trunc`` gets ``path_weight_cutoff=k`` and ``crossed_noise`` is
        kept, so the slice seeds a further ``backpropagate`` call as the
        run at k would.  ``stats.surviving_path_count`` is its row count;
        the other counters are those of the pass that made this result.
        Raises ``ValueError`` when this result has no cutoff (its weights
        were not accumulated) or k is above it.
        """
        cutoff = self.trunc.path_weight_cutoff
        if cutoff is None or k > cutoff:
            raise ValueError(f"cannot cut at k={k} a result propagated with cutoff {cutoff}")
        rows = self.w < k
        return BackpropResult(
            self.n,
            _frozen(np.compress(rows, self.x, axis=1)),
            _frozen(np.compress(rows, self.z, axis=1)),
            _frozen(self.w[rows]),
            _frozen(self.c[rows]),
            replace(self.stats, surviving_path_count=int(rows.sum())),
            replace(self.trunc, path_weight_cutoff=k),
            self.crossed_noise,
        )


def _cos_sin(angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    # angles at multiples of pi/2 make the rotation Clifford; snap so the
    # vanishing branch is never created
    if abs(c) < 1e-15:
        c = 0.0
    if abs(s) < 1e-15:
        s = 0.0
    return c, s


class FrontierOverflowError(RuntimeError):
    """The term frontier outgrew the configured budget."""


# Keyed by support and Clifford name or channel object (by identity); the
# engine looks each noised qubit's table up per round.  Sampled circuits and
# the steps of a dynamics series reuse their template's channel objects, so
# each table is built once per process; a circuit built with fresh channel
# objects misses, and keeps those channels alive until 4096 newer ones evict them.
@lru_cache(maxsize=4096)
def _local_step(support: tuple[int, ...], source) -> tuple:
    """A Clifford (``source`` its name) or a channel on ``support`` as slot tables, from its PTM.

    Inputs are joint bit pairs (support[0] in the high bits); the forward
    PTM re-indexed by them lists input i's adjoint image over outputs in
    joint site-code order.  Slot s of input i is its s-th non-zero output,
    as ``(deltas, coeffs, thresholds)`` tables indexed by input:

    - ``deltas``, XOR tables ``(word, dx, dz)`` per support word that take
      the input (slot 0), or the output of slot s - 1, to this output;
    - ``coeffs``, the output's coefficient: 0 where the input has no slot s,
      and the identity input has one slot, itself with coefficient 1.  An
      input of zero squared norm (a dead one, or one whose coefficients
      underflow when squared) first goes to I with coefficient 0;
    - ``thresholds``, the share of the input's squared norm that comes
      before this output (1 where the input has no slot s or zero norm).

    The step is ``("local", support, slots, norm)``, ``norm`` each input's
    squared norm: the walk draws slot s where a uniform u reaches its
    threshold and reweights by the norm.  Steps are cached by their
    arguments (a channel by identity), so every table is read-only.
    """
    shifts = (2, 0)[2 - len(support):]  # of each support qubit's pair in a joint code
    size, words = 4 ** len(support), sorted({q >> 6 for q in support})
    # joint site code of each joint bit pair, and back: the map is an involution
    flip = [sum(BITS_TO_CODE[(i >> s) & 3] << s for s in shifts) for i in range(size)]
    ptm = clifford_forward_ptm(source) if isinstance(source, str) else source.forward_ptm()
    rows = ptm[flip]
    sq = rows**2
    norm = sq.sum(axis=1)
    # the walk's output law; an input of zero norm draws I
    law = np.tile(np.eye(1, size), (size, 1))
    share = np.cumsum(np.divide(sq, norm[:, None], out=law, where=norm[:, None] > 0.0), axis=1)
    # (output bit pair, coefficient, threshold) of each input's slots; an
    # input of zero norm first goes to I with coefficient 0, so that the
    # walk stays there and the engine keeps only its later slots
    outs = [[(0, 1.0, 0.0)]]
    for i in range(1, size):
        out = [(flip[o], c, share[i, o - 1] if o else 0.0) for o, c in enumerate(rows[i]) if c]
        outs.append(out if norm[i] > 0.0 else [(0, 0.0, 0.0), *out])

    slots, prev = [], list(range(size))  # each input's current output
    for s in range(max(map(len, outs))):
        deltas = [(j, np.zeros(size, np.uint64), np.zeros(size, np.uint64)) for j in words]
        coeffs, thresholds = np.zeros(size), np.ones(size)
        for i, out in enumerate(outs):
            if s >= len(out):
                continue
            o, coeffs[i], thresholds[i] = out[s]
            diff, prev[i] = prev[i] ^ o, o
            # a pair's x bit is bit t of the joint code and its z bit is bit t + 1
            d = [sum(((diff >> (t + b)) & 1) << q for q, t in zip(support, shifts)) for b in (0, 1)]
            for j, dx, dz in deltas:
                dx[i], dz[i] = ((v >> 64 * j) & _WORD for v in d)
        for _, dx, dz in deltas:
            dx.flags.writeable = dz.flags.writeable = False
        slots.append((tuple(deltas), _frozen(coeffs), _frozen(thresholds)))
    return ("local", support, tuple(slots), _frozen(norm))


def _compile(circuit: Circuit, crossed: bool = False) -> list:
    """The backward program: the circuit as steps on word-major x/z masks.

    The final layer comes first, then the layers from the last, each noise
    round before its layer's gates.  The engine and the walk run these steps:

    - ``("rot", reads, writes, phase, angle)``, a Pauli rotation (``angle``
      None for a uniform placeholder).  A mask anticommutes with the
      generator when the reads ``(side, word, bits)`` (side 0 the x masks,
      side 1 the z masks) select an odd number of set bits; multiplying
      by the generator XORs the writes in.  ``phase`` is popcount(gx & gz).
    - ``("local", support, slots, norm)``, a fixed Clifford on its
      support: the slot tables built by ``_local_step`` from its PTM.
    - ``("noise", ((q, channel), ...))``, a noise round: each noised
      qubit (identity channels left out) with its channel, in qubit order.
    - ``("ucliff", q, bit, tx, tz)``, a uniformly random single-qubit
      Clifford: ``bit`` is qubit q's bit in its word, and ``tx``/``tz``
      that bit's x and z values for each site code 1..3 (index 0 unused).
    - ``("boundary",)``, the weight boundary, before every noise round
      but the first one the walk crosses (``crossed`` says the walk
      crossed one before this circuit), and ``("layer_end",)`` after
      each layer's gates.
    """
    steps: list = []
    final = [circuit.final_layer] if circuit.final_layer is not None else []
    for layer in final + list(reversed(circuit.layers)):
        if layer.has_noise:
            if crossed:
                steps.append(("boundary",))
            crossed = True
            steps.append(("noise", tuple(
                (q, ch) for q, ch in enumerate(layer.noise) if ch is not None and not ch.is_identity
            )))
        for gate in layer.gates:
            if isinstance(gate, PauliRotation):
                gx, gz = gate.embedded_masks()
                reads, writes = [], []
                for j in sorted({q >> 6 for q in gate.support}):
                    wx = np.uint64((gx >> (64 * j)) & _WORD)
                    wz = np.uint64((gz >> (64 * j)) & _WORD)
                    reads += [(side, j, w) for side, w in ((0, wz), (1, wx)) if w]
                    writes += [(side, j, w) for side, w in ((0, wx), (1, wz)) if w]
                phase = (gx & gz).bit_count()
                steps.append(("rot", tuple(reads), tuple(writes), phase, gate.angle))
            elif isinstance(gate, CliffordGate):
                steps.append(_local_step(gate.support, gate.name))
            elif isinstance(gate, RandomSingleQubitClifford):
                bit = 1 << (gate.qubit & 63)
                tx, tz = (
                    np.array([bit * ((bp >> b) & 1) for bp in BITS_TO_CODE], dtype=np.uint64)
                    for b in (0, 1)
                )
                steps.append(("ucliff", gate.qubit, np.uint64(bit), tx, tz))
            else:  # pragma: no cover - exhaustive over gate variants
                raise ValueError(f"unsupported gate {gate!r}")
        steps.append(("layer_end",))
    return steps


# a frontier merges once it holds over 4x max(this floor, its rows at the last merge or drop)
_MERGE_FLOOR = 1 << 16
_GATHER_BLOCK = 1 << 16  # rows per block of the one-word merge's coefficient gather


def _bit(words: int, b: int) -> tuple[int, np.uint64]:
    """Word and shift of bit b (bit 0 the least significant) of a packed row of ``words`` words."""
    return words - 1 - (b >> 6), np.uint64(b & 63)


class _Frontier:
    """Packed rows and coefficients ``c`` of n-qubit terms; rows unique only after merges.

    Row i, column i of the word-major ``(W', m)`` uint64 array ``p``, is
    ``x << (n + wb) | z << wb | w`` (no w when wb is 0), word 0 most significant.
    """

    __slots__ = ("n", "wb", "p", "c", "merged_len")

    def __init__(self, n, wb, x, z, w, c):
        """Pack word-major x and z masks and weights w (unused when wb is 0) next to coefficients c."""
        self.n, self.wb, self.c, self.merged_len = n, wb, c, len(c)
        self.p = np.zeros(((2 * n + wb + 63) // 64, len(c)), dtype=np.uint64)
        for lo, masks in ((wb + n, x), (wb, z)):
            for t, v in enumerate(masks):
                j, s = _bit(len(self.p), lo + 64 * t)
                self.p[j] |= v << s
                if s and j:
                    self.p[j - 1] |= v >> (64 - s)
        if wb:
            self.p[-1] |= w.view(np.uint64)  # weights are nonnegative and below 2^wb

    def __len__(self) -> int:
        return len(self.c)

    def field(self, lo: int, width: int) -> np.ndarray:
        """Bits lo .. lo + width - 1 of the rows as word-major (ceil(width / 64), m) masks."""
        out = np.empty(((width + 63) // 64, len(self.c)), dtype=np.uint64)
        for t, row in enumerate(out):
            j, s = _bit(len(self.p), lo + 64 * t)
            np.right_shift(self.p[j], s, out=row)
            if s and j:
                row |= self.p[j - 1] << (64 - s)
        if width & 63:
            out[-1] &= np.uint64((1 << (width & 63)) - 1)
        return out

    def support(self) -> np.ndarray:
        return self.field(self.wb + self.n, self.n) | self.field(self.wb, self.n)  # x | z

    def weights(self) -> np.ndarray:  # as int64, all 0 when wb is 0
        return (self.p[-1] & np.uint64((1 << self.wb) - 1)).view(np.int64)

    def select(self, keep: np.ndarray) -> None:
        self.p = np.compress(keep, self.p, axis=1)
        self.c = self.c[keep]

    def append(self, ps, cs) -> None:
        """Append lists of row and coefficient blocks; merge past 4x the last merge's rows."""
        if not cs:
            return
        self.p = np.concatenate((self.p, *ps), axis=1)
        self.c = np.concatenate((self.c, *cs))
        ps.clear()  # a kernel's own lists: free the blocks before a merge
        cs.clear()
        if len(self.c) > 4 * max(self.merged_len, _MERGE_FLOOR):
            self.merge()

    def merge(self) -> None:
        """Sum the coefficients of equal rows, drop zero sums and leave the rows sorted.

        The sort is stable, so each group sums in its current row order: when
        2n + wb + ib <= 64 (ib = bits(m - 1)) the unique words ``row << ib | i``,
        i the row index, sort in place, else ``lexsort`` sorts the W' words.
        A merge consumes ``p`` and ``c``: the one-word sort shifts the rows into its key in
        place and gathers ``c`` by the key's low bits ``_GATHER_BLOCK`` rows at a time, so at
        most three m-row 8-byte columns besides group-length ones are alive; ``lexsort``: W' more.
        """
        p, c, m, self.p, self.c = self.p, self.c, len(self.c), None, None
        ib = (m - 1).bit_length()
        indexed = 2 * self.n + self.wb + ib <= 64
        if indexed:
            (key,), p = p, None
            key <<= np.uint64(ib)
            key |= np.arange(m, dtype=np.uint64)
            key.sort()
            low, gathered = np.uint64((1 << ib) - 1), np.empty(m)
            buf = np.empty(min(m, _GATHER_BLOCK), dtype=np.uint64)
            for s in range(0, m, _GATHER_BLOCK):  # mode="clip" only skips buffering
                order = np.bitwise_and(key[s : s + _GATHER_BLOCK], low, out=buf[: m - s]).view(np.int64)
                np.take(c, order, out=gathered[s : s + len(order)], mode="clip")
            key >>= np.uint64(ib)
            ranks = (key,)
        else:
            order = np.lexsort(p[::-1])  # the last key is primary: word 0
            gathered = c[order]
            ranks = (word[order] for word in p)
        del c
        first = np.zeros(m, dtype=bool)
        first[:1] = True
        for ranked in ranks:
            first[1:] |= ranked[1:] != ranked[:-1]
            del ranked  # before the next word is ranked
        idx, first = np.flatnonzero(first), None
        sums, gathered = np.add.reduceat(gathered, idx), None
        rows, idx, order = (idx if indexed else order[idx]), None, None
        keep = sums != 0.0
        rows = rows[keep]
        self.c, sums = sums[keep], None
        self.p = key[None, rows] if indexed else np.take(p, rows, axis=1)
        self.merged_len = len(self.c)


def _popcount(v: np.ndarray) -> np.ndarray:
    """Set bits of each column of a word-major (W, m) array."""
    return np.bitwise_count(v).sum(axis=0, dtype=np.int64)


def _site(x: np.ndarray, z: np.ndarray, q: int, out=None) -> tuple[int, np.uint64, np.ndarray]:
    """Word index, bit shift and int64 bit-pair code x_q | z_q << 1 of qubit q.

    The code is built in place in ``out``, a pair of uint64 rows (fresh
    ones when None), and returned as a view of the first.
    """
    j, s = q >> 6, np.uint64(q & 63)
    a, b = out if out is not None else (np.empty_like(x[j]), np.empty_like(z[j]))
    np.right_shift(x[j], s, out=a)
    a &= 1
    np.right_shift(z[j], s, out=b)
    b &= 1
    b <<= 1
    a |= b
    return j, s, a.view(np.int64)


def _clifford(paths, support, deltas, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Apply a Clifford's XOR deltas to the paths in place.

    ``a``, ``b`` and ``c`` are uint64 scratch rows; the joint input bit
    pair code is returned as an int64 view of ``a``.
    """
    x, z = paths
    code = _site(x, z, support[0], (a, b))[2]
    if len(support) == 2:
        code <<= 2
        code |= _site(x, z, support[1], (c, b))[2]
    # the tables are tiny and every code is in range; mode="clip" only keeps
    # np.take from buffering its output
    for j, dx, dz in deltas:
        x[j] ^= np.take(dx, code, out=b, mode="clip")
        z[j] ^= np.take(dz, code, out=b, mode="clip")
    return code


def _letters(p: np.ndarray, sites, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Joint bit-pair code of packed rows at sites ``(x word, x shift, z word, z shift)``, the first
    high, built in the uint64 row ``a`` (``b`` scratch) and returned as an int64 view of it."""
    for i, (jx, sx, jz, sz) in enumerate(sites):
        if i:
            a <<= 2
            a |= np.bitwise_and(np.right_shift(p[jx], sx, out=b), 1, out=b)
        else:
            np.bitwise_and(np.right_shift(p[jx], sx, out=a), 1, out=a)
        np.bitwise_and(np.right_shift(p[jz], sz, out=b), 1, out=b)
        b <<= 1
        a |= b
    return a.view(np.int64)


def _packed(step: tuple, n: int, wb: int) -> tuple:
    """A ``rot`` or ``local`` step's kernel arguments on rows packed with wb weight bits.

    Masks become ``(word, bits)`` pairs and a qubit its site.  A rotation gets
    its reads and folds, each support site with its share of the sign exponent
    by bit-pair code, the signed sin by exponent mod 4, cos and sin; a local
    step its sites and each slot's XOR tables by packed word and coefficients.
    """
    words, lo = (2 * n + wb + 63) // 64, (wb + n, wb)  # lo: of the x and z fields

    def spread(v: int) -> tuple:
        pairs = ((words - 1 - i, (v >> 64 * i) & _WORD) for i in range(words))
        return tuple((j, np.uint64(bits)) for j, bits in pairs if bits)

    def site(q: int) -> tuple:
        return (*_bit(words, lo[0] + q), *_bit(words, lo[1] + q))

    if step[0] == "rot":
        _kind, _reads, writes, phase, angle = step
        gx, gz = (sum(int(v) << 64 * j for side, j, v in writes if side == s) for s in (0, 1))
        # G*P = i^e * folded with e = phase + the sum over the support of
        # x z - x2 z2 + 2 gz x (x2, z2 the folded bits), and i*G*P = i^(e+1) * folded
        letters = []
        for q in range((gx | gz).bit_length()):
            a, b = (gx >> q) & 1, (gz >> q) & 1
            if a or b:
                share = [(x * z - (x ^ a) * (z ^ b) + 2 * b * x) & 3 for z in (0, 1) for x in (0, 1)]
                letters.append((site(q), np.array(share, dtype=np.uint8)))  # summed mod 256
        cos_t, sin_t = _cos_sin(angle)
        signs = np.array([sin_t if (phase + r + 1) & 3 == 0 else -sin_t for r in range(4)])
        reads, folds = spread(gz << lo[0] | gx << lo[1]), spread(gx << lo[0] | gz << lo[1])
        return reads, folds, letters, signs, cos_t, sin_t
    _kind, support, slots, _norm = step
    size, packed = 4 ** len(support), []
    for deltas, coeffs, _thresholds in slots:
        tables: dict = {}
        for i in range(size):
            v = sum((int(dx[i]) << lo[0] | int(dz[i]) << lo[1]) << 64 * j for j, dx, dz in deltas)
            for j, bits in spread(v):
                tables.setdefault(j, np.zeros(size, dtype=np.uint64))[i] = bits
        packed.append((tuple(tables.items()), coeffs))
    return tuple(site(q) for q in support), tuple(packed)


def _np_rotation(f: _Frontier, reads, folds, letters, signs, cos_t: float, sin_t: float) -> tuple:
    """Scale the anticommuting rows by cos in place; return their sin branch for ``_Frontier.append``."""
    # reads is never empty: a generator covers a qubit and is not the identity there
    (j, bits), *rest = reads
    acc = f.p[j] & bits
    for j, bits in rest:
        acc ^= f.p[j] & bits
    # XOR across words keeps the parity of the summed popcounts: one uint8 column
    anti = np.bitwise_count(acc)
    anti, acc = np.bitwise_and(anti, 1, out=anti).view(bool), None
    rows = np.flatnonzero(anti)  # gathers by index beat boolean masks that are about half set
    branch = ([], [])
    if not len(rows):
        return branch
    ca = f.c[rows]
    if sin_t != 0.0:
        pa = np.take(f.p, rows, axis=1)
        a, b = np.empty(len(rows), dtype=np.uint64), np.empty(len(rows), dtype=np.uint64)
        (site, share), *more = letters
        e = share[_letters(pa, (site,), a, b)]
        for site, share in more:
            e += share[_letters(pa, (site,), a, b)]
        a = b = None  # freed before the sign column
        for j, bits in folds:
            pa[j] ^= bits
        sa = signs[e & 3]
        branch = ([pa], [np.multiply(sa, ca, out=sa)])
    if cos_t == 0.0:
        f.select(~anti)
    else:
        ca *= cos_t
        f.c[rows] = ca  # the frontier owns its coefficient column
    return branch


def _np_local(f: _Frontier, sites, slots) -> tuple:
    """Run a packed ``_local_step``: slot 0 in place; return slot s's rows, taken from s - 1's."""
    b = np.empty(len(f), dtype=np.uint64)
    code = _letters(f.p, sites, np.empty(len(f), dtype=np.uint64), b)
    (deltas, coeffs), *rest = slots
    for j, d in deltas:  # mode="clip" only keeps np.take from buffering its output
        f.p[j] ^= np.take(d, code, out=b, mode="clip")
    scale = coeffs[code]
    p, c = f.p, f.c
    pieces = ([], [])  # row and coefficient blocks for ``_Frontier.append``
    for deltas, coeffs_s in rest:
        sel = coeffs_s[code] != 0.0
        p, c, code = np.compress(sel, p, axis=1), c[sel], code[sel]
        for j, d in deltas:
            p[j] ^= d[code]
        pieces[0].append(p)
        pieces[1].append(c * coeffs_s[code])
    f.c = f.c * scale
    if not coeffs.all():
        f.select(scale != 0.0)
    return pieces


_KERNELS = {"rot": _np_rotation, "local": _np_local}


def _np_aux_filter(f: _Frontier, trunc: TruncationConfig, stats: BackpropStats) -> None:
    if trunc.coeff_cutoff == 0.0 and trunc.xy_count_cutoff is None and trunc.current_weight_cutoff is None:
        return
    keep = np.ones(len(f), dtype=bool)
    if trunc.coeff_cutoff > 0.0:
        bad = np.abs(f.c) < trunc.coeff_cutoff
        stats.paths_discarded_by_coeff += int(bad.sum())
        keep &= ~bad
    if trunc.xy_count_cutoff is not None:
        bad = (_popcount(f.field(f.wb + f.n, f.n)) > trunc.xy_count_cutoff) & keep
        stats.paths_discarded_by_xy += int(bad.sum())
        keep &= ~bad
    if trunc.current_weight_cutoff is not None:
        bad = (_popcount(f.support()) > trunc.current_weight_cutoff) & keep
        stats.paths_discarded_by_current_weight += int(bad.sum())
        keep &= ~bad
    if not keep.all():
        f.select(keep)


def _drop_heavy(f: _Frontier, k: int | None, stats: BackpropStats) -> None:
    """Drop the rows with accumulated weight >= k (none if k is None); merged stays merged."""
    if k is not None:
        keep = f.weights() < k
        stats.paths_discarded_by_weight += int(len(keep) - keep.sum())
        f.select(keep)
    f.merged_len = len(f)


def _seed_columns(obs: PauliSum) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Word-major x and z masks, Pauli weights and coefficients of the terms."""
    terms = list(obs.items())
    return (
        _split_words([p.x for p, _ in terms], obs.n),
        _split_words([p.z for p, _ in terms], obs.n),
        np.array([p.weight for p, _ in terms], dtype=np.int64),
        np.array([c for _, c in terms], dtype=np.float64),
    )


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def backpropagate(
    circuit: Circuit,
    seed: PauliSum | BackpropResult,
    trunc: TruncationConfig = EXACT,
    max_terms: int | None = None,
    engine: str = "auto",
) -> BackpropResult:
    """Adjoint-evolve an observable through the circuit with truncation.

    Processing runs from the last layer to the first: the final
    single-qubit layer and any trailing noiseless layers first (they add
    no weight beyond the seed terms' own), then each damping-terminated
    unit.  Under a path-weight cutoff, before every noise round except
    the first one the walk ever crosses, the current Pauli weight of every
    term is added to its accumulated weight; terms reaching the cutoff are
    dropped.  Without a cutoff no weight accumulates.

    ``seed`` is the observable, or the result of an earlier call, whose
    frontier the walk then continues: ``backpropagate(c1,
    backpropagate(c2, obs))`` equals ``backpropagate(c1 then c2, obs)``
    term for term.  A resumed seed must have the same qubit count and
    ``trunc``.  ``stats`` count this call only.  A circuit with placeholders raises ``ValueError``.

    One engine serves every qubit count.  ``engine`` is kept only for the
    benchmark's light-cone reference (``perfbench/worker.py``), which
    passes "numpy"; "auto" and "numpy" run the same walk and any other
    value raises ``ValueError``.
    """
    if engine not in ("auto", "numpy"):
        raise ValueError(f"unknown engine {engine!r}")
    if circuit.is_template():
        raise ValueError("circuit has unresolved ensemble placeholders")
    if seed.n != circuit.n:
        raise QubitCountMismatch("circuit and seed qubit counts differ")
    n, k = circuit.n, trunc.path_weight_cutoff
    # no weight reaches 2^62: a larger cutoff drops nothing and needs no more bits
    wb = 0 if k is None else (min(k, 1 << 62) - 1 + n).bit_length()
    stats = BackpropStats()
    if isinstance(seed, BackpropResult):
        if seed.trunc != trunc:
            raise ValueError("seed result was propagated with a different truncation")
        crossed = seed.crossed_noise
        # a copy of c: the kernels below rescale it in place
        f = _Frontier(n, wb, seed.x, seed.z, seed.w, np.array(seed.c))
    else:
        if not seed:
            raise ValueError("observable has no terms")
        crossed = False
        f = _Frontier(n, wb, *_seed_columns(seed))  # unique Paulis: already merged
        _drop_heavy(f, k, stats)
        _np_aux_filter(f, trunc, stats)
    stats.peak_term_count = len(f)

    packed: dict = {}  # id(step) -> (step, its kernel arguments): one translation per call

    def args(step: tuple) -> tuple:
        if id(step) not in packed:
            packed[id(step)] = (step, _packed(step, n, wb))
        return packed[id(step)][1]

    merged = False  # only layer_end, noise and boundary steps ran since the last merge
    for step in _compile(circuit, crossed):
        kind = step[0]
        if kind in _KERNELS:
            f.append(*_KERNELS[kind](f, *args(step)))
        elif kind == "layer_end":
            f.merge()
            _np_aux_filter(f, trunc, stats)
            stats.peak_term_count = max(stats.peak_term_count, len(f))
            if max_terms is not None and len(f) > max_terms:
                raise FrontierOverflowError(f"frontier exceeded {max_terms} terms")
        elif kind == "noise":
            for q, ch in step[1]:
                f.append(*_np_local(f, *args(_local_step((q,), ch))))
            crossed = True
            f.merge()
            stats.peak_term_count = max(stats.peak_term_count, len(f))
        elif k is not None:  # the weight boundary: no "ucliff" step survives the template check
            # the weights fill the last word's low bits and stay below 2^wb
            f.p[-1] += _popcount(f.support()).view(np.uint64)
            _drop_heavy(f, k, stats)
        merged = kind in ("layer_end", "noise") or merged and kind == "boundary"

    if not merged:  # a boundary keeps rows in order: x and z fix the weight it adds
        f.merge()
    stats.surviving_path_count = len(f)
    return BackpropResult(
        n,
        _frozen(f.field(wb + n, n)),
        _frozen(f.field(wb, n)),
        _frozen(f.weights()),
        _frozen(f.c),
        stats,
        trunc,
        crossed,
    )


def _bloch_scale(
    vals: np.ndarray, x: np.ndarray, z: np.ndarray, state: ProductState
) -> np.ndarray:
    """Multiply ``vals`` in place by each column's overlap with a product state.

    Column i of the word-major masks is scaled by one lookup per qubit, in
    qubit order, in the table (1, r_x, r_z, r_y) indexed by the bit pair
    x_q | z_q << 1.
    """
    table = np.array([(1.0, rx, rz, ry) for rx, ry, rz in state.bloch])
    for q in range(state.n):
        vals *= table[q][_site(x, z, q)[2]]
    return vals


def expectation(obs: PauliSum | BackpropResult, state: ProductState) -> float:
    """Tr[O rho] of a Pauli sum or a backpropagated observable against a product state.

    This is the package's one product-state overlap: ``_bloch_scale`` on
    the word-major x/z columns (a result's own, a sum's from
    ``_seed_columns``), summed with ``math.fsum``.
    """
    if obs.n != state.n:
        raise QubitCountMismatch(f"observable on {obs.n} qubits, state on {state.n}")
    if isinstance(obs, BackpropResult):
        x, z, c = obs.x, obs.z, obs.c
    else:
        x, z, _, c = _seed_columns(obs)
    return math.fsum(_bloch_scale(np.array(c, dtype=np.float64), x, z, state).tolist())


# the name Pauli-sum callers look up (``experiments``, and the benchmark's
# tracer in ``perfbench/tracing.py``)
expectation_product_state = expectation

