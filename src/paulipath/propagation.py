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

The engine's frontier, from the seed to the result and back into a resumed
call, is a column of packed rows next to a coefficient column.  A row is one
bit string, x in its top n bits, then z, then the accumulated weight in the
low wb bits: wb = bits(k - 1 + n) under a cutoff k (a boundary adds at most
n to some w < k before the drop), else 0.  It spans W' = ceil((2n + wb) /
64) uint64 words, word 0 most significant, stored word-major ``(W', m)``: as
integers, rows are in (x, z, w) order.  A merge consumes both columns and
sums the coefficients of equal rows after a stable sort: in place, of each
row shifted over its index, when 2n + wb + bits(m - 1) <= 64 (at most three
m-row columns alive), else by ``lexsort``.

``_compile`` turns a circuit into its backward program in one pass, one step
per gate, noise round and weight boundary, in no consumer's layout: a
rotation is its integer x/z masks and angle.  A fixed Clifford and a noised
qubit share one kernel: a slot table built by ``_local_step`` from the
forward PTM, where slot s of an input is its s-th non-zero output, as a
joint bit-pair code, a coefficient and a sampling threshold per input.  The
engine applies slot 0 in place and appends each further slot; the walk
applies slot 0 and draws among the rest.  ``backpropagate``, the one engine
entry, packs a Pauli-sum seed with w = 0 (``_rows``; a first boundary
weighs it) or resumes from a copy of a result's rows, ends a layer on
either, translates each step once per call into packed words
(``_packed``), runs them on sampled circuits, returns its frontier as it
stands and rejects a template at entry.  The Monte Carlo walk in
``montecarlo`` translates the same program once into bit-plane indices and
samples paths through it, placeholders included (noise rounds read from
their channels' PTMs, each fixed Clifford's planes mapped as its slot 0 maps
single bits).  Weights accumulate only under a path-weight cutoff; without
one every row has weight 0.  The run at cutoff k_max holds the run at every
smaller k as its rows with w < k, and ``kept_below(k)`` returns that run as
a result of its own, in its run's weight field, so a k-sweep needs one pass.

``expectation`` is the one product-state overlap in the package, for
results and Pauli sums alike, on packed rows: one Bloch-table lookup per
qubit code x_q | z_q << 1 (``_bloch_scale``, which the walk's functionals
share on codes read from their bit planes), after it drops the rows whose
overlap is exactly 0 (X or Y on a qubit with r_x = r_y = 0) unless their
coefficient is infinite or NaN.
"""

from __future__ import annotations

import math
import numbers
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
from .pauli import BITS_TO_CODE, PauliSum, ProductState, QubitCountMismatch, _is_int


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
        """Reject a cutoff of the wrong type or range, naming its field; store ints and a float."""
        for name in ("path_weight_cutoff", "xy_count_cutoff", "current_weight_cutoff"):
            c = getattr(self, name)
            if c is not None and not (_is_int(c) and c > 0):
                raise ValueError(f"{name} must be a positive integer or None, not {c!r}")
            object.__setattr__(self, name, None if c is None else int(c))
        c = self.coeff_cutoff
        if isinstance(c, bool) or not isinstance(c, numbers.Real) or not 0.0 <= c < math.inf:
            raise ValueError(f"coeff_cutoff must be a finite nonnegative number, not {c!r}")
        object.__setattr__(self, "coeff_cutoff", float(c))


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


def _split_words(rows: Sequence[int], bits: int) -> np.ndarray:
    """Integer rows of ``bits`` bits as word-major (ceil(bits/64), m) uint64 words, word 0 the top."""
    words = (bits + 63) // 64
    return np.array(
        [[(v >> (64 * j)) & _WORD for v in rows] for j in reversed(range(words))], dtype=np.uint64
    ).reshape(words, len(rows))


@dataclass(frozen=True, eq=False)
class BackpropResult:
    """Backpropagated observable as the engine's frontier: packed rows ``p`` and coefficients ``c``.

    Row i, column i of the word-major ``(W', m)`` uint64 array ``p``, is
    ``x << (n + wb) | z << wb | w``, word 0 most significant: the term
    ``c[i] * P(x, z)`` reached with accumulated weight w (0 for every row
    when ``trunc`` has no path-weight cutoff).  Rows are unique and sorted,
    so in (x, z, w) order.  ``w`` unpacks the weights on each access, as an
    int64 column.  ``trunc`` and ``crossed_noise`` (the walk has passed a
    noise round) let the result seed a further ``backpropagate`` call, which
    resumes from a copy of ``p``.
    """

    n: int
    wb: int
    p: np.ndarray
    c: np.ndarray
    stats: BackpropStats
    trunc: TruncationConfig
    crossed_noise: bool

    @property
    def w(self) -> np.ndarray:  # as int64, all 0 when wb is 0
        return _frozen((self.p[-1] & np.uint64((1 << self.wb) - 1)).view(np.int64))

    def kept_below(self, k: int) -> "BackpropResult":
        """The result of the same run at path-weight cutoff k: the rows with w < k.

        ``trunc`` gets ``path_weight_cutoff=k`` and ``crossed_noise`` is
        kept, so the slice seeds a further ``backpropagate`` call as the
        run at k would.  It keeps ``wb``, its run's weight field, which
        holds every weight below k.  ``stats.surviving_path_count`` is its
        row count; the other counters are those of the pass that made this
        result.  Raises ``ValueError`` when k is not a positive integer,
        this result has no cutoff (its weights were not accumulated) or k
        is above it.
        """
        if not (_is_int(k) and k > 0):
            raise ValueError(f"k must be a positive integer, not {k!r}")
        cutoff = self.trunc.path_weight_cutoff
        if cutoff is None or k > cutoff:
            raise ValueError(f"cannot cut at k={k} a result propagated with cutoff {cutoff}")
        rows = self.w < k
        return BackpropResult(
            self.n,
            self.wb,
            _frozen(np.compress(rows, self.p, axis=1)),
            _frozen(self.c[rows]),
            replace(self.stats, surviving_path_count=int(rows.sum())),
            replace(self.trunc, path_weight_cutoff=int(k)),
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
    as ``(codes, coeffs, thresholds)`` tables indexed by input:

    - ``codes``, the output as a joint bit pair (uint8); an input with no
      slot s keeps its output of slot s - 1;
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
    size = 4 ** len(support)
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

    slots, codes = [], np.arange(size, dtype=np.uint8)
    for s in range(max(map(len, outs))):
        codes, coeffs, thresholds = codes.copy(), np.zeros(size), np.ones(size)
        for i, out in enumerate(outs):
            if s < len(out):
                codes[i], coeffs[i], thresholds[i] = out[s]
        slots.append((_frozen(codes), _frozen(coeffs), _frozen(thresholds)))
    return ("local", support, tuple(slots), _frozen(norm))


def _compile(circuit: Circuit, crossed: bool = False) -> list:
    """The backward program: the circuit as steps in no consumer's layout.

    The final layer comes first, then the layers from the last, each noise
    round before its layer's gates.  The engine and the walk each translate
    these steps once into their own layout (``_packed``, ``_walk_program``):

    - ``("rot", gx, gz, angle)``, a Pauli rotation by the generator with
      integer x and z masks gx, gz (qubit q in bit q); ``angle`` is None
      for a uniform placeholder.
    - ``("local", support, slots, norm)``, a fixed Clifford on its
      support: the slot tables built by ``_local_step`` from its PTM.
    - ``("noise", ((q, channel), ...))``, a noise round: each noised
      qubit (identity channels left out) with its channel, in qubit order.
    - ``("ucliff", q)``, a uniformly random Clifford on qubit q.
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
                steps.append(("rot", *gate.embedded_masks(), gate.angle))
            elif isinstance(gate, CliffordGate):
                steps.append(_local_step(gate.support, gate.name))
            elif isinstance(gate, RandomSingleQubitClifford):
                steps.append(("ucliff", gate.qubit))
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


def _field(p: np.ndarray, lo: int, width: int) -> np.ndarray:
    """Bits lo .. lo + width - 1 of packed rows as word-major (ceil(width / 64), m) masks."""
    out = np.empty(((width + 63) // 64, p.shape[1]), dtype=np.uint64)
    for t, row in enumerate(out):
        j, s = _bit(len(p), lo + 64 * t)
        np.right_shift(p[j], s, out=row)
        if s and j:
            row |= p[j - 1] << (64 - s)
    if width & 63:
        out[-1] &= np.uint64((1 << (width & 63)) - 1)
    return out


class _Frontier:
    """Packed rows ``p`` and coefficients ``c`` of n-qubit terms; rows unique only after merges.

    ``p`` is laid out as ``BackpropResult.p``, with wb weight bits.
    """

    __slots__ = ("n", "wb", "p", "c", "merged_len")

    def __init__(self, n, wb, p, c):
        self.n, self.wb, self.p, self.c, self.merged_len = n, wb, p, c, len(c)

    def __len__(self) -> int:
        return len(self.c)

    def support(self) -> np.ndarray:
        return _field(self.p, self.wb + self.n, self.n) | _field(self.p, self.wb, self.n)  # x | z

    def select(self, keep: np.ndarray) -> None:
        self.p = np.compress(keep, self.p, axis=1)
        self.c = self.c[keep]

    def append(self, ps, cs) -> None:
        """Append lists of row and coefficient blocks; merge past 4x the last merge's rows."""
        if not cs:
            return
        self.p = np.concatenate((self.p, *ps), axis=1)
        ps.clear()  # a kernel's own lists: free each column's blocks once joined
        self.c = np.concatenate((self.c, *cs))
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
    its reads and folds, sign groups, cos and sin.  The groups split its
    support sites in fours, in qubit order, each with a table by the joint
    code of its sites: an earlier group's (uint8) gives its sites' share of
    the sign exponent mod 4, and the last group's (float64) the signed sin
    at ``(the earlier shares' sum & 3) << 2g | joint code``, g its sites.  A
    local step gets its sites and, per slot, XOR tables by packed word that
    take each input (slot 0), or its output of the slot before, to its
    output, and the coefficients.
    """
    words, lo = (2 * n + wb + 63) // 64, (wb + n, wb)  # lo: of the x and z fields

    def spread(v: int) -> tuple:
        pairs = ((words - 1 - i, (v >> 64 * i) & _WORD) for i in range(words))
        return tuple((j, np.uint64(bits)) for j, bits in pairs if bits)

    def site(q: int) -> tuple:
        return (*_bit(words, lo[0] + q), *_bit(words, lo[1] + q))

    if step[0] == "rot":
        _kind, gx, gz, angle = step
        # G*P = i^e * folded with e = popcount(gx & gz) + the sum over the support
        # of x z - x2 z2 + 2 gz x (x2, z2 the folded bits), and i*G*P = i^(e+1) * folded
        shares = []
        for q in range((gx | gz).bit_length()):
            a, b = (gx >> q) & 1, (gz >> q) & 1
            if a or b:
                share = [(x * z - (x ^ a) * (z ^ b) + 2 * b * x) & 3 for z in (0, 1) for x in (0, 1)]
                shares.append((site(q), share))
        cos_t, sin_t = _cos_sin(angle)
        phase = (gx & gz).bit_count()
        groups = []
        for i in range(0, len(shares), 4):
            sites, tables = zip(*shares[i : i + 4])
            shifts = range(2 * len(sites) - 2, -1, -2)  # of each site's pair in a joint code
            e = [sum(t[(c >> s) & 3] for t, s in zip(tables, shifts)) & 3 for c in range(4 ** len(sites))]
            if i + 4 < len(shares):
                groups.append((sites, np.array(e, dtype=np.uint8)))  # summed mod 256
            else:
                signs = [sin_t if (phase + r + v + 1) & 3 == 0 else -sin_t for r in range(4) for v in e]
                groups.append((sites, np.array(signs)))
        reads, folds = spread(gz << lo[0] | gx << lo[1]), spread(gx << lo[0] | gz << lo[1])
        return reads, folds, tuple(groups), cos_t, sin_t
    _kind, support, slots, _norm = step
    # each joint-code bit (a pair's x bit t, its z bit t + 1) at its packed row bit
    moves = [(t + b, lo[b] + q) for q, t in zip(support, (2, 0)[2 - len(support):]) for b in (0, 1)]
    size, packed = 4 ** len(support), []
    prev = range(size)  # slot 0 moves each input from itself
    for codes, coeffs, _thresholds in slots:
        tables: dict = {}
        for i, diff in enumerate(int(a ^ b) for a, b in zip(prev, codes)):
            for j, bits in spread(sum(((diff >> t) & 1) << r for t, r in moves)):
                tables.setdefault(j, np.zeros(size, dtype=np.uint64))[i] = bits
        packed.append((tuple(tables.items()), coeffs))
        prev = codes
    return tuple(site(q) for q in support), tuple(packed)


def _np_rotation(f: _Frontier, reads, folds, groups, cos_t: float, sin_t: float) -> tuple:
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
        *head, (sites, signs) = groups
        e = 0
        for group, shares in head:
            e = shares[_letters(pa, group, a, b)] + e  # uint8: wraps mod 256, so mod 4 holds
        code = _letters(pa, sites, a, b)
        if head:
            np.bitwise_and(e, 3, out=b)
            b <<= np.uint64(2 * len(sites))
            a |= b
        # the signed sin lands in b: no further column
        sa = np.take(signs, code, out=b.view(np.float64), mode="clip")
        a = b = code = None
        for j, bits in folds:
            pa[j] ^= bits
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
        # X/Y sites: the set bits of the x field, in the words that hold it
        j = _bit(len(f.p), f.wb + f.n)[0] + 1
        x_field = _split_words([((1 << f.n) - 1) << (f.wb + f.n)], 2 * f.n + f.wb)[:j]
        bad = (_popcount(f.p[:j] & x_field) > trunc.xy_count_cutoff) & keep
        stats.paths_discarded_by_xy += int(bad.sum())
        keep &= ~bad
    if trunc.current_weight_cutoff is not None:
        bad = (_popcount(f.support()) > trunc.current_weight_cutoff) & keep
        stats.paths_discarded_by_current_weight += int(bad.sum())
        keep &= ~bad
    if not keep.all():
        f.select(keep)


def _rows(obs: PauliSum, wb: int) -> tuple[np.ndarray, np.ndarray]:
    """A sum's packed rows, with w = 0 in their wb weight bits, and coefficients."""
    n, terms = obs.n, list(obs.items())
    rows = [(p.x << n | p.z) << wb for p, _ in terms]
    return _split_words(rows, 2 * n + wb), np.array([c for _, c in terms], dtype=np.float64)


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
    unit.  Under a path-weight cutoff, at a fresh seed and before every
    noise round except the first one the walk ever crosses, a weight
    boundary adds the current Pauli weight of every term to its accumulated
    weight and drops the terms that reach the cutoff.

    ``seed`` is the observable, packed with w = 0, or the result of an
    earlier call, whose frontier the walk then continues from a copy of its
    packed rows, in its weight field; either ends a layer at entry (merge,
    auxiliary cutoffs, peak count and ``max_terms``).  ``backpropagate(c1,
    backpropagate(c2, obs))`` equals ``backpropagate(c1 then c2, obs)`` term
    for term.  A resumed seed must have the same qubit count and ``trunc``,
    and at least the weight bits its cutoff needs.  ``stats`` count this
    call only.  A circuit with placeholders raises ``ValueError``.

    One engine serves every qubit count.  ``engine`` is kept only for the
    benchmark's light-cone reference (``perfbench/worker.py``), which
    passes "numpy"; "auto" and "numpy" run the same walk and any other
    value raises ``ValueError``.
    """
    if engine not in ("auto", "numpy"):
        raise ValueError(f"unknown engine {engine!r}")
    if max_terms is not None and not (_is_int(max_terms) and max_terms > 0):
        raise ValueError(f"max_terms must be a positive integer or None, not {max_terms!r}")
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
        if seed.wb < wb:  # a boundary would carry weights into the z field
            raise ValueError(f"seed result has {seed.wb} weight bits, its cutoff needs {wb}")
        crossed, wb = seed.crossed_noise, seed.wb
        # C-ordered copies: the kernels below change rows and coefficients in place
        f = _Frontier(n, wb, np.array(seed.p, order="C"), np.array(seed.c))
        entry = [("layer_end",)]  # merged and cut: counted and checked
    else:
        if not seed:
            raise ValueError("observable has no terms")
        crossed = False
        f = _Frontier(n, wb, *_rows(seed, wb))
        entry = [("boundary",), ("layer_end",)]  # its own weight, then a layer's cuts

    packed: dict = {}  # id(step) -> (step, its kernel arguments): one translation per call

    def args(step: tuple) -> tuple:
        if id(step) not in packed:
            packed[id(step)] = (step, _packed(step, n, wb))
        return packed[id(step)][1]

    for step in entry + _compile(circuit, crossed):
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
            keep = _field(f.p, 0, wb)[0] < k
            stats.paths_discarded_by_weight += int(len(keep) - keep.sum())
            f.select(keep)
            f.merged_len = len(f)  # merged rows stay merged: x and z fix the weight added
    stats.surviving_path_count = len(f)
    return BackpropResult(n, wb, _frozen(f.p), _frozen(f.c), stats, trunc, crossed)


def _bloch_scale(vals: np.ndarray, codes, state: ProductState) -> np.ndarray:
    """Multiply ``vals`` in place by each entry's overlap with a product state.

    ``codes`` yields one integer array per qubit, in qubit order, of each
    entry's bit pair x_q | z_q << 1 there; each is one lookup in the
    qubit's table (1, r_x, r_z, r_y).  The caller reads the codes from its
    own layout.
    """
    for (rx, ry, rz), code in zip(state.bloch, codes):
        vals *= np.array((1.0, rx, rz, ry))[code]
    return vals


def expectation(obs: PauliSum | BackpropResult, state: ProductState) -> float:
    """Tr[O rho] of a Pauli sum or a backpropagated observable against a product state.

    This is the package's one product-state overlap: on packed rows (a
    result's own, a sum's from ``_rows``), it drops the rows whose overlap
    is exactly 0 with one mask on the x field, reads the other rows' codes
    one qubit at a time with ``_letters``, scales them by ``_bloch_scale``
    and sums with ``math.fsum``.
    """
    if obs.n != state.n:
        raise QubitCountMismatch(f"observable on {obs.n} qubits, state on {state.n}")
    if isinstance(obs, BackpropResult):
        n, wb, p, c = obs.n, obs.wb, obs.p, np.array(obs.c)  # a copy: scaled in place below
    else:
        n, wb, (p, c) = obs.n, 0, _rows(obs, 0)
    # X or Y on a qubit with r_x = r_y = 0 makes a row's overlap exactly 0, which
    # adds nothing to the sum; a non-finite coefficient stays (inf * 0 is NaN)
    dead = sum(1 << q for q, (rx, ry, _) in enumerate(state.bloch) if rx == ry == 0.0)
    if dead:
        keep = ~((p & _split_words([dead << (wb + n)], 2 * n + wb)).any(axis=0) & np.isfinite(c))
        p, c = np.compress(keep, p, axis=1), c[keep]
    a, b, words = np.empty(len(c), dtype=np.uint64), np.empty(len(c), dtype=np.uint64), len(p)
    sites = (((*_bit(words, wb + n + q), *_bit(words, wb + q)),) for q in range(n))
    codes = (_letters(p, site, a, b) for site in sites)  # each read before the next fills a
    return math.fsum(_bloch_scale(c, codes, state).tolist())


# the name Pauli-sum callers look up (``experiments``, and the benchmark's
# tracer in ``perfbench/tracing.py``)
expectation_product_state = expectation

