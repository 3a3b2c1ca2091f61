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

The frontier is columnar for every qubit count: the x and z masks are
word-major ``(W, m)`` uint64 arrays with ``W = ceil(n / 64)``, qubit q
in bit ``q & 63`` of word ``q >> 6``, next to the accumulated weights
and coefficients of the m terms.  A merge sorts the rows stably by
(x, z, w) and sums the coefficients of equal rows.  When
2n + bits(max w) <= 64 the sort key is one packed uint64 word per row,
else it is the columns themselves; the order is the same.

``_compile`` turns a circuit into its backward program, one step per
gate, noised qubit and weight boundary, with the gate masks and lookup
tables built once.  ``backpropagate``, the one engine entry, runs that
program on sampled circuits and rejects a template at entry; the Monte
Carlo walk in ``montecarlo`` samples paths, placeholders included,
through the same program with the same parity, fold and Clifford kernels.
The run at cutoff k_max holds the run at every smaller k as its rows with
w < k (``kept_below``), so a k-sweep needs one pass.

``expectation`` is the one product-state overlap in the package, for
results and Pauli sums alike: one Bloch-table lookup per qubit on the
x/z columns (``_bloch_scale``, which the walk's functionals share).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .circuits import (
    Circuit,
    CliffordGate,
    PauliRotation,
    RandomSingleQubitClifford,
    clifford_adjoint_table,
    noisy_units,
)
from .pauli import (
    BITS_TO_CODE,
    CODE_TO_BITS,
    PauliString,
    PauliSum,
    ProductState,
    QubitCountMismatch,
    config_float,
    config_int,
)


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

    def to_json_obj(self) -> dict:
        return {
            "k": self.path_weight_cutoff,
            "coeff_cutoff": self.coeff_cutoff,
            "xy_cutoff": self.xy_count_cutoff,
            "current_weight_cutoff": self.current_weight_cutoff,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TruncationConfig":
        """Parse the config form; a badly typed value raises ``ValueError``."""
        if not isinstance(obj, dict):
            raise ValueError(f"truncation must be an object, not {obj!r}")

        def count(key: str) -> int | None:
            v = obj.get(key)
            return None if v is None else config_int(v, f"truncation {key!r}", "an integer or null")
        coeff = obj.get("coeff_cutoff")
        return cls(
            path_weight_cutoff=count("k"),
            coeff_cutoff=0.0 if coeff is None else config_float(coeff, "truncation 'coeff_cutoff'"),
            xy_count_cutoff=count("xy_cutoff"),
            current_weight_cutoff=count("current_weight_cutoff"),
        )


EXACT = TruncationConfig()


@dataclass
class BackpropStats:
    paths_discarded_by_weight: int = 0
    paths_discarded_by_coeff: int = 0
    paths_discarded_by_xy: int = 0
    paths_discarded_by_current_weight: int = 0
    peak_term_count: int = 0
    surviving_path_count: int = 0

    def to_json_obj(self) -> dict:
        return dict(self.__dict__)


_WORD = (1 << 64) - 1


def _split_words(masks: Sequence[int], n: int) -> np.ndarray:
    """Integer bit masks as a word-major (ceil(n/64), len(masks)) uint64 array."""
    words = (n + 63) // 64
    return np.array(
        [[(v >> (64 * j)) & _WORD for v in masks] for j in range(words)], dtype=np.uint64
    ).reshape(words, len(masks))


def _join_words(words: np.ndarray) -> list[int]:
    """Inverse of ``_split_words``: one Python int per column."""
    ints = [0] * words.shape[1]
    for row in words[::-1].tolist():
        ints = [(v << 64) | r for v, r in zip(ints, row)]
    return ints


@dataclass(frozen=True, eq=False)
class BackpropResult:
    """Backpropagated observable as a columnar frontier.

    Row i is the term ``c[i] * P(x[:, i], z[:, i])`` reached with
    accumulated weight ``w[i]``; rows are unique in (x, z, w) and sorted
    by it.  The masks are word-major ``(ceil(n/64), m)`` uint64 arrays,
    qubit q in bit ``q & 63`` of word ``q >> 6``.  ``trunc``, ``tracked``
    (weights were accumulated) and ``crossed_noise`` (the walk has passed
    a noise round) let the result seed a further ``backpropagate`` call.
    The Pauli-object views are built on first access only.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    c: np.ndarray
    stats: BackpropStats
    trunc: TruncationConfig
    tracked: bool
    crossed_noise: bool

    def _pauli_sum(self, rows) -> PauliSum:
        n = self.n
        return PauliSum(
            n,
            [
                (PauliString(n, x, z), c)
                for x, z, c in zip(
                    _join_words(self.x[:, rows]),
                    _join_words(self.z[:, rows]),
                    self.c[rows].tolist(),
                )
            ],
        )

    @cached_property
    def terms(self) -> PauliSum:
        """Coefficients merged over accumulated weight."""
        return self._pauli_sum(slice(None))

    def dropped_above(self, k: int) -> PauliSum:
        """Merged sum of the weight-tracked terms with accumulated weight >= k."""
        return self._pauli_sum(self.w >= k)

    def kept_below(self, k: int) -> PauliSum:
        return self._pauli_sum(self.w < k)


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


def _backward_ops(circuit: Circuit, crossed: bool = False) -> list:
    """The circuit as backward-walk operations, last layer first.

    ``("layer", layer)`` applies a layer's gates, ``("noise", noise)`` a
    noise round and ``("boundary",)`` adds every term's current Pauli
    weight to its accumulated weight.  A boundary goes before every noise
    round except the first one the walk crosses; ``crossed`` says the
    walk already crossed one before this circuit.
    """
    units, trailing = noisy_units(circuit)
    ops: list = []
    if circuit.final_layer is not None:
        ops.append(("layer", circuit.final_layer))
    ops.extend(("layer", layer) for layer in reversed(trailing))
    for unit in reversed(units):
        if crossed:
            ops.append(("boundary",))
        crossed = True
        ops.append(("noise", unit[-1].noise))
        ops.extend(("layer", layer) for layer in reversed(unit))
    return ops


def _compile(circuit: Circuit, crossed: bool = False) -> list:
    """The backward program: ``_backward_ops`` as steps on word-major x/z masks.

    Both the propagation engine and the Monte Carlo walk run these steps:

    - ``("rot", reads, writes, phase, angle)``, a Pauli rotation (``angle``
      None for a uniform placeholder).  A mask anticommutes with the
      generator when the reads ``(side, word, bits)`` (side 0 the x masks,
      side 1 the z masks) select an odd number of set bits; multiplying
      by the generator XORs the writes in.  ``phase`` is popcount(gx & gz).
    - ``("cliff", support, deltas, signs)``, a fixed Clifford: x and z XOR
      deltas ``(word, dx, dz)`` and the image's sign, all indexed by the
      joint input bit pair (support[0] in the high bits).
    - ``("ucliff", q)``, a uniformly random single-qubit Clifford.
    - ``("noise", q, ptm)``, the channel on qubit q: ``ptm[bp, b]`` is the
      coefficient of output Pauli b (I, X, Y, Z) in the adjoint image of
      the input with bit pair bp.
    - ``("boundary",)``, the weight boundary, and ``("layer_end",)`` and
      ``("noise_end",)`` after each layer's gates and each noise round.
    """
    n = circuit.n
    ptms: dict = {}  # one re-indexed transfer matrix per channel object
    steps: list = []
    for op in _backward_ops(circuit, crossed):
        if op[0] == "boundary":
            steps.append(op)
            continue
        if op[0] == "noise":
            for q, ch in enumerate(op[1]):
                if ch is None or ch.is_identity:
                    continue
                if ch not in ptms:  # row bp is the PTM row of site code BITS_TO_CODE[bp]
                    ptms[ch] = ch.forward_ptm()[list(BITS_TO_CODE)]
                steps.append(("noise", q, ptms[ch]))
            steps.append(("noise_end",))
            continue
        for gate in op[1].gates:
            if isinstance(gate, PauliRotation):
                gx, gz = gate.embedded_masks(n)
                reads, writes = [], []
                for j in sorted({q >> 6 for q in gate.support}):
                    wx = np.uint64((gx >> (64 * j)) & _WORD)
                    wz = np.uint64((gz >> (64 * j)) & _WORD)
                    reads += [(side, j, w) for side, w in ((0, wz), (1, wx)) if w]
                    writes += [(side, j, w) for side, w in ((0, wx), (1, wz)) if w]
                phase = (gx & gz).bit_count()
                steps.append(("rot", tuple(reads), tuple(writes), phase, gate.angle))
            elif isinstance(gate, CliffordGate):
                table = clifford_adjoint_table(gate.name)
                k, size = len(gate.support), len(table)
                deltas: dict = {}
                signs = np.empty(size)
                shifts = (2, 0)[2 - k:]  # of each support qubit's pair in a joint code
                for i in range(size):  # joint bit pair; the table takes the joint site code
                    out, signs[i] = table[sum(BITS_TO_CODE[(i >> s) & 3] << s for s in shifts)]
                    for q, s in zip(gate.support, shifts):
                        bp, (xb, zb) = (i >> s) & 3, CODE_TO_BITS[(out >> s) & 3]
                        dx, dz = deltas.setdefault(q >> 6, ([0] * size, [0] * size))
                        dx[i] |= (xb ^ (bp & 1)) << (q & 63)
                        dz[i] |= (zb ^ (bp >> 1)) << (q & 63)
                words = tuple(
                    (j, np.array(dx, dtype=np.uint64), np.array(dz, dtype=np.uint64))
                    for j, (dx, dz) in deltas.items()
                )
                steps.append(("cliff", gate.support, words, signs))
            elif isinstance(gate, RandomSingleQubitClifford):
                steps.append(("ucliff", gate.qubit))
            else:  # pragma: no cover - exhaustive over gate variants
                raise ValueError(f"unsupported gate {gate!r}")
        steps.append(("layer_end",))
    return steps


class _Frontier:
    """Frontier of n-qubit terms as parallel columns; keys (x, z, w) unique only after merges."""

    __slots__ = ("n", "x", "z", "w", "c", "merged_len")

    def __init__(self, n, x, z, w, c):
        self.n, self.x, self.z, self.w, self.c = n, x, z, w, c
        self.merged_len = len(c)

    def __len__(self) -> int:
        return len(self.c)

    def select(self, keep: np.ndarray) -> None:
        self.x = np.compress(keep, self.x, axis=1)
        self.z = np.compress(keep, self.z, axis=1)
        self.w, self.c = self.w[keep], self.c[keep]

    def append(self, xs, zs, ws, cs) -> None:
        """Append new rows, given as lists of column blocks."""
        self.x = np.concatenate((self.x, *xs), axis=1)
        self.z = np.concatenate((self.z, *zs), axis=1)
        self.w = np.concatenate((self.w, *ws))
        self.c = np.concatenate((self.c, *cs))

    def merge(self) -> None:
        """Sum the coefficients of equal (x, z, w) rows and drop zero sums.

        Rows come out sorted by x, then z, then w, the masks compared as
        integers.  The sort is stable, so each group sums its coefficients
        in their current row order.  When one word holds the masks and
        2n + bits(max w) <= 64, the sort key is the single packed word
        ``x << (n + wb) | z << wb | w`` (wb = bits(max w)), whose integer
        order is that order; otherwise the keys are ``(w, *z, *x)``, the
        last one primary and the masks most significant word first.
        """
        m = len(self.c)
        if m == 0:
            self.merged_len = 0
            return
        n, wb = self.n, int(self.w.max()).bit_length()
        if self.x.shape[0] == 1 and 2 * n + wb <= 64:
            key = self.x[0] << np.uint64(n + wb)
            key |= self.z[0] << np.uint64(wb)
            key |= self.w.view(np.uint64)  # weights are nonnegative
            keys = (key,)
        else:
            keys = (self.w, *self.z, *self.x)
        order = np.lexsort(keys)
        first = np.zeros(m, dtype=bool)
        first[0] = True
        for key in keys:
            ranked = key[order]
            first[1:] |= ranked[1:] != ranked[:-1]
        idx = np.flatnonzero(first)
        sums = np.add.reduceat(self.c[order], idx)
        keep = sums != 0.0
        rows = order[idx[keep]]
        self.x, self.z = np.take(self.x, rows, axis=1), np.take(self.z, rows, axis=1)
        self.w, self.c = self.w[rows], sums[keep]
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


def _odd_parity(paths, reads, acc: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = 1 where a path anticommutes with the generator, else 0.

    ``paths[side][j]`` is word j of the x (side 0) or z (side 1) masks, so
    both an ``(x, z)`` pair and a ``(2, W, m)`` array work.
    """
    if not reads:
        out.fill(0)
        return out
    (side, j, w), *rest = reads
    np.bitwise_and(paths[side][j], w, out=acc)
    for side, j, w in rest:
        acc ^= np.bitwise_and(paths[side][j], w, out=tmp)
    # XOR across words keeps the parity of the summed popcounts
    np.bitwise_count(acc, out=out)
    out &= 1
    return out


def _fold(paths, writes, flip: np.ndarray | None = None, tmp: np.ndarray | None = None) -> None:
    """Multiply the paths where ``flip`` is 1 (all when None) by the generator, signs dropped."""
    for side, j, w in writes:
        paths[side][j] ^= w if flip is None else np.multiply(flip, w, out=tmp)


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


def _np_rotation(f: _Frontier, reads, writes, phase: int, angle: float) -> None:
    cos_t, sin_t = _cos_sin(angle)
    m = len(f)
    scratch = (np.empty(m, dtype=np.uint64), np.empty(m, dtype=np.uint64))
    anti = _odd_parity((f.x, f.z), reads, *scratch, np.empty(m, dtype=np.uint8)).view(bool)
    if not anti.any():
        return
    branch = None
    if sin_t != 0.0:
        xa = np.compress(anti, f.x, axis=1)
        za = np.compress(anti, f.z, axis=1)
        # G*P = i^e * folded with e = phase + |x & z| - |x2 & z2| + 2 |gz & x|,
        # where the words the generator leaves alone cancel out of e
        e = np.full(xa.shape[1], phase, dtype=np.int64)
        words = sorted({j for _, j, _ in writes})
        for side, j, w in reads:
            if side == 0:
                e += 2 * np.bitwise_count(xa[j] & w)
        for j in words:
            e += np.bitwise_count(xa[j] & za[j])
        _fold((xa, za), writes)
        for j in words:
            e -= np.bitwise_count(xa[j] & za[j])
        sign = np.where((e + 1) & 3 == 0, 1.0, -1.0)  # i*G*P = i^(e+1) * folded
        branch = ([xa], [za], [f.w[anti]], [f.c[anti] * (sin_t * sign)])
    if cos_t == 0.0:
        f.select(~anti)
    else:
        f.c = np.where(anti, f.c * cos_t, f.c)
    if branch is not None:
        f.append(*branch)


def _np_clifford(f: _Frontier, support, deltas, signs: np.ndarray) -> None:
    scratch = (np.empty(len(f), dtype=np.uint64) for _ in range(3))
    code = _clifford((f.x, f.z), support, deltas, *scratch)
    f.c = f.c * signs[code]


def _np_noise(f: _Frontier, q: int, ptm: np.ndarray) -> None:
    j, s, bp = _site(f.x, f.z, q)
    clear = ~(np.uint64(1) << s)
    pieces = ([], [], [], [])  # blocks of x, z, w, c for the appended rows
    # first output of each non-identity input rewrites in place; extras append
    scale = np.ones(len(f))
    drop = np.zeros(len(f), dtype=bool)
    xj, zj = f.x[j], f.z[j]  # views: writes land in the frontier
    for code in range(1, 4):
        sel = bp == code
        if not sel.any():
            continue
        outs = [(CODE_TO_BITS[b], coeff) for b, coeff in enumerate(ptm[code]) if coeff != 0.0]
        if not outs:
            drop |= sel
            continue
        (xb, zb), coeff = outs[0]
        scale[sel] = coeff
        xj[sel] = (xj[sel] & clear) | (np.uint64(xb) << s)
        zj[sel] = (zj[sel] & clear) | (np.uint64(zb) << s)
        for (xb, zb), coeff in outs[1:]:
            x2 = np.compress(sel, f.x, axis=1)
            z2 = np.compress(sel, f.z, axis=1)
            x2[j] = (x2[j] & clear) | (np.uint64(xb) << s)
            z2[j] = (z2[j] & clear) | (np.uint64(zb) << s)
            for piece, col in zip(pieces, (x2, z2, f.w[sel], f.c[sel] * coeff)):
                piece.append(col)
    f.c = f.c * scale
    if drop.any():
        f.select(~drop)
    if pieces[0]:
        f.append(*pieces)


_KERNELS = {"rot": _np_rotation, "cliff": _np_clifford, "noise": _np_noise}


def _np_aux_filter(f: _Frontier, trunc: TruncationConfig, stats: BackpropStats) -> None:
    if trunc.coeff_cutoff == 0.0 and trunc.xy_count_cutoff is None and trunc.current_weight_cutoff is None:
        return
    keep = np.ones(len(f), dtype=bool)
    if trunc.coeff_cutoff > 0.0:
        bad = np.abs(f.c) < trunc.coeff_cutoff
        stats.paths_discarded_by_coeff += int(bad.sum())
        keep &= ~bad
    if trunc.xy_count_cutoff is not None:
        bad = (_popcount(f.x) > trunc.xy_count_cutoff) & keep
        stats.paths_discarded_by_xy += int(bad.sum())
        keep &= ~bad
    if trunc.current_weight_cutoff is not None:
        bad = (_popcount(f.x | f.z) > trunc.current_weight_cutoff) & keep
        stats.paths_discarded_by_current_weight += int(bad.sum())
        keep &= ~bad
    if not keep.all():
        f.select(keep)


def _drop_heavy(f: _Frontier, k: int | None, stats: BackpropStats) -> None:
    """Drop the rows with accumulated weight >= k (none if k is None); merged stays merged."""
    if k is not None:
        keep = f.w < k
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
    track_weights: bool | None = None,
    max_terms: int | None = None,
    engine: str = "auto",
) -> BackpropResult:
    """Adjoint-evolve an observable through the circuit with truncation.

    Processing runs from the last layer to the first: the final
    single-qubit layer and any trailing noiseless layers first (they add
    no weight beyond the seed terms' own), then each damping-terminated
    unit.  Before every noise round except the first one the walk ever
    crosses, the current Pauli weight of every term is added to its
    accumulated weight; terms reaching the cutoff are dropped.

    ``seed`` is the observable, or the result of an earlier call, whose
    frontier the walk then continues: ``backpropagate(c1,
    backpropagate(c2, obs))`` equals ``backpropagate(c1 then c2, obs)``
    term for term.  A resumed seed must have the same qubit count and
    ``trunc``; its weight tracking carries over.  ``stats`` count this
    call only.  A circuit with placeholders raises ``ValueError``.

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
    k = trunc.path_weight_cutoff
    stats = BackpropStats()
    if isinstance(seed, BackpropResult):
        if seed.trunc != trunc:
            raise ValueError("seed result was propagated with a different truncation")
        if track_weights is not None and k is None and bool(track_weights) != seed.tracked:
            raise ValueError("seed result was propagated with different weight tracking")
        track, crossed = seed.tracked, seed.crossed_noise
        # copies: the kernels below rewrite the columns in place
        f = _Frontier(seed.n, *(np.array(col) for col in (seed.x, seed.z, seed.w, seed.c)))
    else:
        if not seed:
            raise ValueError("observable has no terms")
        track, crossed = k is not None or bool(track_weights), False
        f = _Frontier(seed.n, *_seed_columns(seed))  # unique Paulis: already merged
        _drop_heavy(f, k, stats)
        if not track:
            f.w[:] = 0
        _np_aux_filter(f, trunc, stats)
    stats.peak_term_count = len(f)

    for step in _compile(circuit, crossed):
        kind = step[0]
        if kind in _KERNELS:
            _KERNELS[kind](f, *step[1:])
            if len(f) > 4 * max(f.merged_len, 1 << 16):
                f.merge()
        elif kind == "layer_end":
            f.merge()
            _np_aux_filter(f, trunc, stats)
            stats.peak_term_count = max(stats.peak_term_count, len(f))
            if max_terms is not None and len(f) > max_terms:
                raise FrontierOverflowError(f"frontier exceeded {max_terms} terms")
        elif kind == "noise_end":
            crossed = True
            f.merge()
            stats.peak_term_count = max(stats.peak_term_count, len(f))
        elif track:  # the weight boundary: no "ucliff" step survives the template check
            f.w = f.w + _popcount(f.x | f.z)
            _drop_heavy(f, k, stats)

    f.merge()
    stats.surviving_path_count = len(f)
    return BackpropResult(
        circuit.n,
        _frozen(f.x),
        _frozen(f.z),
        _frozen(f.w),
        _frozen(f.c),
        stats,
        trunc,
        track,
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

