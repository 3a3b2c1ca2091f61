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
and coefficients of the m terms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .circuits import (
    Circuit,
    CliffordGate,
    PauliRotation,
    clifford_adjoint_table,
    noisy_units,
    truncate_to_last_layers,
)
from .pauli import (
    BITS_TO_CODE,
    CODE_TO_BITS,
    PauliString,
    PauliSum,
    ProductState,
    QubitCountMismatch,
    expectation_product_state,  # noqa: F401  (kept importable from this module)
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

    @property
    def is_exact(self) -> bool:
        return (
            self.path_weight_cutoff is None
            and self.coeff_cutoff == 0.0
            and self.xy_count_cutoff is None
            and self.current_weight_cutoff is None
        )

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
            if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                raise ValueError(f"truncation {key!r} must be an integer or null, not {v!r}")
            return None if v is None else int(v)

        coeff = obj.get("coeff_cutoff")
        if coeff is not None and (
            isinstance(coeff, bool)
            or not isinstance(coeff, numbers.Real)
            or not math.isfinite(coeff)
        ):
            raise ValueError(f"truncation 'coeff_cutoff' must be a finite number, not {coeff!r}")
        return cls(
            path_weight_cutoff=count("k"),
            coeff_cutoff=float(coeff or 0.0),
            xy_count_cutoff=count("xy_cutoff"),
            current_weight_cutoff=count("current_weight_cutoff"),
        )


EXACT = TruncationConfig()


@dataclass(frozen=True)
class WeightedTerm:
    pauli: PauliString
    weight: int
    coeff: float


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

    @cached_property
    def weighted_terms(self) -> tuple[WeightedTerm, ...]:
        n = self.n
        return tuple(
            WeightedTerm(PauliString(n, x, z), w, c)
            for x, z, w, c in zip(
                _join_words(self.x), _join_words(self.z), self.w.tolist(), self.c.tolist()
            )
        )

    def dropped_above(self, k: int) -> PauliSum:
        """Merged sum of the weight-tracked terms with accumulated weight >= k."""
        return self._pauli_sum(self.w >= k)

    def kept_below(self, k: int) -> PauliSum:
        return self._pauli_sum(self.w < k)

    def to_json_obj(self) -> dict:
        return {"terms": self.terms.to_json_obj(), "stats": self.stats.to_json_obj()}


def _cos_sin(angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    # angles at multiples of pi/2 make the rotation Clifford; snap so the
    # vanishing branch is never created
    if abs(c) < 1e-15:
        c = 0.0
    if abs(s) < 1e-15:
        s = 0.0
    return c, s


_BIT_TABLE_CACHE: dict = {}


def _clifford_bit_tables(gate: CliffordGate):
    """Adjoint table translated to (x bits, z bits, sign) on bit-pair codes."""
    key = (gate.name, len(gate.support))
    cached = _BIT_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    table = clifford_adjoint_table(gate.name)
    if len(gate.support) == 1:
        out = []
        for bp in range(4):
            code = BITS_TO_CODE[bp]
            oc, sign = table[code]
            xb, zb = CODE_TO_BITS[oc]
            out.append((xb, zb, float(sign)))
        _BIT_TABLE_CACHE[key] = out
        return out
    out2 = []
    for bp0 in range(4):
        for bp1 in range(4):
            joint = BITS_TO_CODE[bp0] * 4 + BITS_TO_CODE[bp1]
            oj, sign = table[joint]
            xb0, zb0 = CODE_TO_BITS[oj >> 2]
            xb1, zb1 = CODE_TO_BITS[oj & 3]
            out2.append((xb0, zb0, xb1, zb1, float(sign)))
    _BIT_TABLE_CACHE[key] = out2
    return out2


def _noise_bit_rows(ch) -> list:
    """Adjoint rows re-indexed by bit-pair code: rows[bp] = ((x, z, coeff), ...)."""
    rows = ch.adjoint_rows()
    out = []
    for bp in range(4):
        code = BITS_TO_CODE[bp]
        entries = []
        for b, coeff in rows[code]:
            xb, zb = CODE_TO_BITS[b]
            entries.append((xb, zb, coeff))
        out.append(tuple(entries))
    return out


def _cached_rows(row_cache: dict, ch) -> list:
    """Bit-pair rows of ``ch``, computed once per channel object and walk."""
    rows = row_cache.get(id(ch))
    if rows is None:
        rows = row_cache[id(ch)] = _noise_bit_rows(ch)
    return rows


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


class _Frontier:
    """Frontier as parallel columns; keys (x, z, w) unique only after merges."""

    __slots__ = ("x", "z", "w", "c", "merged_len")

    def __init__(self, x, z, w, c):
        self.x, self.z, self.w, self.c = x, z, w, c
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
        if len(self.c) == 0:
            self.merged_len = 0
            return
        # the last key is primary: rows sort by x, then z, then w, with the
        # masks compared as integers (most significant word first)
        order = np.lexsort((self.w, *self.z, *self.x))
        x = np.take(self.x, order, axis=1)
        z = np.take(self.z, order, axis=1)
        w, c = self.w[order], self.c[order]
        first = np.empty(len(c), dtype=bool)
        first[0] = True
        first[1:] = w[1:] != w[:-1]
        first[1:] |= np.any(x[:, 1:] != x[:, :-1], axis=0)
        first[1:] |= np.any(z[:, 1:] != z[:, :-1], axis=0)
        idx = np.flatnonzero(first)
        sums = np.add.reduceat(c, idx)
        keep = sums != 0.0
        rows = idx[keep]
        self.x, self.z = np.take(x, rows, axis=1), np.take(z, rows, axis=1)
        self.w, self.c = w[rows], sums[keep]
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


def _np_rotation(f: _Frontier, gate: PauliRotation, n: int) -> None:
    if gate.angle is None:
        raise ValueError("circuit has unresolved ensemble placeholders")
    gx_int, gz_int = gate.embedded_masks(n)
    gx, gz = _split_words([gx_int], n), _split_words([gz_int], n)
    cos_t, sin_t = _cos_sin(gate.angle)
    # popcount(a) + popcount(b) has the parity of popcount(a ^ b)
    anti = (_popcount((f.x & gz) ^ (f.z & gx)) & 1).astype(bool)
    if not anti.any():
        return
    branch = None
    if sin_t != 0.0:
        xa = np.compress(anti, f.x, axis=1)
        za = np.compress(anti, f.z, axis=1)
        x2, z2 = xa ^ gx, za ^ gz
        m = (
            (gx_int & gz_int).bit_count()
            + _popcount(xa & za)
            - _popcount(x2 & z2)
            + 2 * _popcount(gz & xa)
        ) & 3
        sign = np.where((m + 1) & 3 == 0, 1.0, -1.0)  # i*G*P = i^(m+1) * folded
        branch = ([x2], [z2], [f.w[anti]], [f.c[anti] * (sin_t * sign)])
    if cos_t == 0.0:
        f.select(~anti)
    else:
        f.c = np.where(anti, f.c * cos_t, f.c)
    if branch is not None:
        f.append(*branch)


def _np_clifford(f: _Frontier, gate: CliffordGate) -> None:
    # one table row per input bit-pair code: (x, z) per support qubit, then the sign
    bits = np.array(_clifford_bit_tables(gate))
    sites = [_site(f.x, f.z, q) for q in gate.support]  # read before any write
    code = sites[0][2]
    if len(sites) == 2:
        code = (code << 2) | sites[1][2]
    for i, (j, s, _) in enumerate(sites):
        clear = ~(np.uint64(1) << s)
        f.x[j] = (f.x[j] & clear) | (bits[:, 2 * i].astype(np.uint64)[code] << s)
        f.z[j] = (f.z[j] & clear) | (bits[:, 2 * i + 1].astype(np.uint64)[code] << s)
    f.c = f.c * bits[:, -1][code]


def _np_noise(f: _Frontier, noise, n: int, row_cache: dict) -> None:
    for q in range(n):
        ch = noise[q]
        if ch is None or ch.is_identity:
            continue
        rows = _cached_rows(row_cache, ch)
        j, s, bp = _site(f.x, f.z, q)
        clear = ~(np.uint64(1) << s)
        pieces = ([], [], [], [])  # blocks of x, z, w, c for the appended rows
        # first output of each non-identity row rewrites in place; extras append
        scale = np.ones(len(f))
        drop = np.zeros(len(f), dtype=bool)
        xj, zj = f.x[j], f.z[j]  # views: writes land in the frontier
        for code in range(1, 4):
            sel = bp == code
            if not sel.any():
                continue
            entries = rows[code]
            if not entries:
                drop |= sel
                continue
            xb, zb, coeff = entries[0]
            scale[sel] = coeff
            xj[sel] = (xj[sel] & clear) | (np.uint64(xb) << s)
            zj[sel] = (zj[sel] & clear) | (np.uint64(zb) << s)
            for xb, zb, coeff in entries[1:]:
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
        if len(f) > 4 * max(f.merged_len, 1 << 16):
            f.merge()


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


def _run_numpy(circuit, seed, trunc, track, max_terms) -> tuple[_Frontier, BackpropStats, bool]:
    k = trunc.path_weight_cutoff
    stats = BackpropStats()
    n = circuit.n

    if isinstance(seed, BackpropResult):
        # copies: the kernels below rewrite the columns in place
        f = _Frontier(
            np.array(seed.x, dtype=np.uint64),
            np.array(seed.z, dtype=np.uint64),
            np.array(seed.w, dtype=np.int64),
            np.array(seed.c, dtype=np.float64),
        )
        crossed = seed.crossed_noise
    else:
        seeds = [(p, c) for p, c in seed.items()]
        if k is not None:
            kept = [(p, c) for p, c in seeds if p.weight < k]
            stats.paths_discarded_by_weight += len(seeds) - len(kept)
            seeds = kept
        f = _Frontier(
            _split_words([p.x for p, _ in seeds], n),
            _split_words([p.z for p, _ in seeds], n),
            np.array([p.weight if track else 0 for p, _ in seeds], dtype=np.int64),
            np.array([c for _, c in seeds], dtype=np.float64),
        )
        _np_aux_filter(f, trunc, stats)
        crossed = False
    stats.peak_term_count = len(f)

    row_cache: dict = {}
    for op in _backward_ops(circuit, crossed):
        kind = op[0]
        if kind == "layer":
            for gate in op[1].gates:
                if isinstance(gate, PauliRotation):
                    _np_rotation(f, gate, n)
                elif isinstance(gate, CliffordGate):
                    _np_clifford(f, gate)
                else:
                    raise ValueError("circuit has unresolved ensemble placeholders")
                if len(f) > 4 * max(f.merged_len, 1 << 16):
                    f.merge()
            f.merge()
            _np_aux_filter(f, trunc, stats)
            stats.peak_term_count = max(stats.peak_term_count, len(f))
            if max_terms is not None and len(f) > max_terms:
                raise FrontierOverflowError(f"frontier exceeded {max_terms} terms")
        elif kind == "noise":
            crossed = True
            _np_noise(f, op[1], n, row_cache)
            f.merge()
            stats.peak_term_count = max(stats.peak_term_count, len(f))
        elif track:  # weight boundary
            w2 = f.w + _popcount(f.x | f.z)
            if k is not None:
                keep = w2 < k
                stats.paths_discarded_by_weight += int(len(keep) - keep.sum())
                f.w = w2
                f.select(keep)
            else:
                f.w = w2
            f.merged_len = len(f)

    f.merge()
    stats.surviving_path_count = len(f)
    return f, stats, crossed


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
    call only.

    One engine serves every qubit count.  ``engine`` is kept only for the
    benchmark's light-cone reference (``perfbench/worker.py``), which
    passes "numpy"; "auto" and "numpy" run the same walk and any other
    value raises ``ValueError``.
    """
    if engine not in ("auto", "numpy"):
        raise ValueError(f"unknown engine {engine!r}")
    if seed.n != circuit.n:
        raise QubitCountMismatch("circuit and seed qubit counts differ")
    k = trunc.path_weight_cutoff
    if isinstance(seed, BackpropResult):
        if seed.trunc != trunc:
            raise ValueError("seed result was propagated with a different truncation")
        if track_weights is not None and k is None and bool(track_weights) != seed.tracked:
            raise ValueError("seed result was propagated with different weight tracking")
        track = seed.tracked
    else:
        if not seed:
            raise ValueError("observable has no terms")
        track = True if k is not None else bool(track_weights)
    f, stats, crossed = _run_numpy(circuit, seed, trunc, track, max_terms)
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


def expectation(result: BackpropResult, state: ProductState) -> float:
    """Overlap of the backpropagated observable with a product state."""
    n = result.n
    if n != state.n:
        raise QubitCountMismatch(f"observable on {n} qubits, state on {state.n}")
    vals = _bloch_scale(np.array(result.c, dtype=np.float64), result.x, result.z, state)
    return math.fsum(vals.tolist())


def effective_depth_compare(
    circuit: Circuit,
    observable: PauliSum,
    rho: ProductState,
    sigma: ProductState,
    j: int,
    trunc: TruncationConfig = EXACT,
) -> tuple[float, float, float]:
    """Expectation from the full circuit on rho vs the last j+1 units on sigma."""
    full = expectation(backpropagate(circuit, observable, trunc), rho)
    shallow = expectation(
        backpropagate(truncate_to_last_layers(circuit, j), observable, trunc), sigma
    )
    return full, shallow, abs(full - shallow)
