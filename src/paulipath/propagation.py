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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .circuits import (
    Circuit,
    CliffordGate,
    Layer,
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
        return cls(
            path_weight_cutoff=obj.get("k"),
            coeff_cutoff=float(obj.get("coeff_cutoff") or 0.0),
            xy_count_cutoff=obj.get("xy_cutoff"),
            current_weight_cutoff=obj.get("current_weight_cutoff"),
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


@dataclass(frozen=True, eq=False)
class BackpropResult:
    """Backpropagated observable as a columnar frontier.

    Row i is the term ``c[i] * P(x[i], z[i])`` reached with accumulated
    weight ``w[i]``; rows are unique in (x, z, w) and sorted by it.  The
    masks are uint64 on the numpy engine and Python ints in an object
    array on the dict engine.  ``trunc``, ``tracked`` (weights were
    accumulated) and ``crossed_noise`` (the walk has passed a noise
    round) let the result seed a further ``backpropagate`` call.  The
    Pauli-object views are built on first access only.
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
                    self.x[rows].tolist(), self.z[rows].tolist(), self.c[rows].tolist()
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
                self.x.tolist(), self.z.tolist(), self.w.tolist(), self.c.tolist()
            )
        )

    def dropped_above(self, k: int) -> PauliSum:
        """Merged sum of the weight-tracked terms with accumulated weight >= k."""
        return self._pauli_sum(self.w >= k)

    def kept_below(self, k: int) -> PauliSum:
        return self._pauli_sum(self.w < k)

    def to_json_obj(self) -> dict:
        return {"terms": self.terms.to_json_obj(), "stats": self.stats.to_json_obj()}


def _add(frontier: dict, key: tuple, value: float) -> None:
    new = frontier.get(key, 0.0) + value
    if new == 0.0:
        frontier.pop(key, None)
    else:
        frontier[key] = new


def _cos_sin(angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    # angles at multiples of pi/2 make the rotation Clifford; snap so the
    # vanishing branch is never created
    if abs(c) < 1e-15:
        c = 0.0
    if abs(s) < 1e-15:
        s = 0.0
    return c, s


def _apply_rotation(frontier: dict, gate: PauliRotation, n: int) -> dict:
    if gate.angle is None:
        raise ValueError("circuit has unresolved ensemble placeholders")
    gx, gz = gate.embedded_masks(n)
    c, s = _cos_sin(gate.angle)
    gphase = (gx & gz).bit_count()
    new: dict = {}
    for (x, z, w), a in frontier.items():
        if ((x & gz).bit_count() + (z & gx).bit_count()) & 1 == 0:
            _add(new, (x, z, w), a)
            continue
        if c != 0.0:
            _add(new, (x, z, w), a * c)
        if s != 0.0:
            x2, z2 = x ^ gx, z ^ gz
            m = (
                gphase
                + (x & z).bit_count()
                - (x2 & z2).bit_count()
                + 2 * (gz & x).bit_count()
            ) & 3
            sign = 1.0 if (m + 1) & 3 == 0 else -1.0  # i*G*P = i^(m+1) * folded
            _add(new, (x2, z2, w), a * s * sign)
    return new


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


def _apply_clifford(frontier: dict, gate: CliffordGate) -> dict:
    bits = _clifford_bit_tables(gate)
    new: dict = {}
    if len(gate.support) == 1:
        q = gate.support[0]
        notq = ~(1 << q)
        for (x, z, w), a in frontier.items():
            bp = ((x >> q) & 1) | (((z >> q) & 1) << 1)
            xb, zb, sign = bits[bp]
            _add(new, ((x & notq) | (xb << q), (z & notq) | (zb << q), w), a * sign)
        return new
    q0, q1 = gate.support
    clear = ~((1 << q0) | (1 << q1))
    for (x, z, w), a in frontier.items():
        bp0 = ((x >> q0) & 1) | (((z >> q0) & 1) << 1)
        bp1 = ((x >> q1) & 1) | (((z >> q1) & 1) << 1)
        xb0, zb0, xb1, zb1, sign = bits[bp0 * 4 + bp1]
        x2 = (x & clear) | (xb0 << q0) | (xb1 << q1)
        z2 = (z & clear) | (zb0 << q0) | (zb1 << q1)
        _add(new, (x2, z2, w), a * sign)
    return new


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


def _apply_noise(frontier: dict, noise, n: int, row_cache: dict) -> dict:
    for q in range(n):
        ch = noise[q]
        if ch is None or ch.is_identity:
            continue
        rows = _cached_rows(row_cache, ch)
        bitq = 1 << q
        notq = ~bitq
        new: dict = {}
        for (x, z, w), a in frontier.items():
            bp = ((x >> q) & 1) | (((z >> q) & 1) << 1)
            if bp == 0:
                _add(new, (x, z, w), a)
                continue
            for xb, zb, coeff in rows[bp]:
                _add(new, ((x & notq) | (xb << q), (z & notq) | (zb << q), w), a * coeff)
        frontier = new
    return frontier


def _aux_filter(frontier: dict, trunc: TruncationConfig, stats: BackpropStats) -> dict:
    if trunc.coeff_cutoff == 0.0 and trunc.xy_count_cutoff is None and trunc.current_weight_cutoff is None:
        return frontier
    out: dict = {}
    for key, a in frontier.items():
        x, z, _ = key
        if trunc.coeff_cutoff > 0.0 and abs(a) < trunc.coeff_cutoff:
            stats.paths_discarded_by_coeff += 1
            continue
        if trunc.xy_count_cutoff is not None and x.bit_count() > trunc.xy_count_cutoff:
            stats.paths_discarded_by_xy += 1
            continue
        if (
            trunc.current_weight_cutoff is not None
            and (x | z).bit_count() > trunc.current_weight_cutoff
        ):
            stats.paths_discarded_by_current_weight += 1
            continue
        out[key] = a
    return out


def _apply_gates(frontier: dict, layer: Layer, n: int) -> dict:
    for gate in layer.gates:
        if isinstance(gate, PauliRotation):
            frontier = _apply_rotation(frontier, gate, n)
        elif isinstance(gate, CliffordGate):
            frontier = _apply_clifford(frontier, gate)
        else:
            raise ValueError("circuit has unresolved ensemble placeholders")
    return frontier


class FrontierOverflowError(RuntimeError):
    """The term frontier outgrew the configured budget."""


def _run_dict(circuit, seed, trunc, track, max_terms) -> tuple[dict, BackpropStats, bool]:
    k = trunc.path_weight_cutoff
    stats = BackpropStats()
    n = circuit.n

    if isinstance(seed, BackpropResult):
        frontier = dict(
            zip(zip(seed.x.tolist(), seed.z.tolist(), seed.w.tolist()), seed.c.tolist())
        )
        crossed = seed.crossed_noise
    else:
        frontier = {}
        for p, c in seed.items():
            if k is not None and p.weight >= k:
                stats.paths_discarded_by_weight += 1
                continue
            _add(frontier, (p.x, p.z, p.weight if track else 0), c)
        frontier = _aux_filter(frontier, trunc, stats)
        crossed = False
    stats.peak_term_count = len(frontier)

    units, trailing = noisy_units(circuit)
    row_cache: dict = {}

    def after_layer(front: dict) -> dict:
        front = _aux_filter(front, trunc, stats)
        stats.peak_term_count = max(stats.peak_term_count, len(front))
        if max_terms is not None and len(front) > max_terms:
            raise FrontierOverflowError(f"frontier exceeded {max_terms} terms")
        return front

    if circuit.final_layer is not None:
        frontier = after_layer(_apply_gates(frontier, circuit.final_layer, n))
    for layer in reversed(trailing):
        frontier = after_layer(_apply_gates(frontier, layer, n))

    for unit in reversed(units):
        if crossed and track:
            boundary: dict = {}
            for (x, z, w), a in frontier.items():
                w2 = w + (x | z).bit_count()
                if k is not None and w2 >= k:
                    stats.paths_discarded_by_weight += 1
                    continue
                _add(boundary, (x, z, w2), a)
            frontier = boundary
        crossed = True
        frontier = _apply_noise(frontier, unit[-1].noise, n, row_cache)
        stats.peak_term_count = max(stats.peak_term_count, len(frontier))
        for layer in reversed(unit):
            frontier = after_layer(_apply_gates(frontier, layer, n))
    stats.surviving_path_count = len(frontier)
    return frontier, stats, crossed


# --- vectorized engine (n <= 64) ----------------------------------------------------


class _Frontier:
    """Frontier as parallel arrays; keys (x, z, w) unique only after merges."""

    __slots__ = ("x", "z", "w", "c", "merged_len")

    def __init__(self, x, z, w, c):
        self.x, self.z, self.w, self.c = x, z, w, c
        self.merged_len = len(x)

    def __len__(self) -> int:
        return len(self.x)

    def merge(self) -> None:
        if len(self.x) == 0:
            self.merged_len = 0
            return
        order = np.lexsort((self.w, self.z, self.x))
        x, z, w, c = self.x[order], self.z[order], self.w[order], self.c[order]
        first = np.empty(len(x), dtype=bool)
        first[0] = True
        first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1]) | (w[1:] != w[:-1])
        idx = np.flatnonzero(first)
        sums = np.add.reduceat(c, idx)
        keep = sums != 0.0
        self.x, self.z, self.w, self.c = x[idx][keep], z[idx][keep], w[idx][keep], sums[keep]
        self.merged_len = len(self.x)


def _popcount(v: np.ndarray) -> np.ndarray:
    return np.bitwise_count(v).astype(np.int64)


def _np_rotation(f: _Frontier, gate: PauliRotation, n: int) -> None:
    if gate.angle is None:
        raise ValueError("circuit has unresolved ensemble placeholders")
    gx, gz = gate.embedded_masks(n)
    cos_t, sin_t = _cos_sin(gate.angle)
    gxv, gzv = np.uint64(gx), np.uint64(gz)
    anti = (_popcount(f.x & gzv) + _popcount(f.z & gxv)) & 1 == 1
    if not anti.any():
        return
    if sin_t != 0.0:
        x2 = f.x[anti] ^ gxv
        z2 = f.z[anti] ^ gzv
        m = (
            (gx & gz).bit_count()
            + _popcount(f.x[anti] & f.z[anti])
            - _popcount(x2 & z2)
            + 2 * _popcount(gzv & f.x[anti])
        ) & 3
        sign = np.where((m + 1) & 3 == 0, 1.0, -1.0)
        branch = (x2, z2, f.w[anti], f.c[anti] * (sin_t * sign))
    else:
        branch = None
    if cos_t == 0.0:
        keep = ~anti
        f.x, f.z, f.w, f.c = f.x[keep], f.z[keep], f.w[keep], f.c[keep]
    else:
        f.c = np.where(anti, f.c * cos_t, f.c)
    if branch is not None:
        f.x = np.concatenate((f.x, branch[0]))
        f.z = np.concatenate((f.z, branch[1]))
        f.w = np.concatenate((f.w, branch[2]))
        f.c = np.concatenate((f.c, branch[3]))


def _np_clifford(f: _Frontier, gate: CliffordGate) -> None:
    bits = _clifford_bit_tables(gate)
    if len(gate.support) == 1:
        q = gate.support[0]
        qv = np.uint64(q)
        bit = np.uint64(1 << q)
        bp = ((f.x >> qv) & 1) | (((f.z >> qv) & 1) << np.uint64(1))
        xb = np.array([e[0] for e in bits], dtype=np.uint64)[bp]
        zb = np.array([e[1] for e in bits], dtype=np.uint64)[bp]
        sg = np.array([e[2] for e in bits])[bp]
        f.x = (f.x & ~bit) | (xb << qv)
        f.z = (f.z & ~bit) | (zb << qv)
        f.c = f.c * sg
        return
    q0, q1 = gate.support
    q0v, q1v = np.uint64(q0), np.uint64(q1)
    clear = np.uint64(~((1 << q0) | (1 << q1)) & ((1 << 64) - 1))
    bp0 = ((f.x >> q0v) & 1) | (((f.z >> q0v) & 1) << np.uint64(1))
    bp1 = ((f.x >> q1v) & 1) | (((f.z >> q1v) & 1) << np.uint64(1))
    joint = (bp0 << np.uint64(2)) | bp1
    xb0 = np.array([e[0] for e in bits], dtype=np.uint64)[joint]
    zb0 = np.array([e[1] for e in bits], dtype=np.uint64)[joint]
    xb1 = np.array([e[2] for e in bits], dtype=np.uint64)[joint]
    zb1 = np.array([e[3] for e in bits], dtype=np.uint64)[joint]
    sg = np.array([e[4] for e in bits])[joint]
    f.x = (f.x & clear) | (xb0 << q0v) | (xb1 << q1v)
    f.z = (f.z & clear) | (zb0 << q0v) | (zb1 << q1v)
    f.c = f.c * sg


def _np_noise(f: _Frontier, noise, n: int, row_cache: dict) -> None:
    for q in range(n):
        ch = noise[q]
        if ch is None or ch.is_identity:
            continue
        rows = _cached_rows(row_cache, ch)
        qv = np.uint64(q)
        bit = np.uint64(1 << q)
        bp = (((f.x >> qv) & 1) | (((f.z >> qv) & 1) << np.uint64(1))).astype(np.int64)
        pieces_x, pieces_z, pieces_w, pieces_c = [], [], [], []
        # first output of each non-identity row rewrites in place; extras append
        scale = np.ones(len(f.x))
        drop = np.zeros(len(f.x), dtype=bool)
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
            if xb or zb:
                f.x[sel] = (f.x[sel] & ~bit) | (np.uint64(xb) << qv)
                f.z[sel] = (f.z[sel] & ~bit) | (np.uint64(zb) << qv)
            else:
                f.x[sel] = f.x[sel] & ~bit
                f.z[sel] = f.z[sel] & ~bit
            for xb, zb, coeff in entries[1:]:
                pieces_x.append((f.x[sel] & ~bit) | (np.uint64(xb) << qv))
                pieces_z.append((f.z[sel] & ~bit) | (np.uint64(zb) << qv))
                pieces_w.append(f.w[sel])
                pieces_c.append(f.c[sel] * coeff)
        f.c = f.c * scale
        if drop.any():
            keep = ~drop
            f.x, f.z, f.w, f.c = f.x[keep], f.z[keep], f.w[keep], f.c[keep]
        if pieces_x:
            f.x = np.concatenate((f.x, *pieces_x))
            f.z = np.concatenate((f.z, *pieces_z))
            f.w = np.concatenate((f.w, *pieces_w))
            f.c = np.concatenate((f.c, *pieces_c))
        if len(f.x) > 4 * max(f.merged_len, 1 << 16):
            f.merge()


def _np_aux_filter(f: _Frontier, trunc: TruncationConfig, stats: BackpropStats) -> None:
    if trunc.coeff_cutoff == 0.0 and trunc.xy_count_cutoff is None and trunc.current_weight_cutoff is None:
        return
    keep = np.ones(len(f.x), dtype=bool)
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
        f.x, f.z, f.w, f.c = f.x[keep], f.z[keep], f.w[keep], f.c[keep]


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
            np.array([p.x for p, _ in seeds], dtype=np.uint64),
            np.array([p.z for p, _ in seeds], dtype=np.uint64),
            np.array([p.weight if track else 0 for p, _ in seeds], dtype=np.int64),
            np.array([c for _, c in seeds], dtype=np.float64),
        )
        _np_aux_filter(f, trunc, stats)
        crossed = False
    stats.peak_term_count = len(f)

    units, trailing = noisy_units(circuit)
    row_cache: dict = {}

    def apply_layer_gates(layer: Layer) -> None:
        for gate in layer.gates:
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

    if circuit.final_layer is not None:
        apply_layer_gates(circuit.final_layer)
    for layer in reversed(trailing):
        apply_layer_gates(layer)

    for unit in reversed(units):
        if crossed and track:
            w2 = f.w + _popcount(f.x | f.z)
            if k is not None:
                keep = w2 < k
                stats.paths_discarded_by_weight += int(len(keep) - keep.sum())
                f.x, f.z, f.w, f.c = f.x[keep], f.z[keep], w2[keep], f.c[keep]
            else:
                f.w = w2
            f.merged_len = len(f)
        crossed = True
        _np_noise(f, unit[-1].noise, n, row_cache)
        f.merge()
        stats.peak_term_count = max(stats.peak_term_count, len(f))
        for layer in reversed(unit):
            apply_layer_gates(layer)

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

    ``engine`` selects the frontier representation: "numpy" packs masks
    into uint64 lanes (n <= 64), "dict" is the reference hash-map walk,
    "auto" picks by size.  Both produce identical term sets; coefficient
    rounding may differ in the last bits because merge order differs.
    """
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
    if engine == "auto":
        engine = "numpy" if circuit.n <= 64 else "dict"
    n = circuit.n
    if engine == "numpy":
        if n > 64:
            raise ValueError("numpy engine supports at most 64 qubits")
        f, stats, crossed = _run_numpy(circuit, seed, trunc, track, max_terms)
        x, z, w, c = f.x, f.z, f.w, f.c
    elif engine == "dict":
        frontier, stats, crossed = _run_dict(circuit, seed, trunc, track, max_terms)
        keys = sorted(frontier)
        x = np.array([key[0] for key in keys], dtype=object)
        z = np.array([key[1] for key in keys], dtype=object)
        w = np.array([key[2] for key in keys], dtype=np.int64)
        c = np.array([frontier[key] for key in keys], dtype=np.float64)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return BackpropResult(
        n, _frozen(x), _frozen(z), _frozen(w), _frozen(c), stats, trunc, track, crossed
    )


def _mask_words(masks: np.ndarray, n: int) -> list[np.ndarray]:
    """Bit masks split into uint64 words, least significant word first."""
    if masks.dtype == np.uint64:
        return [masks]
    ints = masks.tolist()
    return [
        np.array([(v >> (64 * j)) & 0xFFFFFFFFFFFFFFFF for v in ints], dtype=np.uint64)
        for j in range((n + 63) // 64)
    ]


def expectation(result: BackpropResult, state: ProductState) -> float:
    """Overlap of the backpropagated observable with a product state.

    Each row's coefficient is multiplied by one lookup per qubit in the
    table (1, r_x, r_z, r_y) indexed by the bit pair x_q | z_q << 1.
    """
    n = result.n
    if n != state.n:
        raise QubitCountMismatch(f"observable on {n} qubits, state on {state.n}")
    table = np.array([(1.0, rx, rz, ry) for rx, ry, rz in state.bloch])
    vals = np.array(result.c, dtype=np.float64)
    one = np.uint64(1)
    words = zip(_mask_words(result.x, n), _mask_words(result.z, n))
    for j, (xw, zw) in enumerate(words):
        for q in range(64 * j, min(64 * j + 64, n)):
            s = np.uint64(q - 64 * j)
            vals *= table[q][((xw >> s) & one) | (((zw >> s) & one) << one)]
    return math.fsum(vals.tolist())


# --- unmerged path enumeration ----------------------------------------------------


@dataclass(frozen=True)
class LegalPath:
    """One surviving branch leaf.

    ``boundaries`` holds the damping-round Paulis from the seed down to
    the input side; ``amplitude`` is the seed coefficient times the
    product of all transition factors along the branch.
    """

    boundaries: tuple[PauliString, ...]
    weight: int
    amplitude: float


def _backward_ops(circuit: Circuit) -> list:
    units, trailing = noisy_units(circuit)
    ops: list = []
    if circuit.final_layer is not None:
        ops.extend(("gate", g) for g in circuit.final_layer.gates)
    for layer in reversed(trailing):
        ops.extend(("gate", g) for g in layer.gates)
    for u in range(len(units) - 1, -1, -1):
        unit = units[u]
        ops.append(("noise", unit[-1].noise))
        for layer in reversed(unit):
            ops.extend(("gate", g) for g in layer.gates)
        if u > 0:
            ops.append(("boundary",))
    return ops


def iter_legal_paths(
    circuit: Circuit, observable: PauliSum, k: int | None
) -> Iterator[LegalPath]:
    """Depth-first walk of the unmerged branch tree, weight cutoff only.

    Yields one entry per branch leaf whose transition factors are all
    nonzero and whose accumulated weight stays below ``k``.  Branches
    with an exactly-zero factor are never created.
    """
    if not observable:
        raise ValueError("observable has no terms")
    if observable.n != circuit.n:
        raise QubitCountMismatch("circuit and observable qubit counts differ")
    n = circuit.n
    ops = _backward_ops(circuit)
    row_cache: dict = {}

    def branch(x: int, z: int, op) -> list[tuple[int, int, float]]:
        kind = op[0]
        if kind == "gate":
            gate = op[1]
            if isinstance(gate, CliffordGate):
                front = _apply_clifford({(x, z, 0): 1.0}, gate)
            else:
                front = _apply_rotation({(x, z, 0): 1.0}, gate, n)
            return [(xx, zz, a) for (xx, zz, _w), a in front.items()]
        noise = op[1]
        states = [(x, z, 1.0)]
        for q in range(n):
            ch = noise[q]
            if ch is None or ch.is_identity:
                continue
            rows = _cached_rows(row_cache, ch)
            notq = ~(1 << q)
            nxt = []
            for xx, zz, a in states:
                bp = ((xx >> q) & 1) | (((zz >> q) & 1) << 1)
                if bp == 0:
                    nxt.append((xx, zz, a))
                    continue
                for xb, zb, coeff in rows[bp]:
                    nxt.append(
                        ((xx & notq) | (xb << q), (zz & notq) | (zb << q), a * coeff)
                    )
            states = nxt
        return states

    def walk(x, z, w, amp, pos, boundaries) -> Iterator[LegalPath]:
        while pos < len(ops) and ops[pos][0] == "boundary":
            w2 = w + (x | z).bit_count()
            if k is not None and w2 >= k:
                return
            boundaries = boundaries + (PauliString(n, x, z),)
            w, pos = w2, pos + 1
        if pos == len(ops):
            yield LegalPath(boundaries + (PauliString(n, x, z),), w, amp)
            return
        for x2, z2, factor in branch(x, z, ops[pos]):
            yield from walk(x2, z2, w, amp * factor, pos + 1, boundaries)

    for p, c in observable.items():
        if k is not None and p.weight >= k:
            continue
        yield from walk(p.x, p.z, p.weight, c, 0, (p,))


def count_legal_paths(circuit: Circuit, observable: PauliSum, k: int | None) -> int:
    """Number of surviving branch leaves with the weight cutoff alone active."""
    return sum(1 for _ in iter_legal_paths(circuit, observable, k))


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
