"""Reference backward walk on Python-int bit masks, for cross-checks.

``_run_dict`` keeps the frontier as a dict keyed by (x, z, accumulated
weight) and applies every gate and noise round term by term, with its
own copy of the weight-boundary rule.  ``reference_backpropagate``
packages its frontier as a ``BackpropResult`` so tests can compare it
with ``paulipath.backpropagate`` row for row.  ``iter_legal_paths``
enumerates the unmerged branch tree on the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from paulipath.circuits import (
    CliffordGate,
    Layer,
    PauliRotation,
    clifford_adjoint_table,
    noisy_units,
)
from paulipath.pauli import BITS_TO_CODE, CODE_TO_BITS, PauliString, PauliSum, QubitCountMismatch
from paulipath.propagation import (
    EXACT,
    BackpropResult,
    BackpropStats,
    FrontierOverflowError,
    TruncationConfig,
    _backward_ops,
    _cos_sin,
    _frozen,
    _join_words,
    _split_words,
)


def _clifford_bit_tables(gate: CliffordGate) -> list:
    """Adjoint table translated to (x bits, z bits, sign) on bit-pair codes.

    Built from ``clifford_adjoint_table`` on its own, not from the
    engine's compiled deltas, so the two can be checked against each other.
    """
    table = clifford_adjoint_table(gate.name)
    if len(gate.support) == 1:
        out = []
        for bp in range(4):
            oc, sign = table[BITS_TO_CODE[bp]]
            out.append((*CODE_TO_BITS[oc], float(sign)))
        return out
    out2 = []
    for bp0 in range(4):
        for bp1 in range(4):
            oj, sign = table[BITS_TO_CODE[bp0] * 4 + BITS_TO_CODE[bp1]]
            out2.append((*CODE_TO_BITS[oj >> 2], *CODE_TO_BITS[oj & 3], float(sign)))
    return out2


def adjoint_rows(ch) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Sparse adjoint action: rows[a] lists (b, coeff) with N^dag(P_a) = sum coeff P_b."""
    w = ch.forward_ptm()
    return tuple(tuple((b, w[a, b]) for b in range(4) if w[a, b] != 0.0) for a in range(4))


def _cached_rows(row_cache: dict, ch) -> list:
    """Adjoint rows of ``ch`` re-indexed by bit-pair code, once per channel object.

    rows[bp] = ((x, z, coeff), ...), from ``adjoint_rows`` on its own.
    """
    rows = row_cache.get(id(ch))
    if rows is None:
        adj = adjoint_rows(ch)
        rows = row_cache[id(ch)] = [
            tuple((*CODE_TO_BITS[b], coeff) for b, coeff in adj[BITS_TO_CODE[bp]])
            for bp in range(4)
        ]
    return rows


def _add(frontier: dict, key: tuple, value: float) -> None:
    new = frontier.get(key, 0.0) + value
    if new == 0.0:
        frontier.pop(key, None)
    else:
        frontier[key] = new



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


def _run_dict(circuit, seed, trunc, track, max_terms) -> tuple[dict, BackpropStats, bool]:
    k = trunc.path_weight_cutoff
    stats = BackpropStats()
    n = circuit.n

    if isinstance(seed, BackpropResult):
        frontier = dict(
            zip(
                zip(_join_words(seed.x), _join_words(seed.z), seed.w.tolist()),
                seed.c.tolist(),
            )
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
    ops = []
    for op in _backward_ops(circuit):
        if op[0] == "layer":
            ops.extend(("gate", g) for g in op[1].gates)
        else:
            ops.append(op)
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


def reference_backpropagate(
    circuit, seed, trunc: TruncationConfig = EXACT, track_weights=None, max_terms=None
) -> BackpropResult:
    """``_run_dict`` with the frontier as columns sorted by (x, z, w)."""
    if isinstance(seed, BackpropResult):
        track = seed.tracked
    else:
        track = trunc.path_weight_cutoff is not None or bool(track_weights)
    frontier, stats, crossed = _run_dict(circuit, seed, trunc, track, max_terms)
    keys = sorted(frontier)
    n = circuit.n
    return BackpropResult(
        n,
        _frozen(_split_words([key[0] for key in keys], n)),
        _frozen(_split_words([key[1] for key in keys], n)),
        _frozen(np.array([key[2] for key in keys], dtype=np.int64)),
        _frozen(np.array([frontier[key] for key in keys], dtype=np.float64)),
        stats,
        trunc,
        track,
        crossed,
    )
