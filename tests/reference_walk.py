"""Reference backward walk on Python-int bit masks, for cross-checks.

``_run_rows`` keeps the frontier as a list of (x, z, accumulated weight,
coefficient) rows and applies every gate and noised qubit row by row,
with its own copy of the weight-boundary rule.  Its kernels leave the
rows in the engine's order and it merges where the engine merges, so the
coefficient sums associate alike: a sum that cancels to rounding noise
in one cancels the same way in the other.  ``reference_backpropagate``
packages its frontier as a ``BackpropResult`` so tests can compare it
with ``paulipath.backpropagate`` row for row.  ``iter_legal_paths``
enumerates the unmerged branch tree on the same kernels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from paulipath.circuits import (
    CliffordGate,
    Layer,
    PauliRotation,
)
from helpers import (
    backward_ops_by_units,
    clifford_adjoint_table,
    join_words,
    noisy_units,
    packed_rows,
    packed_weight_bits,
    result_masks,
)
from paulipath import propagation
from paulipath.pauli import BITS_TO_CODE, CODE_TO_BITS, PauliString, PauliSum, QubitCountMismatch
from paulipath.propagation import (
    EXACT,
    BackpropResult,
    BackpropStats,
    FrontierOverflowError,
    TruncationConfig,
    _cos_sin,
    _frozen,
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


def _merge(rows: list) -> list:
    """Sum the coefficients of equal (x, z, w) keys and drop zero sums.

    Keys come out sorted; each group sums in its current row order with
    ``np.add.reduceat``, as the engine's merge sums its groups.
    """
    if not rows:
        return rows
    rows = sorted(rows, key=lambda row: row[:3])  # stable: groups keep their row order
    starts = [i for i in range(len(rows)) if i == 0 or rows[i][:3] != rows[i - 1][:3]]
    sums = np.add.reduceat(np.array([row[3] for row in rows]), starts).tolist()
    return [(*rows[i][:3], total) for i, total in zip(starts, sums) if total != 0.0]


def _apply_rotation(rows: list, gate: PauliRotation) -> list:
    """Each row scaled by cos in place where it anticommutes; the sin branches after all rows."""
    if gate.angle is None:
        raise ValueError("circuit has unresolved ensemble placeholders")
    gx, gz = gate.embedded_masks()
    c, s = _cos_sin(gate.angle)
    gphase = (gx & gz).bit_count()
    kept, branch = [], []
    for x, z, w, a in rows:
        if ((x & gz).bit_count() + (z & gx).bit_count()) & 1 == 0:
            kept.append((x, z, w, a))
            continue
        if c != 0.0:
            kept.append((x, z, w, a * c))
        if s != 0.0:
            x2, z2 = x ^ gx, z ^ gz
            m = (
                gphase
                + (x & z).bit_count()
                - (x2 & z2).bit_count()
                + 2 * (gz & x).bit_count()
            ) & 3
            sign = 1.0 if (m + 1) & 3 == 0 else -1.0  # i*G*P = i^(m+1) * folded
            branch.append((x2, z2, w, a * (s * sign)))
    return kept + branch


def _apply_clifford(rows: list, gate: CliffordGate) -> list:
    bits = _clifford_bit_tables(gate)
    if len(gate.support) == 1:
        q = gate.support[0]
        notq = ~(1 << q)
        out = []
        for x, z, w, a in rows:
            bp = ((x >> q) & 1) | (((z >> q) & 1) << 1)
            xb, zb, sign = bits[bp]
            out.append(((x & notq) | (xb << q), (z & notq) | (zb << q), w, a * sign))
        return out
    q0, q1 = gate.support
    clear = ~((1 << q0) | (1 << q1))
    out = []
    for x, z, w, a in rows:
        bp0 = ((x >> q0) & 1) | (((z >> q0) & 1) << 1)
        bp1 = ((x >> q1) & 1) | (((z >> q1) & 1) << 1)
        xb0, zb0, xb1, zb1, sign = bits[bp0 * 4 + bp1]
        x2 = (x & clear) | (xb0 << q0) | (xb1 << q1)
        z2 = (z & clear) | (zb0 << q0) | (zb1 << q1)
        out.append((x2, z2, w, a * sign))
    return out


def _apply_channel(rows: list, q: int, ch, row_cache: dict) -> list:
    """One noised qubit: each row's first image in place, its s-th image in block s.

    An input whose images all vanish when squared has no first image in
    place: its images start at block 1, as the engine's slot tables have it.
    """
    adj = _cached_rows(row_cache, ch)
    notq = ~(1 << q)
    blocks: list = [[]]
    for x, z, w, a in rows:
        bp = ((x >> q) & 1) | (((z >> q) & 1) << 1)
        if bp == 0:
            blocks[0].append((x, z, w, a))
            continue
        first = 0 if any(coeff * coeff for _, _, coeff in adj[bp]) else 1
        for s, (xb, zb, coeff) in enumerate(adj[bp], first):
            while len(blocks) <= s:
                blocks.append([])
            blocks[s].append(((x & notq) | (xb << q), (z & notq) | (zb << q), w, a * coeff))
    return [row for block in blocks for row in block]


def _aux_filter(rows: list, trunc: TruncationConfig, stats: BackpropStats) -> list:
    if trunc.coeff_cutoff == 0.0 and trunc.xy_count_cutoff is None and trunc.current_weight_cutoff is None:
        return rows
    out = []
    for x, z, w, a in rows:
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
        out.append((x, z, w, a))
    return out


def _run_rows(circuit, seed, trunc, max_terms) -> tuple[list, BackpropStats, bool]:
    """The frontier as (x, z, w, coeff) rows, merged where the engine merges.

    The merges come at a fresh seed's entry, after each layer's gates,
    after each noise round, at the end, and after any step that leaves more than 4x the larger of
    ``propagation._MERGE_FLOOR`` (read per call, so a test can lower it) and
    the rows of the last merge or weight drop, so the sums associate as the
    engine's do and cancel to exactly zero where its sums do.  The
    auxiliary filter after a merge leaves that count as it is, as the
    engine's does.
    """
    k = trunc.path_weight_cutoff
    stats = BackpropStats()

    if isinstance(seed, BackpropResult):
        rows = list(zip(*map(join_words, result_masks(seed)), seed.w.tolist(), seed.c.tolist()))
        crossed = seed.crossed_noise
        merged_len = len(rows)
    else:
        rows = []
        for p, c in seed.items():
            if k is not None and p.weight >= k:
                stats.paths_discarded_by_weight += 1
                continue
            rows.append((p.x, p.z, p.weight if k is not None else 0, c))
        rows = _merge(rows)  # the engine ends a layer at entry, which sorts the seed
        merged_len = len(rows)
        rows = _aux_filter(rows, trunc, stats)
        crossed = False
    stats.peak_term_count = len(rows)
    if max_terms is not None and len(rows) > max_terms:
        raise FrontierOverflowError(f"frontier exceeded {max_terms} terms")
    floor = propagation._MERGE_FLOOR

    def grown(rows: list) -> list:
        nonlocal merged_len
        if len(rows) > 4 * max(merged_len, floor):
            rows = _merge(rows)
            merged_len = len(rows)
        return rows

    def apply_layer(rows: list, layer: Layer) -> list:
        nonlocal merged_len
        for gate in layer.gates:
            if isinstance(gate, PauliRotation):
                rows = grown(_apply_rotation(rows, gate))
            elif isinstance(gate, CliffordGate):
                rows = _apply_clifford(rows, gate)
            else:
                raise ValueError("circuit has unresolved ensemble placeholders")
        rows = _merge(rows)
        merged_len = len(rows)
        rows = _aux_filter(rows, trunc, stats)
        stats.peak_term_count = max(stats.peak_term_count, len(rows))
        if max_terms is not None and len(rows) > max_terms:
            raise FrontierOverflowError(f"frontier exceeded {max_terms} terms")
        return rows

    units, trailing = noisy_units(circuit)
    row_cache: dict = {}
    if circuit.final_layer is not None:
        rows = apply_layer(rows, circuit.final_layer)
    for layer in reversed(trailing):
        rows = apply_layer(rows, layer)

    for unit in reversed(units):
        if crossed and k is not None:
            # keys stay distinct: x and z fix the weight each one gains
            rows = [(x, z, w + (x | z).bit_count(), a) for x, z, w, a in rows]
            stats.paths_discarded_by_weight += sum(1 for row in rows if row[2] >= k)
            rows = [row for row in rows if row[2] < k]
            merged_len = len(rows)
        crossed = True
        for q, ch in enumerate(unit[-1].noise):
            if ch is not None and not ch.is_identity:
                rows = grown(_apply_channel(rows, q, ch, row_cache))
        rows = _merge(rows)
        merged_len = len(rows)
        stats.peak_term_count = max(stats.peak_term_count, len(rows))
        for layer in reversed(unit):
            rows = apply_layer(rows, layer)
    rows = _merge(rows)
    stats.surviving_path_count = len(rows)
    return rows, stats, crossed


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
    for op in backward_ops_by_units(circuit):
        if op[0] == "layer":
            ops.extend(("gate", g) for g in op[1].gates)
        else:
            ops.append(op)
    row_cache: dict = {}

    def branch(x: int, z: int, op) -> list[tuple[int, int, float]]:
        kind = op[0]
        if kind == "gate":
            gate = op[1]
            apply = _apply_clifford if isinstance(gate, CliffordGate) else _apply_rotation
            return [(xx, zz, a) for xx, zz, _w, a in apply([(x, z, 0, 1.0)], gate)]
        states = [(x, z, 1.0)]
        for q, ch in op[1]:
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
    circuit, seed, trunc: TruncationConfig = EXACT, max_terms=None
) -> BackpropResult:
    """``_run_rows`` with the frontier as packed rows, sorted by (x, z, w) by its last merge.

    Weights accumulate only under a path-weight cutoff, as in the engine;
    a resumed seed keeps its weight bits.
    """
    rows, stats, crossed = _run_rows(circuit, seed, trunc, max_terms)
    n = circuit.n
    k = trunc.path_weight_cutoff
    wb = seed.wb if isinstance(seed, BackpropResult) else packed_weight_bits(n, k)
    return BackpropResult(
        n,
        wb,
        _frozen(packed_rows(n, wb, (row[:3] for row in rows))),
        _frozen(np.array([row[3] for row in rows], dtype=np.float64)),
        stats,
        trunc,
        crossed,
    )
