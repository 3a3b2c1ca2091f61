"""The site-code Monte Carlo walk, kept as the reference for the bit-plane walk.

A chunk of paths is an (m, n) uint8 array of site codes (0=I, 1=X, 2=Y,
3=Z), updated step by step through fancy-indexed table lookups.
``compile_steps`` builds its own step list from the tests' op list
(``helpers.backward_ops_by_units``), with site-code tables taken straight
from ``clifford_adjoint_table`` and, for noise, an output law and squared
norm per input read off each channel's forward transfer matrix by
``noise_tables``: not from the slot tables of the compiled program
(``propagation._compile``) that ``paulipath.montecarlo._walk_chunk`` runs.
The walk consumes the generator's stream draw for draw in the same order,
so for one seed both walks must reach the same paths, weights and
reweight factors.

Paths are seeded by one multinomial draw of the term counts, term t
filling the next counts[t] paths.  Path p's random bits sit at bit
``p & 63`` of the ``p >> 6``-th raw 64-bit word of a draw.  A uniform
rotation (multiples of pi dropped) draws one raw word per 64 paths, and
path p's bit is its coin.

A noise round is one step for the qubits whose channel maps each letter
L to L and I only (read off the transfer matrix here), and a step per
qubit for the others, after it.  The round's qubits are grouped by equal
(squared norm, chance of going to I) of X, Y and Z, groups in order of
their lowest qubit.  A group counts, for each distinct norm other than 1
(X, Y, Z order), each path's letters of that norm on its qubits; the
counts add up over the whole walk, and at its end each path's reweight
factor is multiplied by ``norm ** count``, norms in order of first
appearance.  Then, for each letter that can go to I (X, Y, Z order), the
paths carrying it on a qubit of the group go to I where a uniform 53-bit
integer k is below ``ceil(chance * 2**53)``.  Its bits are read most
significant first, one bit per plane: each plane draws one raw word for
each (qubit, word of 64 paths), in that order, that still holds a
carrying path whose k prefix equals that of the cutoff; the planes stop
at the cutoff's lowest set bit.  A per-qubit noise step draws one
``random()`` double per path only when some input of the channel has
more than one output to choose from.
"""

from __future__ import annotations

import numpy as np

from helpers import backward_ops_by_units, clifford_adjoint_table
from paulipath.circuits import (
    Circuit,
    CliffordGate,
    PauliRotation,
    RandomSingleQubitClifford,
)
from paulipath.montecarlo import UnsupportedEnsembleError
from paulipath.propagation import _cos_sin

# site-code product table, signs dropped (only squared amplitudes matter here)
_MULT = np.array(
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], dtype=np.uint8
)


def noise_tables(ptm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output law (proportional to the squared coefficient) and squared norm per row.

    Row a of a channel's transfer matrix expands the adjoint image of input a
    over the output Paulis I, X, Y, Z.
    """
    sq = ptm**2
    norm = sq.sum(axis=1)
    # a dead row draws I; its zero norm kills the contribution
    dead = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
    return np.divide(sq, norm[:, None], out=dead, where=norm[:, None] > 0.0), norm


def compile_steps(circuit: Circuit) -> list:
    steps: list = []
    for op in backward_ops_by_units(circuit):
        kind = op[0]
        if kind == "boundary":
            steps.append(("boundary",))
            continue
        if kind == "noise":
            steps += noise_round_steps(op[1])
            continue
        for gate in op[1].gates:
            if isinstance(gate, RandomSingleQubitClifford):
                steps.append(("ucliff", gate.qubit))
            elif isinstance(gate, CliffordGate):
                table = clifford_adjoint_table(gate.name)
                lut = np.array([q for q, _s in table], dtype=np.uint8)
                if len(gate.support) == 1:
                    steps.append(("cliff1", gate.support[0], lut))
                else:
                    steps.append(("cliff2", gate.support[0], gate.support[1], lut))
            elif isinstance(gate, PauliRotation):
                if gate.angle is not None:
                    c, s = _cos_sin(gate.angle)
                    if s == 0.0:
                        continue  # +-identity on Paulis
                    if c != 0.0:
                        raise UnsupportedEnsembleError(
                            "fixed rotation angles must be multiples of pi/2; "
                            "use a uniform-angle placeholder or propagate sampled circuits"
                        )
                gen = dict(zip(gate.support, gate.generator.codes()))
                steps.append(("rot", gen, gate.angle is None))
            else:  # pragma: no cover - exhaustive over gate variants
                raise UnsupportedEnsembleError(f"unsupported gate {gate!r}")
    return steps


def noise_round_steps(pairs) -> list:
    """One ``round`` step for the letter-keeping qubits of a noise round, then one step per other qubit."""
    laws: dict = {}
    steps = []
    for q, ch in pairs:
        ptm = ch.forward_ptm()
        prob, norm = noise_tables(ptm)
        cdf = np.cumsum(prob, axis=1)
        if all(set(np.flatnonzero(ptm[p])) <= {0, p} for p in (1, 2, 3)):
            # the chance of going to I: the output law's mass before the letter itself
            laws.setdefault(tuple((norm[p], cdf[p, p - 1]) for p in (1, 2, 3)), []).append(q)
            continue
        # an input branches when it has two outputs, or one output
        # whose square underflows (it first goes to I with norm 0)
        draws = bool((np.count_nonzero(ptm, axis=1) + (norm == 0.0) > 1).any())
        steps.append(("noise", q, cdf, norm, draws))
    groups = []
    for law, qubits in laws.items():
        norms: dict = {}
        for p, (norm, _) in enumerate(law, start=1):
            norms.setdefault(norm, []).append(p)
        classes = [(letters, norm) for norm, letters in norms.items() if norm != 1.0]
        drops = [(p, int(np.ceil(chance * 2**53))) for p, (_, chance) in enumerate(law, start=1)
                 if chance > 0.0]
        groups.append((qubits, classes, drops))
    return [("round", groups)] + steps


def lane_bits(words: np.ndarray, m: int) -> np.ndarray:
    """Bit ``p & 63`` of word ``p >> 6`` for each of m paths."""
    p = np.arange(m)
    return ((words[p >> 6] >> (p & 63).astype(np.uint64)) & 1).astype(bool)


def cut_below(carrying: np.ndarray, cut: int, rng) -> np.ndarray:
    """Which carrying (qubit, path) entries of an (r, m) bool array draw a 53-bit k below ``cut``."""
    r, m = carrying.shape
    below = np.zeros_like(carrying)
    if cut >= 2**53:
        return carrying.copy()
    prefix = np.zeros(carrying.shape, dtype=np.int64)
    open_ = carrying.copy()
    lowest = (cut & -cut).bit_length() - 1
    for b in range(52, lowest - 1, -1):
        words = np.zeros((r, -(-m // 64)), dtype=bool)  # which (qubit, word) still hold an open path
        for q, p in zip(*np.nonzero(open_)):
            words[q, p >> 6] = True
        if not words.any():
            break
        raw = np.zeros(words.shape, dtype=np.uint64)
        raw[words] = rng.bit_generator.random_raw(int(words.sum()))  # row-major order
        bits = np.stack([lane_bits(row, m) for row in raw])
        prefix = prefix << 1 | bits
        head = cut >> b  # the cutoff's bits from 52 down to b
        below |= open_ & (prefix < head)
        open_ &= prefix == head
    return below


def _walk_chunk(steps, seed_codes, seed_weights, probs, norm_sq, m, rng):
    counts = rng.multinomial(m, probs)
    codes = np.repeat(seed_codes, counts, axis=0)
    weight = np.repeat(seed_weights, counts).astype(np.int64)
    k_factor = np.full(m, norm_sq)
    exponents: dict = {}  # norm -> each path's count of letters of that norm, summed over rounds
    for step in steps:
        kind = step[0]
        if kind == "boundary":
            weight += np.count_nonzero(codes, axis=1)
        elif kind == "noise":
            _, q, cdf, norm, draws = step
            c = codes[:, q]
            k_factor *= norm[c]
            if draws:
                u = rng.random(m)
                codes[:, q] = (u[:, None] >= cdf[c]).sum(axis=1)
            else:  # each input's one output: the outputs of zero share come before it
                codes[:, q] = (cdf[c] <= 0.0).sum(axis=1)
        elif kind == "round":
            for qubits, classes, drops in step[1]:
                for letters, norm in classes:
                    count = np.isin(codes[:, qubits], letters).sum(axis=1)
                    exponents[norm] = exponents.get(norm, 0) + count
                for p, cut in drops:
                    gone = cut_below((codes[:, qubits] == p).T, cut, rng)
                    for i, q in enumerate(qubits):
                        codes[gone[i], q] = 0
        elif kind == "rot":
            _, gen, uniform = step
            flip = np.zeros(m, dtype=bool)  # paths that anticommute with the generator
            for q, g in gen.items():
                cq = codes[:, q]
                flip ^= (cq != 0) & (cq != g)
            if uniform:
                flip &= lane_bits(rng.bit_generator.random_raw(-(-m // 64)), m)
            for q, g in gen.items():
                codes[flip, q] = _MULT[codes[flip, q], g]
        elif kind == "cliff1":
            _, q, lut = step
            codes[:, q] = lut[codes[:, q]]
        elif kind == "cliff2":
            _, q0, q1, lut = step
            joint = (codes[:, q0].astype(np.intp) << 2) | codes[:, q1]
            out = lut[joint]
            codes[:, q0] = out >> 2
            codes[:, q1] = out & 3
        elif kind == "ucliff":
            _, q = step
            nz = codes[:, q] != 0
            draws = rng.integers(1, 4, size=m, dtype=np.uint8)
            codes[nz, q] = draws[nz]
        else:  # pragma: no cover
            raise AssertionError(kind)
    for norm, count in exponents.items():
        k_factor *= (norm ** np.arange(int(count.max()) + 1))[count]
    return codes, weight, k_factor


def reference_walk(circuit, observable, m: int, rng: np.random.Generator):
    """One chunk of m paths through ``circuit`` on the site-code walk."""
    n = circuit.n
    terms = list(observable.items())
    seed_codes = np.array([[p.code(q) for q in range(n)] for p, _ in terms], dtype=np.uint8)
    seed_weights = np.array([p.weight for p, _ in terms], dtype=np.int64)
    coeffs_sq = np.array([c * c for _, c in terms])
    norm_sq = coeffs_sq.sum()
    return _walk_chunk(
        compile_steps(circuit), seed_codes, seed_weights, coeffs_sq / norm_sq, norm_sq, m, rng
    )
