"""The site-code Monte Carlo walk, kept as the reference for the bit-mask walk.

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
reweight factors.  Rotations come in runs, cut here by the library's rule
but from site codes: consecutive rotations (multiples of pi dropped)
whose generators commute pairwise, at most 64.  A run with a uniform
rotation draws one raw 64-bit word per path, and bit i of path p's word
is its coin for the run's rotation i; this walk applies the rotations
one by one, the library walk as one table step.

A noise round is one step for the qubits whose channel maps each letter
L to L and I only (read off the transfer matrix here), and a step per
qubit for the others, after it.  The round's qubits are grouped by equal
(squared norm, chance of going to I) of X, Y and Z, groups in order of
their lowest qubit.  A path reweights, group by group, by one power of
each distinct norm other than 1 (X, Y, Z order), raised to the count of
its letters of that norm on the group's qubits.  Then, for each letter
that can go to I (X, Y, Z order) and each of the group's qubits in
ascending order, the paths carrying the letter there draw one
``random()`` double each and go to I where it falls below the chance.
A per-qubit noise step draws one ``random()`` double per path only when
some input of the channel has more than one output to choose from.
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
                gcodes = gate.generator.codes()
                if gate.angle is not None:
                    c, s = _cos_sin(gate.angle)
                    if s == 0.0:
                        continue  # +-identity on Paulis
                    if c != 0.0:
                        raise UnsupportedEnsembleError(
                            "fixed rotation angles must be multiples of pi/2; "
                            "use a uniform-angle placeholder or propagate sampled circuits"
                        )
                rot = (dict(zip(gate.support, gcodes)), gate.angle is None)
                if steps and steps[-1][0] == "run" and _joins(steps[-1][1], rot[0]):
                    steps[-1][1].append(rot)
                else:
                    steps.append(("run", [rot]))
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
        classes = [(letters, norm ** np.arange(len(qubits) + 1))
                   for norm, letters in norms.items() if norm != 1.0]
        drops = [(p, chance) for p, (_, chance) in enumerate(law, start=1) if chance > 0.0]
        groups.append((qubits, classes, drops))
    return [("round", groups)] + steps


def _joins(run: list, gen: dict) -> bool:
    """Whether a generator (site to code) extends a run: room left, and it commutes with each."""
    if len(run) == 64:
        return False
    for other, _ in run:
        clashes = sum(1 for q, g in gen.items() if other.get(q, g) != g)
        if clashes % 2:
            return False
    return True


def _walk_chunk(steps, seed_codes, seed_weights, probs, norm_sq, m, rng):
    idx = rng.choice(len(probs), size=m, p=probs)
    codes = seed_codes[idx].copy()
    weight = seed_weights[idx].astype(np.int64)
    k_factor = np.full(m, norm_sq)
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
                for letters, table in classes:
                    k_factor *= table[np.isin(codes[:, qubits], letters).sum(axis=1)]
                for p, chance in drops:
                    for q in qubits:
                        rows = np.flatnonzero(codes[:, q] == p)
                        u = rng.random(len(rows))
                        codes[rows[u < chance], q] = 0
        elif kind == "run":
            _, run = step
            words = None
            if any(uniform for _, uniform in run):
                words = rng.bit_generator.random_raw(m)
            for i, (gen, uniform) in enumerate(run):
                flip = np.zeros(m, dtype=bool)  # paths that anticommute with the generator
                for q, g in gen.items():
                    cq = codes[:, q]
                    flip ^= (cq != 0) & (cq != g)
                if uniform:
                    flip &= ((words >> np.uint64(i)) & 1).astype(bool)
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
