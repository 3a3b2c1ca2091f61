"""Gate-ensemble scrambling diagnostics: sampled checks of single-qubit gate laws.

The scrambler contraction in ``paulipath.channels`` assumes the gates
between noise rounds form an (approximate) scrambler.  ``verify_scrambler``
tests that assumption for an ensemble by sampling its transfer matrices;
the ensembles here are the uniform Clifford group, a pair of uniform
rotations about distinct axes and a single uniform rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from paulipath.channels import _PAULI_MATS


def ptm_from_unitary(u: np.ndarray) -> np.ndarray:
    """4x4 real PTM of the conjugation rho -> U rho U^dag for a 2x2 unitary."""
    w = np.empty((4, 4))
    for b, pb in enumerate(_PAULI_MATS):
        conj = u @ pb @ u.conj().T
        for a, pa in enumerate(_PAULI_MATS):
            w[a, b] = 0.5 * np.trace(pa @ conj).real
    return w


def rotation_ptm(axis: str, theta: float) -> np.ndarray:
    """PTM of conjugation by exp(-i*theta/2 * P_axis)."""
    p = _PAULI_MATS["IXYZ".index(axis.upper())]
    u = np.cos(theta / 2) * _PAULI_MATS[0] - 1j * np.sin(theta / 2) * p
    return ptm_from_unitary(u)


PTMEnsemble = Callable[[np.random.Generator], np.ndarray]


def clifford_ptms() -> list[np.ndarray]:
    """PTMs of the 24 single-qubit Clifford gates (signed axis permutations)."""
    out = []
    perms = [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]
    for perm in perms:
        base = np.zeros((3, 3))
        for i, j in enumerate(perm):
            base[j, i] = 1.0
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                for sz in (1.0, -1.0):
                    r = np.diag([sx, sy, sz]) @ base
                    if np.linalg.det(r) > 0:  # proper rotations only
                        m = np.eye(4)
                        m[1:, 1:] = r
                        out.append(m)
    assert len(out) == 24
    return out


_CLIFFORD_PTMS: list[np.ndarray] | None = None


def uniform_clifford_ensemble(rng: np.random.Generator) -> np.ndarray:
    global _CLIFFORD_PTMS
    if _CLIFFORD_PTMS is None:
        _CLIFFORD_PTMS = clifford_ptms()
    return _CLIFFORD_PTMS[rng.integers(len(_CLIFFORD_PTMS))]


def rotation_pair_ensemble(axes: tuple[str, str] = ("X", "Z")) -> PTMEnsemble:
    """Two independent uniform rotations along distinct axes, composed."""
    a0, a1 = axes

    def sample(rng: np.random.Generator) -> np.ndarray:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        return rotation_ptm(a0, phi) @ rotation_ptm(a1, theta)

    return sample


def single_axis_ensemble(axis: str = "Z") -> PTMEnsemble:
    def sample(rng: np.random.Generator) -> np.ndarray:
        return rotation_ptm(axis, rng.uniform(0.0, 2.0 * np.pi))

    return sample


@dataclass(frozen=True)
class ScramblerReport:
    eta_estimate: float
    orthogonality_ok: bool
    max_orthogonality_violation: float
    samples: int


def verify_scrambler(
    ensemble: PTMEnsemble, samples: int, tol: float, seed: int = 0
) -> ScramblerReport:
    """Statistically test the scrambling properties of a gate ensemble.

    Estimates the second-moment tensor E[W x W] of the ensemble's PTMs.
    Orthogonality requires every cross block (two distinct input Paulis)
    to vanish; the slack estimate comes from the largest mean squared
    diagonal transition amplitude between non-identity Paulis.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful estimate")
    rng = np.random.default_rng(seed)
    acc = np.zeros((4, 4, 4, 4))
    for _ in range(samples):
        w = ensemble(rng)
        acc += np.einsum("pa,qb->pqab", w, w)
    acc /= samples

    max_violation = 0.0
    for p in range(4):
        for q in range(4):
            if p == q:
                continue
            max_violation = max(max_violation, float(np.abs(acc[p, q]).max()))

    max_diag = max(acc[p, p, q, q] for p in range(1, 4) for q in range(1, 4))
    eta = (3.0 * max_diag - 1.0) / 2.0
    return ScramblerReport(
        eta_estimate=float(eta),
        orthogonality_ok=max_violation <= tol,
        max_orthogonality_violation=max_violation,
        samples=samples,
    )
