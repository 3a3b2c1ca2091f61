"""Single-qubit noise channels in damped normal form.

A channel is stored as a damping vector ``d``, a shift vector ``t`` and
optional pre/post unitary rotations, all in the Pauli transfer matrix
(PTM) picture.  The core map acts on Pauli coefficient vectors
(c_I, c_X, c_Y, c_Z) as ``c_P -> d_P c_P + t_P c_I`` for P != I, which
makes adjoint (Heisenberg) rows trivial to read off: P -> d_P P + t_P I.

The module also computes contraction coefficients: the per-site rates at
which the adjoint channel shrinks the normalized Frobenius norm of
supported observables, either worst-case or averaged over a random
single-qubit gate ensemble, and parses channels from their JSON form.
Whether a gate ensemble actually scrambles is checked by sampling in the
test suite (``tests/gate_ensembles.py``), not here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .pauli import PauliString, PauliSum, config_float

_PAULI_MATS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class InvalidChannelError(ValueError):
    """The requested parameters do not describe a CPTP map."""


class UnsupportedDesignError(ValueError):
    """The requested design assumption does not apply to this channel."""


@dataclass(frozen=True, eq=False)
class SingleQubitPTM:
    """A 4x4 real transfer matrix in Pauli basis order (I, X, Y, Z).

    The first row must be (1, 0, 0, 0) (trace preservation).  When
    ``unitary=True`` the lower-right 3x3 block is additionally checked to
    be orthogonal.
    """

    matrix: np.ndarray
    unitary: bool = False

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("PTM must be 4x4")
        if not np.allclose(m[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12):
            raise ValueError("first PTM row must be (1, 0, 0, 0)")
        if self.unitary:
            block = m[1:, 1:]
            if not np.allclose(block @ block.T, np.eye(3), atol=1e-10):
                raise ValueError("unitary flag set but rotation block is not orthogonal")
        object.__setattr__(self, "matrix", m)


class ChannelClass(Enum):
    UNITARY = "unitary"
    DEPOLARIZING_LIKE = "depolarizing_like"
    DEPHASING_LIKE = "dephasing_like"
    NON_UNITAL = "non_unital"


def _core_ptm(d: Sequence[float], t: Sequence[float]) -> np.ndarray:
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    for i in range(3):
        m[i + 1, 0] = t[i]
        m[i + 1, i + 1] = d[i]
    return m


def _choi_eigenvalues(ptm: np.ndarray) -> np.ndarray:
    """Eigenvalues of the (unnormalized) Choi matrix of a 1-qubit PTM."""
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            c = np.array([np.trace(p @ e) for p in _PAULI_MATS])
            out = ptm @ c
            mat = 0.5 * sum(out[k] * _PAULI_MATS[k] for k in range(4))
            choi += np.kron(mat, e)
    return np.linalg.eigvalsh(choi)


@dataclass(frozen=True, eq=False)
class NormalFormChannel:
    """Single-qubit channel N = U o N' o V with N' diagonal-plus-shift.

    ``d`` and ``t`` parameterize the core map N'; ``pre`` (V) and
    ``post`` (U) are optional unitary PTMs applied around it.  The
    constructor canonicalizes sign pairs in ``d`` (folding the flip into
    ``post`` as a half-turn rotation, which leaves the channel itself
    unchanged) so that stored entries share one sign, and rejects
    parameters that fail the Choi complete-positivity test.
    """

    d: tuple[float, float, float]
    t: tuple[float, float, float]
    pre: SingleQubitPTM | None = None
    post: SingleQubitPTM | None = None

    def __post_init__(self) -> None:
        d = tuple(float(v) for v in self.d)
        t = tuple(float(v) for v in self.t)
        if len(d) != 3 or len(t) != 3:
            raise InvalidChannelError("d and t must have three entries")
        for v in (*d, *t):
            if not -1.0 <= v <= 1.0:
                raise InvalidChannelError(f"normal-form entry {v} outside [-1, 1]")

        d, t, post = _canonicalize_signs(d, t, self.post)

        eigs = _choi_eigenvalues(_core_ptm(d, t))
        if eigs.min() < -1e-9:
            raise InvalidChannelError(
                f"(d={d}, t={t}) is not completely positive "
                f"(Choi eigenvalue {eigs.min():.3e})"
            )
        if contraction_sq_bound(d, t) > 1.0 + 1e-9:
            raise InvalidChannelError("norm bound exceeds 1; not a valid channel")

        object.__setattr__(self, "d", d)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "post", post)

    @property
    def is_unital(self) -> bool:
        return self.t == (0.0, 0.0, 0.0)

    @property
    def is_identity(self) -> bool:
        return (
            self.d == (1.0, 1.0, 1.0)
            and self.is_unital
            and self.pre is None
            and self.post is None
        )

    def forward_ptm(self) -> np.ndarray:
        """Full 4x4 PTM including the pre/post rotations."""
        m = _core_ptm(self.d, self.t)
        if self.pre is not None:
            m = m @ self.pre.matrix
        if self.post is not None:
            m = self.post.matrix @ m
        return m


def _canonicalize_signs(d, t, post):
    """Bring the damping entries to a common sign via folded half-turns.

    A pi rotation about axis k negates the other two damping entries and
    the matching t entries, so pairs of sign flips can be absorbed into
    ``post`` without changing the channel.  Mixed-sign vectors always
    reach a same-sign form this way (all-negative for negative-parity
    channels), so no rejection is needed here.
    """
    while True:
        neg = [i for i in range(3) if d[i] < 0.0]
        pos = [i for i in range(3) if d[i] > 0.0]
        if not neg or not pos:
            return d, t, post
        if len(neg) >= 2:
            flip = (neg[0], neg[1])
        elif len(pos) >= 2:
            flip = (pos[0], pos[1])
        else:
            zero = next(i for i in range(3) if d[i] == 0.0)
            flip = (neg[0], zero)
        signs = [1.0, 1.0, 1.0]
        for i in flip:
            signs[i] = -1.0
        sign_ptm = np.diag([1.0, *signs])
        post = (
            SingleQubitPTM(sign_ptm, unitary=True)
            if post is None
            else SingleQubitPTM(post.matrix @ sign_ptm, unitary=post.unitary)
        )
        d = tuple(s * v for s, v in zip(signs, d))
        t = tuple(s * v for s, v in zip(signs, t))


def make_depolarizing(p: float) -> NormalFormChannel:
    """Uniform damping: every non-identity Pauli shrinks by (1-p)."""
    if not 0.0 <= p <= 1.0:
        raise InvalidChannelError("depolarizing rate must lie in [0, 1]")
    return NormalFormChannel((1 - p, 1 - p, 1 - p), (0.0, 0.0, 0.0))


def make_dephasing(p: float) -> NormalFormChannel:
    """Z is preserved; X and Y shrink by (1-2p)."""
    if not 0.0 <= p <= 1.0:
        raise InvalidChannelError("dephasing rate must lie in [0, 1]")
    return NormalFormChannel((1 - 2 * p, 1 - 2 * p, 1.0), (0.0, 0.0, 0.0))


def make_amplitude_damping(gamma: float) -> NormalFormChannel:
    """Relaxation toward |0>: d = (sqrt(1-g), sqrt(1-g), 1-g), t = (0, 0, g)."""
    if not 0.0 <= gamma <= 1.0:
        raise InvalidChannelError("damping rate must lie in [0, 1]")
    s = np.sqrt(1.0 - gamma)
    return NormalFormChannel((s, s, 1.0 - gamma), (0.0, 0.0, gamma))


def make_custom(d: Sequence[float], t: Sequence[float]) -> NormalFormChannel:
    return NormalFormChannel(tuple(d), tuple(t))


def classify(ch: NormalFormChannel) -> ChannelClass:
    if not ch.is_unital:
        return ChannelClass.NON_UNITAL
    abs_d = [abs(v) for v in ch.d]
    ones = sum(1 for v in abs_d if v == 1.0)
    if ones == 3:
        return ChannelClass.UNITARY
    if ones == 1:
        return ChannelClass.DEPHASING_LIKE
    if ones == 2:
        # two invariant axes force the third; cannot occur for a CPTP map
        raise InvalidChannelError("channel with exactly two unit damping entries")
    return ChannelClass.DEPOLARIZING_LIKE


def adjoint_action(ch: NormalFormChannel, site: str | int) -> PauliSum:
    """Heisenberg action of the channel on one single-site Pauli.

    Returns the 1-qubit Pauli sum N^dag(P); for a rotation-free channel
    this is d_P * P + t_P * I, and I maps to I for any channel.
    """
    code = "IXYZ".index(site.upper()) if isinstance(site, str) else int(site)
    # expansion of N^dag(P_a) over outputs = column a of the adjoint PTM
    row = ch.forward_ptm()[code]
    return PauliSum(
        1, [(PauliString.from_label("IXYZ"[b]), row[b]) for b in range(4) if row[b] != 0.0]
    )


# --- contraction coefficients ------------------------------------------------


@dataclass(frozen=True)
class WorstCase:
    """No ensemble assumption: bound the contraction over all inputs."""


@dataclass(frozen=True)
class TwoDesign:
    """Gates drawn from a single-qubit unitary 2-design."""


@dataclass(frozen=True)
class Scrambler:
    """Gates forming an eta-approximate scrambler (0 <= eta < 1)."""

    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta < 1.0:
            raise UnsupportedDesignError("scrambler slack must lie in [0, 1)")


Design = WorstCase | TwoDesign | Scrambler


def contraction_sq_bound(d: Sequence[float], t: Sequence[float]) -> float:
    """Largest squared-norm gain of the adjoint core map on a supported site.

    Equals the top eigenvalue of diag(d^2) + t t^T, i.e. the maximum over
    unit vectors a of sum_Q a_Q^2 d_Q^2 + (sum_Q a_Q t_Q)^2.  At most 1
    for any valid channel, strictly below 1 when max|d|^2 or |t|^2 lies
    strictly inside (0, 1).
    """
    dv = np.asarray(d, dtype=float)
    tv = np.asarray(t, dtype=float)
    m = np.diag(dv * dv) + np.outer(tv, tv)
    return float(np.linalg.eigvalsh(m)[-1])


def contraction_sq_worstcase(ch: NormalFormChannel) -> float:
    """Upper bound on the squared contraction coefficient, no randomness assumed."""
    return contraction_sq_bound(ch.d, ch.t)


def contraction_sq_mean(ch: NormalFormChannel, design: Design) -> float:
    """Mean squared contraction coefficient under the given gate ensemble."""
    d2 = sum(v * v for v in ch.d)
    t2 = sum(v * v for v in ch.t)
    if isinstance(design, TwoDesign):
        return (d2 + t2) / 3.0
    if isinstance(design, Scrambler):
        if classify(ch) is not ChannelClass.DEPHASING_LIKE:
            raise UnsupportedDesignError(
                "scrambler-averaged contraction is only available for "
                "dephasing-like channels; use TwoDesign or the worst-case bound"
            )
        return design.eta + (1.0 - design.eta) * d2 / 3.0
    if isinstance(design, WorstCase):
        return contraction_sq_worstcase(ch)
    raise UnsupportedDesignError(f"unknown design {design!r}")


def effective_depolarizing_rate(ch: NormalFormChannel, design: Design = WorstCase()) -> float:
    """Depolarizing strength the noise mimics on average: 1 - sqrt(chi^2)."""
    p = 1.0 - np.sqrt(contraction_sq_mean(ch, design))
    if p <= 0.0:
        warnings.warn(
            "effective depolarizing rate is zero; path damping gives no decay",
            stacklevel=2,
        )
    return float(p)


# --- JSON interface ------------------------------------------------------------

_BUILDERS = {
    "amplitude_damping": make_amplitude_damping,
    "dephasing": make_dephasing,
    "depolarizing": make_depolarizing,
}


def _triple(obj: dict, key: str) -> tuple[float, float, float]:
    """``obj[key]`` as three finite numbers; else ``ValueError`` naming the key."""
    values = obj[key]
    if not isinstance(values, list) or len(values) != 3:
        raise ValueError(f"{key!r} must be a list of three numbers, not {values!r}")
    return tuple(config_float(v, f"{key!r} entry") for v in values)


def channel_from_json(obj: dict) -> NormalFormChannel:
    kind = obj.get("kind")
    if kind in _BUILDERS:
        return _BUILDERS[kind](config_float(obj["param"], "'param'"))
    if kind == "custom":
        pre = obj.get("pre")
        post = obj.get("post")
        return NormalFormChannel(
            _triple(obj, "D"),
            _triple(obj, "t"),
            pre=SingleQubitPTM(np.asarray(pre, dtype=float)) if pre else None,
            post=SingleQubitPTM(np.asarray(post, dtype=float)) if post else None,
        )
    raise InvalidChannelError(f"unknown channel kind {kind!r}")
