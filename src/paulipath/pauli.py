"""Bit-packed n-qubit Pauli operators, sparse real linear combinations and product states.

A Pauli string is stored as two integer bit masks (``x``, ``z``), one bit per
qubit, so its weight is a popcount.  No phase is stored on the string
itself, and this module has no product: the engine folds each rotation's
sign into real coefficients on its columns, and every gate's transfer
matrix comes from ``circuits.unitary_ptm``.  A ``PauliSum`` is built,
counted and iterated, and nothing more: the overlap of a Pauli sum with a
product state is ``propagation.expectation``, which works on the engine's
packed rows, and the coefficient lookups and norms the tests check against
live in the test suite.  ``_is_int``, the package's one integer check, lives
here so that every module can import it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

CODE_CHARS = "IXYZ"
_CHAR_TO_CODE = {c: i for i, c in enumerate(CODE_CHARS)}

# site code <-> (x bit, z bit): I=(0,0), X=(1,0), Y=(1,1), Z=(0,1)
CODE_TO_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))
BITS_TO_CODE = (0, 1, 3, 2)  # indexed by x_bit + 2*z_bit


class QubitCountMismatch(ValueError):
    """Operands act on different numbers of qubits."""


def _is_int(value) -> bool:
    """An integer (numpy's too) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PauliString:
    """One n-qubit Pauli operator.

    ``x`` and ``z`` are bit masks over qubit indices; site q is I when
    both bits q are clear, X for x-only, Z for z-only, Y when both are
    set.  Two strings are equal iff their masks are equal, so instances
    are usable as dictionary keys.  ``weight`` is the number of
    non-identity sites, cached at construction.
    """

    n: int
    x: int
    z: int
    weight: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("qubit count must be positive")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit mask addresses a qubit outside 0..n-1")
        object.__setattr__(self, "weight", (self.x | self.z).bit_count())

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a string over I/X/Y/Z; the leftmost character is qubit 0."""
        x = z = 0
        for q, ch in enumerate(label):
            try:
                code = _CHAR_TO_CODE[ch.upper()]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r}") from None
            xb, zb = CODE_TO_BITS[code]
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        """A weight-<=1 string with ``letter`` on ``qubit``, identity elsewhere."""
        if not 0 <= qubit < n:
            raise ValueError("qubit index out of range")
        code = _CHAR_TO_CODE[letter.upper()]
        xb, zb = CODE_TO_BITS[code]
        return cls(n, xb << qubit, zb << qubit)

    def code(self, qubit: int) -> int:
        """Site code at ``qubit``: 0=I, 1=X, 2=Y, 3=Z."""
        return BITS_TO_CODE[((self.x >> qubit) & 1) + 2 * ((self.z >> qubit) & 1)]

    def codes(self) -> tuple[int, ...]:
        return tuple(self.code(q) for q in range(self.n))

    def label(self) -> str:
        return "".join(CODE_CHARS[self.code(q)] for q in range(self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PauliString({self.label()!r})"


class PauliSum:
    """Sparse real linear combination of Pauli strings.

    Zero coefficients are never stored; construction merges duplicate
    keys.  Instances are immutable once built and safe to share.
    """

    __slots__ = ("n", "_terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[PauliString, float] | Iterable[tuple[PauliString, float]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[PauliString, float] = {}
        for p, c in items:
            if p.n != n:
                raise QubitCountMismatch(f"term on {p.n} qubits in a {n}-qubit sum")
            if not math.isfinite(c := float(c)):
                raise ValueError(f"coefficient of {p.label()} must be finite, not {c!r}")
            acc[p] = acc.get(p, 0.0) + c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", {p: c for p, c in acc.items() if c != 0.0})

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def from_strings(cls, pairs: Iterable[tuple[str, float]]) -> "PauliSum":
        pairs = list(pairs)
        if not pairs:
            raise ValueError("cannot infer qubit count from an empty term list")
        n = len(pairs[0][0])
        return cls(n, [(PauliString.from_label(lbl), c) for lbl, c in pairs])

    @classmethod
    def single(cls, label: str, coeff: float = 1.0) -> "PauliSum":
        return cls.from_strings([(label, coeff)])

    def items(self) -> Iterator[tuple[PauliString, float]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @staticmethod
    def from_json_obj(obj: list[dict]) -> "PauliSum":
        """``{pauli, coeff}`` terms read by the CLI's reader, under the name the benchmark's worker
        (``perfbench/worker.py``) calls."""
        from .cli import _pauli_sum  # the CLI imports this module

        return _pauli_sum(obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " + ".join(f"{c:g}*{p.label()}" for p, c in self._terms.items())
        return f"PauliSum({body or '0'})"


@dataclass(frozen=True)
class ProductState:
    """Product state given by one Bloch vector (r_x, r_y, r_z) per qubit.

    Tr[P rho] factorizes over sites: identity sites contribute 1 and a
    site carrying X/Y/Z contributes the matching Bloch component.  The
    overlap itself is ``propagation.expectation``.
    """

    bloch: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.bloch:
            raise ValueError("state needs at least one qubit")
        for r in self.bloch:
            if len(r) != 3:
                raise ValueError("each Bloch vector needs three components")
            if not all(map(math.isfinite, r)):
                raise ValueError(f"Bloch vector {r} has a non-finite component")
            if r[0] * r[0] + r[1] * r[1] + r[2] * r[2] > 1.0 + 1e-9:
                raise ValueError(f"Bloch vector {r} lies outside the unit ball")

    @property
    def n(self) -> int:
        return len(self.bloch)

    @classmethod
    def zeros(cls, n: int) -> "ProductState":
        """The all-|0> computational state: Bloch vector (0, 0, 1) on every qubit."""
        return cls(((0.0, 0.0, 1.0),) * n)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Iterable[float]]) -> "ProductState":
        return cls(tuple(tuple(float(v) for v in r) for r in vectors))
