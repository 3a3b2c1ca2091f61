"""Per-primitive second-moment transition laws, the reference for the MC walk.

Each ``SecondMomentStep`` states, for one primitive on its own support,
the law that ``paulipath.montecarlo`` samples in its vectorized walk:
output site codes, their probability and the squared-norm factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from paulipath.channels import NormalFormChannel
from paulipath.circuits import CliffordGate, PauliRotation, clifford_adjoint_table
from paulipath.montecarlo import _MULT, _noise_tables


@dataclass(frozen=True)
class SecondMomentStep:
    """Transition law of one primitive under squared-amplitude sampling.

    ``transitions(codes)`` maps input site codes (restricted to the
    primitive's support) to a list of (output codes, probability,
    squared-norm contribution); probabilities sum to one.
    """

    arity: int
    _table: tuple  # opaque payload interpreted by kind
    kind: str

    def transitions(self, codes: Sequence[int]) -> list[tuple[tuple[int, ...], float, float]]:
        codes = tuple(int(c) for c in codes)
        if len(codes) != self.arity:
            raise ValueError("input does not match the primitive's support size")
        if self.kind == "rotation":
            gcodes = self._table
            anti = False
            for c, g in zip(codes, gcodes):
                anti ^= c != 0 and c != g
            if not anti:
                return [(codes, 1.0, 1.0)]
            folded = tuple(int(_MULT[c, g]) for c, g in zip(codes, gcodes))
            return [(codes, 0.5, 1.0), (folded, 0.5, 1.0)]
        if self.kind == "noise":
            prob, norm = self._table
            c = codes[0]
            outs = [
                ((b,), float(prob[c, b]), float(norm[c]))
                for b in range(4)
                if prob[c, b] > 0.0
            ]
            return outs
        if self.kind == "clifford":
            lut = self._table
            joint = 0
            for c in codes:
                joint = (joint << 2) | c
            out = int(lut[joint])
            out_codes = tuple((out >> (2 * (self.arity - 1 - i))) & 3 for i in range(self.arity))
            return [(out_codes, 1.0, 1.0)]
        if self.kind == "uniform_clifford":
            if codes[0] == 0:
                return [((0,), 1.0, 1.0)]
            return [((b,), 1.0 / 3.0, 1.0) for b in (1, 2, 3)]
        raise AssertionError(self.kind)


def second_moment_rotation(rotation: PauliRotation) -> SecondMomentStep:
    """Uniform-angle rotation: commuting inputs pass; anticommuting split 1/2-1/2."""
    return SecondMomentStep(len(rotation.support), rotation.generator.codes(), "rotation")


def second_moment_noise(ch: NormalFormChannel) -> SecondMomentStep:
    """Fixed channel: outputs drawn with probability ~ squared adjoint amplitude."""
    return SecondMomentStep(1, _noise_tables(ch), "noise")


def second_moment_clifford(gate: CliffordGate) -> SecondMomentStep:
    table = clifford_adjoint_table(gate.name)
    lut = tuple(q for q, _sign in table)
    return SecondMomentStep(len(gate.support), lut, "clifford")


def second_moment_uniform_clifford() -> SecondMomentStep:
    return SecondMomentStep(1, (), "uniform_clifford")
