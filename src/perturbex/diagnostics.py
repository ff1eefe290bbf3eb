"""The record of one checked inequality, shared by the reports and the audits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Gate:
    """One checked inequality: ``lhs <= rhs`` (or ``<`` when strict)."""

    name: str
    lhs: float
    rhs: float
    strict: bool = False
    satisfied: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", _no_claim(self.lhs))
        object.__setattr__(self, "rhs", _no_claim(self.rhs))
        ok = self.lhs < self.rhs if self.strict else self.lhs <= self.rhs
        object.__setattr__(self, "satisfied", bool(ok))

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self))


def _no_claim(value: float, sign: float = 1.0) -> float:
    """``value``, or ``sign * inf`` when it is NaN.

    A radius, bracket end or gate side is NaN only where an overflowed
    power met a zero factor (a ``tau3`` that underflowed to 0, say).  As
    an infinity it claims nothing: a radius is advisory, and a gate whose
    left side it is fails.
    """
    return sign * math.inf if math.isnan(value) else value
