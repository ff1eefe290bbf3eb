"""Structured results for sampled inequality checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckResult:
    """Outcome of one sampled inequality.

    ``worst_ratio`` is the largest observed lhs/rhs ratio (0 when both sides
    vanished at every sample); ``witness`` records where the worst sample
    occurred so a failure can be replayed.
    """

    name: str
    worst_ratio: float
    passed: bool
    witness: dict[str, Any] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self))


@dataclass
class DiagnosticsRecord:
    """A named bundle of check results plus the sampling metadata."""

    name: str
    checks: list[CheckResult] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "passed": self.passed, "checks": [c.to_dict() for c in self.checks]}
