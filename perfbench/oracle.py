"""Correctness oracle: every op's output is checked against a bound.

An op passes only when it returns and every check holds. A raised
exception (for example ``RuntimeError("step budget exhausted")``) makes
the op failed, never the run crashed; a returned value outside its bound
makes the op failed and the output incorrect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

# bounds stated by the package for each quantity
GEOMETRIC_DEVIATION = 1e-6
DYNAMICAL_DEVIATION = 1e-6
LEAKAGE = 1e-6
PHASE_RESIDUAL = 1e-5
GATE_EQUIVALENCE = 1e-5
FIELD_MAP_DEVIATION = 1e-10
DELTA_OMEGA = 1e-12
FLAG = 0.5  # pass/fail facts recorded as 0.0 (holds) or 1.0 (broken)


@dataclass(frozen=True)
class Check:
    name: str
    layer: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)  # nan fails

    @property
    def margin(self) -> float:
        return self.value / self.bound


def flag(name: str, layer: str, holds: bool) -> Check:
    return Check(name, layer, 0.0 if holds else 1.0, FLAG)


def wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


@dataclass
class Outcome:
    """What one op produced: its checks, or the exception it raised."""

    checks: list = field(default_factory=list)
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    @property
    def wrong(self) -> bool:
        """True when the op returned an output outside its bound."""
        return self.error is None and not all(c.passed for c in self.checks)

    def margin(self, layer: str) -> float | None:
        ms = [c.margin for c in self.checks if c.layer == layer and c.bound != FLAG]
        return max(ms) if ms else None


def judge(op, *args) -> tuple:
    """Run `op(*args)`, which returns (checks, extra). Returns (Outcome, extra);
    an exception becomes a failed Outcome with extra None."""
    try:
        checks, extra = op(*args)
    except Exception as exc:  # an op's failure is data, not a crash of the run
        return Outcome(error=f"{type(exc).__name__}: {exc}"), None
    return Outcome(checks=list(checks)), extra
