"""Drive parameters and the static-coupling parameter map.

Fields are gamma*B in angular-frequency units, real 3-vectors (x, y, z);
the spin couples through H = field . S with S = sigma/2. The drive fields
themselves are defined once, as the real 2x2 block form of each loop
generator (schedule.Segment.block_fields), which derives every
transitionless correction from its root drive. This module holds what
those fields are built from:

* the parameter dataclasses of the single-qubit cone loop, the
  control-conditioned two-qubit loop and its static-coupling realization,
* the conditional cone angle theta_tilde,
* the map from loop parameters to the static-coupling realization,
* the closed-form magnitude of the corrected single-qubit field.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "LoopParams",
    "TwoQubitParams",
    "ExpParams",
    "tqd_field_magnitude",
    "theta_tilde",
    "experimental_params",
]

# Largest rate magnitude a loop accepts. The propagators square and sum
# fields built from a few rates; beyond about sqrt(1.8e308) = 1.3e154 the
# squares overflow and every propagator turns to nan, so rates stop well
# short of that.
_MAX_RATE = 1e150
# Largest angle (rad) a loop's fastest rate turns through in one period
# 2*pi/|omega|. Its phases carry rounding of about turn * 1e-16, already
# 1e-4 rad here; the propagators' squared fields, in units of the loop
# period (propagate._period_unit), stay finite up to it.
_MAX_TURN = 1e12
_REAL = (int, float, np.integer, np.floating)


def _check_real(name: str, value, positive: bool = False) -> None:
    """Reject bools, non-numbers and non-finite values (with `positive`,
    also values <= 0) with a ValueError naming the parameter. The range
    test is exact, so an integer beyond the float range is rejected too
    (math.isfinite raised OverflowError on it)."""
    if (isinstance(value, bool) or not isinstance(value, _REAL)
            or not abs(value) <= sys.float_info.max or (positive and value <= 0.0)):
        kind = "positive and finite" if positive else "a finite real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_rates(**rates) -> None:
    """Check a loop's rates: `omega` nonzero, the others positive, all
    finite real numbers within _MAX_RATE and _MAX_TURN."""
    for name, value in rates.items():
        _check_real(name, value, positive=name != "omega")
        if name == "omega" and value == 0.0:
            raise ValueError("omega must be finite and nonzero")
        if abs(value) > _MAX_RATE:
            raise ValueError(
                f"{name} = {value:g} is out of range: loop rates must not exceed "
                f"{_MAX_RATE:g} in magnitude, or their squared fields overflow"
            )
    fastest = max(abs(v) for v in rates.values())
    if 2.0 * math.pi * fastest > _MAX_TURN * abs(rates["omega"]):
        raise ValueError(
            f"rates too far apart: the fastest, {fastest:g}, turns more than "
            f"{_MAX_TURN:g} rad in one loop period 2*pi/|omega| (omega = {rates['omega']:g})"
        )


class _Loop:
    """Period and reversal of a loop traversed at the signed rate omega,
    shared by both loop parameter sets."""

    @property
    def period(self) -> float:
        return 2.0 * np.pi / abs(self.omega)

    def reversed(self):
        """Same loop, opposite traversal orientation."""
        return replace(self, omega=-self.omega)


@dataclass(frozen=True)
class LoopParams(_Loop):
    """One conical precession loop for a single qubit.

    theta: cone opening angle in [0, pi].
    omega: signed precession rate; the sign selects the traversal
        orientation and the loop period is 2*pi/|omega|.
    omega0: Larmor rate (field magnitude of the uncorrected drive), > 0.
    """

    theta: float
    omega: float
    omega0: float = 1.0

    def __post_init__(self):
        _check_real("theta", self.theta)
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        _check_rates(omega=self.omega, omega0=self.omega0)


@dataclass(frozen=True)
class _Conditional(_Loop):
    """The rates of a control-conditioned loop, which TwoQubitParams and
    schedule.ConditionalLoopParams share; theta_tilde, experimental_params
    and the other functions of these rates take either.

    omega_i: transverse drive amplitude on the target qubit, > 0.
    coupling: Ising zz coupling strength J to the control qubit, > 0.
    omega: signed precession rate of the transverse drive.
    """

    omega_i: float
    coupling: float
    omega: float

    def __post_init__(self):
        _check_rates(omega_i=self.omega_i, coupling=self.coupling, omega=self.omega)

    @property
    def rabi(self) -> float:
        """Generalized Rabi rate sqrt(omega_i^2 + J^2), the conditional field magnitude."""
        return float(np.hypot(self.omega_i, self.coupling))


@dataclass(frozen=True)
class TwoQubitParams(_Conditional):
    """Control-conditioned loop drive on the target qubit.

    omega_pi: pulse rate used for the half-turn pulses of the echo
        sequence. Defaults to 50*|omega|, fast enough that pulse
        durations are short against the loop period.
    """

    omega_pi: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.omega_pi is None:
            object.__setattr__(self, "omega_pi", 50.0 * abs(self.omega))
        _check_real("omega_pi", self.omega_pi, positive=True)


@dataclass(frozen=True)
class ExpParams:
    """Static-coupling realization of the conditional drive.

    j_xz: cross coupling between control z and target x axes.
    j_zz: Ising zz coupling.
    theta_prime: polar angle of the static target field, in (0, pi) so
        the transverse component stays positive. Forward traversal maps
        to an obtuse angle (negative static z); the reversed loop's map
        reflects it to an acute one.
    omega_i_prime: magnitude of the static target field, > 0.
    """

    j_xz: float
    j_zz: float
    theta_prime: float
    omega_i_prime: float

    def __post_init__(self):
        if not (0.0 < self.theta_prime < np.pi):
            raise ValueError(
                f"theta_prime must lie in (0, pi), got {self.theta_prime}"
            )
        if self.omega_i_prime <= 0.0:
            raise ValueError("omega_i_prime must be positive")


def tqd_field_magnitude(p: LoopParams) -> float:
    """|corrected field| = sqrt(omega0^2 + omega^2 sin^2 theta); time independent
    and even in omega."""
    return float(np.hypot(p.omega0, p.omega * np.sin(p.theta)))


# ---------------------------------------------------------------------------
# Conditional two-qubit drive
# ---------------------------------------------------------------------------

def theta_tilde(p: TwoQubitParams) -> float:
    """Cone angle of the conditional field: cos = J / sqrt(omega_i^2 + J^2).

    The control state q selects the cone angle theta_tilde (q=0) or
    pi - theta_tilde (q=1).
    """
    return float(np.arccos(p.coupling / p.rabi))


def experimental_params(p: TwoQubitParams) -> ExpParams:
    """Map loop parameters to the static-coupling realization.

    The rotating transverse drive keeps amplitude omega_i; the correction
    is absorbed into a cross coupling j_xz and a tilted static field of
    magnitude omega_i_prime at polar angle theta_prime. theta_prime lands
    in (pi/2, pi) because the static z component is -omega*cos^2(theta_tilde),
    negative for forward traversal.

    The reversed-orientation loop uses this map evaluated on the reversed
    parameters (omega -> -omega), which flips j_xz and reflects theta_prime.
    """
    tt = theta_tilde(p)
    s, c = np.sin(tt), np.cos(tt)
    zc = -p.omega * c * c
    omega_i_prime = float(np.hypot(p.omega_i, zc))
    theta_prime = float(np.arctan2(p.omega_i, zc))
    return ExpParams(
        j_xz=float(-p.omega * s * c),
        j_zz=p.coupling,
        theta_prime=theta_prime,
        omega_i_prime=omega_i_prime,
    )
