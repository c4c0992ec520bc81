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


def _check_rates(**rates) -> None:
    for name, value in rates.items():
        if abs(value) > _MAX_RATE:
            raise ValueError(
                f"{name} = {value:g} is out of range: loop rates must not exceed "
                f"{_MAX_RATE:g} in magnitude, or their squared fields overflow"
            )


@dataclass(frozen=True)
class LoopParams:
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
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if self.omega == 0.0 or not np.isfinite(self.omega):
            raise ValueError("omega must be finite and nonzero")
        if self.omega0 <= 0.0 or not np.isfinite(self.omega0):
            raise ValueError("omega0 must be positive and finite")
        _check_rates(omega=self.omega, omega0=self.omega0)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / abs(self.omega)

    def reversed(self) -> "LoopParams":
        """Same cone, opposite traversal orientation."""
        return replace(self, omega=-self.omega)


@dataclass(frozen=True)
class TwoQubitParams:
    """Control-conditioned loop drive on the target qubit.

    omega_i: transverse drive amplitude on the target qubit, > 0.
    coupling: Ising zz coupling strength J to the control qubit, > 0.
    omega: signed precession rate of the transverse drive.
    omega_pi: pulse rate used for the half-turn pulses of the echo
        sequence. Defaults to 50*|omega|, fast enough that pulse
        durations are short against the loop period.
    """

    omega_i: float
    coupling: float
    omega: float
    omega_pi: float | None = None

    def __post_init__(self):
        if self.omega_i <= 0.0 or not np.isfinite(self.omega_i):
            raise ValueError("omega_i must be positive and finite")
        if self.coupling <= 0.0 or not np.isfinite(self.coupling):
            raise ValueError("coupling must be positive and finite")
        if self.omega == 0.0 or not np.isfinite(self.omega):
            raise ValueError("omega must be finite and nonzero")
        _check_rates(omega_i=self.omega_i, coupling=self.coupling, omega=self.omega)
        if self.omega_pi is None:
            object.__setattr__(self, "omega_pi", 50.0 * abs(self.omega))
        if self.omega_pi <= 0.0 or not np.isfinite(self.omega_pi):
            raise ValueError("omega_pi must be positive and finite")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / abs(self.omega)

    @property
    def rabi(self) -> float:
        """Generalized Rabi rate sqrt(omega_i^2 + J^2), the conditional field magnitude."""
        return float(np.hypot(self.omega_i, self.coupling))

    def reversed(self) -> "TwoQubitParams":
        return replace(self, omega=-self.omega)


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
