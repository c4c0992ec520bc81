"""Driving-field definitions.

All fields are returned as gamma*B in angular-frequency units, as real
3-vectors (x, y, z). The spin couples through H = field . S with S = sigma/2.

Three field families live here:

* single-qubit circularly precessing root fields and their transitionless
  corrections,
* conditional (two-qubit) fields where an Ising coupling to a control qubit
  shifts the z component of the field seen by the target,
* the laboratory-style parametrization that realizes the conditional drive
  with a static cross coupling plus a rotating transverse term.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "LoopParams",
    "TwoQubitParams",
    "ExpParams",
    "root_field",
    "field_direction",
    "tqd_correction",
    "tqd_field",
    "tqd_field_magnitude",
    "delta_field",
    "theta_tilde",
    "conditional_root_field",
    "two_qubit_conditional_field",
    "experimental_params",
    "exp_rotating_field",
]


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


# ---------------------------------------------------------------------------
# Single-qubit loop fields
# ---------------------------------------------------------------------------

def field_direction(p: LoopParams, t: float) -> np.ndarray:
    """Unit direction of the root field at time t."""
    s, c = np.sin(p.theta), np.cos(p.theta)
    return np.array([s * np.cos(p.omega * t), s * np.sin(p.omega * t), c])


def root_field(p: LoopParams, t: float) -> np.ndarray:
    """Uncorrected drive: magnitude omega0 precessing on the cone."""
    return p.omega0 * field_direction(p, t)


def _fd_derivative(f, t: float, h: float) -> np.ndarray:
    return (np.asarray(f(t + h), dtype=float) - np.asarray(f(t - h), dtype=float)) / (2.0 * h)


def tqd_correction(b0, t: float, h: float | None = None) -> np.ndarray:
    """Transitionless correction field b0 x db0/dt for a unit direction b0.

    b0 may be a LoopParams (analytic derivative) or a callable t -> unit
    3-vector (central finite difference with step halving until the result
    is stable to 1e-9; raises if b0(t) is not a unit vector to 1e-9).
    """
    if isinstance(b0, LoopParams):
        p = b0
        s, c = np.sin(p.theta), np.cos(p.theta)
        wt = p.omega * t
        return p.omega * s * np.array([-c * np.cos(wt), -c * np.sin(wt), s])

    b = np.asarray(b0(t), dtype=float)
    if abs(np.linalg.norm(b) - 1.0) > 1e-9:
        raise ValueError("b0(t) must be a unit vector; normalize the direction first")
    step = 1e-3 if h is None else h
    prev = np.cross(b, _fd_derivative(b0, t, step))
    for _ in range(24):
        step *= 0.5
        cur = np.cross(b, _fd_derivative(b0, t, step))
        if np.max(np.abs(cur - prev)) <= 1e-9:
            return cur
        prev = cur
    raise ValueError("finite-difference correction did not stabilize to 1e-9")


def tqd_field(p: LoopParams, t: float) -> np.ndarray:
    """Corrected drive root_field + tqd_correction, in closed form.

    Transverse amplitude (omega0 - omega*cos(theta))*sin(theta) co-rotating
    with the root field, plus a constant z offset
    omega0*cos(theta) + omega*sin(theta)^2.
    """
    s, c = np.sin(p.theta), np.cos(p.theta)
    wt = p.omega * t
    transverse = (p.omega0 - p.omega * c) * s
    return np.array([
        transverse * np.cos(wt),
        transverse * np.sin(wt),
        p.omega0 * c + p.omega * s * s,
    ])


def tqd_field_magnitude(p: LoopParams) -> float:
    """|corrected field| = sqrt(omega0^2 + omega^2 sin^2 theta); time independent
    and even in omega."""
    return float(np.hypot(p.omega0, p.omega * np.sin(p.theta)))


def delta_field(p: LoopParams, t: float) -> np.ndarray:
    """Orientation asymmetry of the corrected drive.

    Difference between the corrected fields of the two traversal
    orientations, compared at the same local time t:

        2*sin(theta) * (-omega*cos(theta)*cos(omega t),
                         omega0*sin(omega t),
                         omega*sin(theta))

    This is the part of the drive a hardware sequencer must actually
    change when switching orientation; replaying the forward waveform
    does not produce the reversed loop.
    """
    s, c = np.sin(p.theta), np.cos(p.theta)
    wt = p.omega * t
    return 2.0 * s * np.array([
        -p.omega * c * np.cos(wt),
        p.omega0 * np.sin(wt),
        p.omega * s,
    ])


# ---------------------------------------------------------------------------
# Conditional two-qubit fields
# ---------------------------------------------------------------------------

def theta_tilde(p: TwoQubitParams) -> float:
    """Cone angle of the conditional field: cos = J / sqrt(omega_i^2 + J^2).

    The control state q selects the cone angle theta_tilde (q=0) or
    pi - theta_tilde (q=1).
    """
    return float(np.arccos(p.coupling / p.rabi))


def conditional_root_field(p: TwoQubitParams, q: int, t: float) -> np.ndarray:
    """Uncorrected field seen by the target when the control is |q>."""
    if q not in (0, 1):
        raise ValueError("control label q must be 0 or 1")
    sign = 1 - 2 * q
    return np.array([
        p.omega_i * np.cos(p.omega * t),
        p.omega_i * np.sin(p.omega * t),
        sign * p.coupling,
    ])


def two_qubit_conditional_field(p: TwoQubitParams, q: int, t: float) -> np.ndarray:
    """Corrected conditional field for control state |q>.

    Both control branches share one physical drive: the correction for the
    q=1 branch is the q=0 correction with the cone angle reflected, which
    this closed form encodes through the (1-2q) factors.
    """
    if q not in (0, 1):
        raise ValueError("control label q must be 0 or 1")
    sign = 1 - 2 * q
    tt = theta_tilde(p)
    s, c = np.sin(tt), np.cos(tt)
    wt = p.omega * t
    transverse = p.omega_i - sign * p.omega * s * c
    return np.array([
        transverse * np.cos(wt),
        transverse * np.sin(wt),
        sign * p.coupling + p.omega * s * s,
    ])


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


def exp_rotating_field(e: ExpParams, omega: float, q: int, t: float) -> np.ndarray:
    """Conditional field generated by the static-coupling parameters,
    as seen in the frame rotating at omega about z.

    Transverse amplitude omega_i_prime*sin(theta_prime) + (1-2q)*j_xz
    co-rotating at omega, z component
    omega_i_prime*cos(theta_prime) + omega + (1-2q)*j_zz. The +omega term
    is the frame shift of the static field's z component.
    """
    if q not in (0, 1):
        raise ValueError("control label q must be 0 or 1")
    sign = 1 - 2 * q
    transverse = e.omega_i_prime * np.sin(e.theta_prime) + sign * e.j_xz
    wt = omega * t
    return np.array([
        transverse * np.cos(wt),
        transverse * np.sin(wt),
        e.omega_i_prime * np.cos(e.theta_prime) + omega + sign * e.j_zz,
    ])
