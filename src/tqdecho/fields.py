"""Loop records and the static-coupling parameter map.

Fields are gamma*B in angular-frequency units, real 3-vectors (x, y, z);
the spin couples through H = field . S with S = sigma/2. Each loop's
parameter class is itself a schedule segment (LoopParams,
RootLoopParams, TwoQubitParams, ExpLoopParams): frozen and validated, it
states per block a root field at wt = 0 on the cone of `cones()` in a
local frame where the field precesses about z, and the `orientation`
that turns that frame into the lab frame, so a turned loop is one value.
The drive fields are defined once, as the real 2x2 block form of each
loop generator (_Loop.block_fields), which derives every transitionless
correction from the record's root drive (_berry_corrected). A record
holds its loop only: the echo builders in schedule take the pulse rate.
This module also holds the conditional cone angle theta_tilde, the map
to the static-coupling realization, and the closed-form magnitude of
the corrected single-qubit field.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "LoopParams",
    "RootLoopParams",
    "TwoQubitParams",
    "ExpLoopParams",
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
# period (_period_unit), stay finite up to it.
_MAX_TURN = 1e12
_REAL = (int, float, np.integer, np.floating)


def _check_real(name: str, value, positive: bool = False) -> float:
    """`value` as a Python float, the one form in which the package uses
    a checked real. Rejects bools, non-numbers and non-finite values
    (with `positive`, also values <= 0) with a ValueError naming the
    parameter. A Python int is range-tested exactly, so one beyond the
    float range is rejected too (float() raises OverflowError on it); any
    other real is tested once converted, as comparing a float32 or
    float16 with the float64 bound would cast the bound and overflow."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or (
            isinstance(value, int) and not abs(value) <= sys.float_info.max):
        x = math.nan
    else:
        x = float(value)
    if not math.isfinite(x) or (positive and x <= 0.0):
        kind = "positive and finite" if positive else "a finite real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return x


def _check_flag(name: str, value) -> None:
    """Reject anything but True or False with a ValueError naming the
    parameter: a truthy string or number must not pick a branch."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean, got {value!r}")


def _check_rates(**rates) -> None:
    """Check a loop's rates, finite Python floats already (_real_fields):
    `omega` nonzero with a finite period, the others positive, all within
    _MAX_RATE and _MAX_TURN."""
    for name, value in rates.items():
        if name != "omega" and not value > 0.0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if name == "omega" and value == 0.0:
            raise ValueError("omega must be finite and nonzero")
        if abs(value) > _MAX_RATE:
            raise ValueError(
                f"{name} = {value:g} is out of range: loop rates must not exceed "
                f"{_MAX_RATE:g} in magnitude, or their squared fields overflow"
            )
    if not math.isfinite(2.0 * math.pi / abs(rates["omega"])):
        raise ValueError(
            f"omega = {rates['omega']:g} is too slow: its loop period 2*pi/|omega| overflows"
        )
    fastest = max(abs(v) for v in rates.values())
    if 2.0 * math.pi * fastest > _MAX_TURN * abs(rates["omega"]):
        raise ValueError(
            f"rates too far apart: the fastest, {fastest:g}, turns more than "
            f"{_MAX_TURN:g} rad in one loop period 2*pi/|omega| (omega = {rates['omega']:g})"
        )


class _Orientation(NamedTuple):
    """A turn of a loop's local frame into the lab frame."""
    matrix: np.ndarray  # 3x3, on fields
    spin: np.ndarray  # SU(2), on the driven qubit's states


@functools.cache
def _float_fields(record_class: type) -> tuple:
    return tuple(f.name for f in dataclasses.fields(record_class) if f.type in ("float", float))


def _real_fields(record, positive: bool = False) -> None:
    """Check each float field of a record with _check_real, and store the
    Python float it returns. Equal values then have one repr, which the
    walk's dedup key repr(record) needs: under numpy 2, np.float64(1.0)
    reprs as "np.float64(1.0)" and the integer 1 as "1", either of which
    would split a loop from its equal twin built with 1.0."""
    for name in _float_fields(type(record)):
        object.__setattr__(record, name, _check_real(name, getattr(record, name), positive))


def _berry_corrected(transverse: float, bz: float, omega: float) -> tuple:
    """Root field (transverse, 0, bz) plus its transitionless correction
    b x db/dt (Berry, J. Phys. A 42, 365303 (2009)), as (transverse, bz).

    For a root field precessing rigidly about z at rate omega,
    b x db/dt = omega (z - (z.b) b) with b = root / |root|. The rule
    commutes with rotations about z, so correcting the field at wt = 0,
    where it lies in the xz plane, corrects it at every t.
    """
    r = math.hypot(transverse, bz)
    b_x, b_z = transverse / r, bz / r
    return transverse - omega * (b_z * b_x), bz + omega * (1.0 - b_z * b_z)


# Every loop is propagated in units of its own period: its fields times
# a power of two s near 1/|omega| and its times divided by s, which
# leaves H*t unchanged. Powers of two scale exactly (and so does the
# square root of a square), so this moves no byte where the unscaled
# squares of the fields are finite and normal, and keeps them so where
# they would underflow or overflow.
def _period_unit(omega: float) -> float:
    """The power of two s that brings s*|omega| into [0.5, 1)."""
    return math.ldexp(1.0, -math.frexp(abs(omega))[1])


def _rotating_frame(record) -> np.ndarray:
    """The rotating-frame row of a block-form record (a loop or a pulse),
    stated from its block at wt = 0 (its `_frame_block()`, the values of
    block_fields(0.0)), as the exact propagator's table holds it: the
    period unit s of its `_frame_rate` omega, omega/2, its `axis` n, then
    per block c0, |w| and w = s*(v(0) - omega*n/2), the x components of
    w first, block by block, then y, then z. Read-only: the record caches
    it as `_frame_row`. The few values are Python floats, each operation
    rounded once as numpy rounds it."""
    c0, v = record._frame_block()
    rate, axis = record._frame_rate, record.axis
    scale, half = _period_unit(rate), 0.5 * rate
    x, y, z = ([scale * (vj - half * n) for vj in comp] for comp, n in zip(v, axis))
    r = [math.sqrt(wx * wx + wy * wy + wz * wz) for wx, wy, wz in zip(x, y, z)]
    row = np.array([scale, half, *axis, *c0, *r, *x, *y, *z])
    row.flags.writeable = False
    return row


class _Loop:
    """What the loop records share: float fields checked (and stored as
    floats) before the loop's own checks, a period 2*pi/|omega| that is
    also the duration, reversal, a label loop-C (omega > 0) or loop-Cbar
    naming the traversal orientation, and per block, in the loop's local
    frame, a root field (transverse, bz) at wt = 0 (each record's
    `root()`) on the cone of `cones()`, its correction and a scalar
    term. The record's `orientation` turns the local frame into the lab
    frame (None for none); `axis`, the direction its field precesses
    about on the driven qubit, is the orientation's image of z, and
    `_frame_rate`, the rate it precesses at, is omega, and `_frame_row`
    is its rotating frame (_rotating_frame), stated from its corrected
    fields, `frame` terms and `orientation` by `_frame_block()`. Its
    blocks need no turn of the control, so its `_control_frame` is
    None."""

    frame = (-0.0, -0.0)
    orientation = None
    _control_frame = None
    label = property(lambda self: "loop-C" if self.omega > 0 else "loop-Cbar")
    axis = property(lambda self: (0.0, 0.0, 1.0) if self.orientation is None
                    else tuple(self.orientation.matrix[:, 2].tolist()))
    _frame_rate = property(lambda self: self.omega)
    _frame_row = functools.cached_property(_rotating_frame)

    def __post_init__(self):
        _real_fields(self)

    @functools.cached_property
    def period(self) -> float:
        return 2.0 * np.pi / abs(self.omega)

    @functools.cached_property
    def duration(self) -> float:
        return self.period

    def reversed(self):
        """Same loop, opposite traversal orientation."""
        return replace(self, omega=-self.omega)

    def corrected(self) -> list:
        """The root fields plus their Berry correction."""
        return [_berry_corrected(transverse, bz, self.omega) for transverse, bz in self.root()]

    def _frame_block(self) -> tuple:
        """(c0, v) of block_fields(0.0) as lists, without its arrays: c0
        per block, and v's x, y and z components per block. At wt = 0 the
        cosine is 1 and the sine the zero of omega's sign, by which v_y
        is still multiplied; a turned loop keeps block_fields' product
        with the orientation matrix, the same (3, 3) @ (3, blocks) call,
        as another BLAS call shape may round otherwise."""
        fields = self.corrected()
        sin = math.sin(self.omega * 0.0)
        v = [[0.5 * transverse for transverse, _ in fields],
             [0.5 * transverse * sin for transverse, _ in fields],
             [0.5 * bz for _, bz in fields]]
        if self.orientation is not None:
            v = (self.orientation.matrix @ np.array(v)).tolist()
        return [c for _, c in zip(fields, self.frame)], v

    def block_fields(self, ts: np.ndarray, corrected: bool = True) -> tuple:
        """Real 2x2 block form of the loop generator at the given local times.

        Returns (c0, v), c0 of shape (blocks, len(ts)) and v of shape
        (3, blocks, len(ts)): block j of the generator is
        c0[j] + v[:, j] . sigma on rows and columns j and j + blocks. A
        dim-2 loop is one block; two-qubit loops are block-diagonal in the
        control basis, sector q on the index pair (q, q + 2). v[:, j] is
        half the field of block j, `corrected()` or with corrected=False
        (a bool) `root()`, turned from its local frame by the
        `orientation`, and c0[j] its `frame` term, -0.0 (the exact
        additive identity) for none.
        """
        _check_flag("corrected", corrected)
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        fields = self.corrected() if corrected else self.root()
        wt = self.omega * ts
        cos, sin = np.cos(wt), np.sin(wt)
        c0 = np.empty((len(fields), ts.size))
        v = np.empty((3,) + c0.shape)
        for j, ((transverse, bz), c) in enumerate(zip(fields, self.frame)):
            np.multiply(0.5 * transverse, cos, out=v[0, j])
            np.multiply(0.5 * transverse, sin, out=v[1, j])
            v[2, j] = 0.5 * bz
            c0[j] = c
        if self.orientation is not None:
            v = (self.orientation.matrix @ v.reshape(3, -1)).reshape(v.shape)
        return c0, v


@dataclass(frozen=True)
class LoopParams(_Loop):
    """One period of the corrected conical precession drive on a single
    qubit, the tqd-loop segment; RootLoopParams is its uncorrected twin.

    theta: cone opening angle in [0, pi].
    omega: signed precession rate; the sign selects the traversal
        orientation and the loop period is 2*pi/|omega|.
    omega0: Larmor rate (field magnitude of the uncorrected drive), > 0.
    rotation: turn of the whole drive about y, in rad; 0 leaves the
        cone about z.
    """

    theta: float
    omega: float
    omega0: float = 1.0
    rotation: float = 0.0
    kind = "tqd-loop"
    dim = 2

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        _check_rates(omega=self.omega, omega0=self.omega0)

    @functools.cached_property
    def orientation(self) -> _Orientation | None:
        if self.rotation == 0.0:  # no product with the identity, which turns -0.0 into 0.0
            return None
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        hc, hs = np.cos(0.5 * self.rotation), np.sin(0.5 * self.rotation)
        turn = _Orientation(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]),
                            np.array([[hc, -hs], [hs, hc]], dtype=complex))
        for m in turn:
            m.flags.writeable = False  # cached: every reader of the record shares it
        return turn

    def cones(self) -> tuple:
        return (self.theta,)

    def root(self) -> list:
        return [(self.omega0 * np.sin(self.theta), self.omega0 * np.cos(self.theta))]


@dataclass(frozen=True)
class RootLoopParams(LoopParams):
    """The root-loop segment: the loop of LoopParams without its
    transitionless correction, so its `corrected()` is its `root()`."""

    kind = "root-loop"

    @classmethod
    def of(cls, p: LoopParams) -> "RootLoopParams":
        """The uncorrected twin of loop p."""
        return cls(p.theta, p.omega, p.omega0, p.rotation)

    def corrected(self) -> list:
        return self.root()


@dataclass(frozen=True)
class TwoQubitParams(_Loop):
    """A corrected control-conditioned loop on the driven qubit, the
    two-qubit-loop segment. The blocks are the control sectors q = 0, 1,
    on cones theta_tilde and pi - theta_tilde about z.

    omega_i: transverse drive amplitude on the target qubit, > 0.
    coupling: Ising zz coupling strength J to the control qubit, > 0.
    omega: signed precession rate of the transverse drive.
    """

    omega_i: float
    coupling: float
    omega: float
    kind = "two-qubit-loop"
    dim = 4

    def __post_init__(self):
        super().__post_init__()
        _check_rates(omega_i=self.omega_i, coupling=self.coupling, omega=self.omega)

    @property
    def rabi(self) -> float:
        """Generalized Rabi rate sqrt(omega_i^2 + J^2), the conditional field magnitude."""
        return float(np.hypot(self.omega_i, self.coupling))

    def cones(self) -> tuple:
        return (theta_tilde(self), np.pi - theta_tilde(self))

    def root(self) -> list:
        return [(self.omega_i, self.coupling), (self.omega_i, -self.coupling)]


@dataclass(frozen=True)
class ExpLoopParams(TwoQubitParams):
    """The conditional loop in its static-coupling realization, the
    exp-loop segment, with the control-frame term omega * (1 x Sz),
    +-omega/2 on the sectors."""

    kind = "exp-loop"

    @property
    def frame(self) -> tuple:
        return (0.5 * self.omega, -0.5 * self.omega)

    @functools.cached_property
    def _experimental(self) -> ExpParams:
        return experimental_params(self)  # frozen, so one per record serves every read

    def corrected(self) -> list:
        """The field of experimental_params, the realization criterion 7
        checks against the corrected two-qubit loop."""
        e = self._experimental
        return [
            (e.omega_i_prime * np.sin(e.theta_prime) + g * e.j_xz,
             e.omega_i_prime * np.cos(e.theta_prime) + self.omega + g * e.j_zz)
            for g in (1, -1)
        ]


@dataclass(frozen=True)
class ExpParams:
    """Static-coupling realization of the conditional drive.

    j_xz: cross coupling between the control's z and the target's x.
    j_zz: Ising zz coupling.
    theta_prime: polar angle of the static target field, in [0, pi].
        Forward traversal maps to an obtuse angle (negative static z);
        the reversed loop's map reflects it to an acute one. The
        transverse component omega_i is positive, but where it is below
        about 2e-16 of the static z the angle rounds to pi (or 0).
    omega_i_prime: magnitude of the static target field, > 0.
    """

    j_xz: float
    j_zz: float
    theta_prime: float
    omega_i_prime: float

    def __post_init__(self):
        _real_fields(self)
        if not (0.0 <= self.theta_prime <= np.pi):
            raise ValueError(f"theta_prime must lie in [0, pi], got {self.theta_prime}")
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
    """Cone angle of the conditional field: tan = omega_i / J, so
    cos = J / sqrt(omega_i^2 + J^2). Taken by atan2, which keeps every
    digit when omega_i << J, where arccos(J / rabi) rounds to 0.

    The control state q selects the cone angle theta_tilde (q=0) or
    pi - theta_tilde (q=1).
    """
    return math.atan2(p.omega_i, p.coupling)


def experimental_params(p: TwoQubitParams) -> ExpParams:
    """Map loop parameters to the static-coupling realization.

    The rotating transverse drive keeps amplitude omega_i; the correction
    is absorbed into a cross coupling j_xz and a tilted static field of
    magnitude omega_i_prime at polar angle theta_prime. theta_prime lands
    in (pi/2, pi] because the static z component is -omega*cos^2(theta_tilde),
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
