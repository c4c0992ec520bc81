"""Time evolution of piecewise schedules.

Two propagators share one interface; `policy` selects between them. Both
work on the real 2x2 block form of the generators (_Loop.block_fields)
and store each SU(2) factor as a real quaternion; no generator is built
as a dense matrix, and complex matrices are built only at the sample
times, by one packer.

Exact (policy=None, the default). Every loop kind is a transverse field
precessing at a fixed rate omega about an axis n, plus a static part
along n. With P = n . sigma on the driven qubit (P @ P = 1), the
generator is H(t) = R(t) H(0) R(t)^dag with R(t) = exp(-i*omega*t*P/2),
and in the frame rotating with the drive it is the static
K = H(0) - omega*P/2. Hence the closed form

    U(t) = exp(-i*omega*t*P/2) exp(-i*K*t)

(Rabi, Phys. Rev. 51, 652 (1937)). n is the loop record's `axis`: z
turned by the orientation that takes its one local frame to the lab
frame, as its block fields are. P is n . sigma in the single block of a
one-qubit loop and in each control sector of a two-qubit loop, so per
block both factors are rotations, evaluated at every sample time in
closed form: K = c0 + (v(0) - omega*n/2) . sigma gives the scalar phase
exp(-i*c0*t) times a Rodrigues quaternion, and one Hamilton product per
sample joins it to the frame rotation. The exp-loop frame term is the
scalar c0 of each sector. A pulse is a frame turn: its block field
0.5*omega_pi*n, turning about its `axis` n at its own rate omega_pi,
gives K = 0, so the inner factor is exactly 1. The control flip is in
block form in its control's y basis (c0 = +-omega_pi/2, n = x), so its
packed propagators are turned back by its `_control_frame` F, as
F U F^dag. Idles are the identity. Pulses and idles take this path
under either policy. No eigendecomposition runs.

Magnus oracle (StepPolicy(substeps=N)). Within each loop segment the
generator is sampled at the two Gauss-Legendre points of each substep,
t_mid -+ dt/(2*sqrt(3)), and the propagator is the ordered product of
the exact exponentials of the fourth-order Magnus exponent,
exp(-i*(H_bar - i*(sqrt(3)*dt/12)*[H2, H1])*dt) with H_bar the mean of
the two samples (Iserles and Norsett, Phil. Trans. R. Soc. A 357, 983
(1999); Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 151 (2009)). Each
factor is unitary, so the product is unitary at any step count, and the
scheme is fourth-order accurate in the step size. It shares nothing with
the exact loop kernel but the drive formulas, the Hamilton product and
the packer, which makes it the independent oracle that acceptance
criterion 8 runs. Each step is a scalar phase times a per-block
quaternion; the steps are multiplied as quaternions. The tests pin both
propagators to dense eigendecomposition references, which they pack
from the same block fields (tests/dense.py).

Gates and trajectories compose schedules through one walk
(_segment_propagators), the only path from segments to propagators. It
may span a batch of schedules and propagates each distinct segment of
the batch once. It stacks the distinct records of one dim: one
closed-form kernel call evaluates the pulses, and on the exact path
the loops, each on its own row of sample times, and the oracle
multiplies all the loops' Magnus steps in one product tree. Each entry
is the same whatever is stacked beside it, and the
association order of every product is fixed, so a schedule's
propagators have the same bytes in any batch and on every rerun.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import _Loop
from .schedule import IdleParams, SegmentSchedule, _check_count, _write_csv

__all__ = [
    "StepPolicy",
    "Trajectory",
    "propagate_schedule",
    "trajectory_to_csv",
]

@dataclass(frozen=True)
class StepPolicy:
    """The fourth-order Magnus oracle with a fixed number of substeps per
    loop segment (at least the segment's checkpoints).

    Pass policy=None instead to use the exact propagator.
    """

    substeps: int | None = None

    def __post_init__(self):
        if self.substeps is None:
            raise ValueError("StepPolicy needs substeps; pass policy=None for the exact propagator")
        _check_count("substeps", self.substeps, 1)


# ---------------------------------------------------------------------------
# quaternion algebra shared by both propagators
# ---------------------------------------------------------------------------

def _hamilton(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product p*q of quaternion arrays of equal shape (4, ...).

    The quaternion (a, b, c, d) stands for the SU(2) matrix
    a - i*(b*sx + c*sy + d*sz), so p*q is the matrix product p @ q.
    """
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    out = np.empty(p.shape)
    out[0] = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
    out[1] = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
    out[2] = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
    out[3] = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    return out


def _pack_quaternions(q: np.ndarray, scale: np.ndarray | None, dim: int) -> np.ndarray:
    """Per-block quaternions, shape (4, blocks, n), times the per-block
    phases `scale`, shape (blocks, n) (None for none), as (n, dim, dim)
    matrices with block j on rows and columns j and j + blocks."""
    a, b, c, d = q
    blocks = q.shape[1]
    out = np.zeros((q.shape[2], dim, dim), dtype=complex)
    for j in range(blocks):
        u = out[:, j::blocks, j::blocks]
        u[:, 0, 0] = a[j] - 1j * d[j]
        u[:, 0, 1] = -c[j] - 1j * b[j]
        u[:, 1, 0] = c[j] - 1j * b[j]
        u[:, 1, 1] = a[j] + 1j * d[j]
        if scale is not None:
            u *= scale[j, :, None, None]
    return out


# Every loop is propagated in units of its own period: its fields times
# a power of two s near 1/|omega| and its times divided by s, which
# leaves H*t unchanged. Powers of two scale exactly (and so does the
# square root of a square), so this moves no byte where the unscaled
# squares of the fields are finite and normal, and keeps them so where
# they would underflow or overflow.
def _period_unit(omega: float) -> float:
    """The power of two s that brings s*|omega| into [0.5, 1)."""
    return math.ldexp(1.0, -math.frexp(abs(omega))[1])


# ---------------------------------------------------------------------------
# fourth-order Magnus integrator (the oracle)
# ---------------------------------------------------------------------------

def _step_quaternions(seg: _Loop, n: int) -> tuple:
    """Fourth-order Magnus steps of a loop segment, one per 2x2 block of
    its generator, read from its block_fields.

    Each step samples the block h = c0 + v . sigma at the two
    Gauss-Legendre points t_mid -+ dt/(2*sqrt(3)), giving (c1, v1) and
    (c2, v2). The Magnus exponent truncated after its commutator term,
    H_bar - i*(sqrt(3)*dt/12)*[H2, H1], is c_bar + u . sigma with
    u = v_bar + (sqrt(3)/6)*dt*(v2 x v1) and bars the means of the two
    samples (Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 151 (2009)).
    The step is exp(-i*c_bar*dt) times the quaternion
    (cos r*dt, sin(r*dt)/r * u) with r = |u|. Returns the phase angles
    c_bar*dt, shape (blocks, n), and the quaternions, shape (4, blocks, n).
    """
    dt = seg.duration / n
    mid = (np.arange(n) + 0.5) * dt
    gap = dt / (2.0 * np.sqrt(3.0))
    c0, v = seg.block_fields(np.concatenate([mid - gap, mid + gap]))
    scale = _period_unit(seg.omega)
    c0, v, dt = scale * c0, scale * v, dt / scale
    v1, v2 = v[..., :n], v[..., n:]
    u = 0.5 * (v1 + v2)
    k = (np.sqrt(3.0) / 6.0) * dt
    # the cross product by components: np.cross costs more than the step
    u[0] += k * (v2[1] * v1[2] - v2[2] * v1[1])
    u[1] += k * (v2[2] * v1[0] - v2[0] * v1[2])
    u[2] += k * (v2[0] * v1[1] - v2[1] * v1[0])
    r = np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    q = np.empty((4,) + r.shape)
    np.cos(r * dt, out=q[0])
    snc = np.divide(np.sin(r * dt), r, out=np.full_like(r, dt), where=r > 0.0)
    np.multiply(snc, u, out=q[1:])
    return (0.5 * dt) * (c0[:, :n] + c0[:, n:]), q


def _segment_partials(segs, n: int, checkpoints: int) -> list:
    """Cumulative propagators of each loop segment in `segs` (all of one
    dim) from its start to each of `checkpoints` equally spaced interior
    boundaries (the last one is the segment end), one (checkpoints, dim,
    dim) array per segment. n must be a multiple of checkpoints.

    Each segment's steps come from _step_quaternions; their blocks are
    stacked on one axis, so one pairwise tree multiplies the steps of
    every chunk between checkpoints, of all segments at once, and one
    doubling prefix scan turns the chunk products into cumulative ones.
    Each block's products are the same whatever is stacked beside it.
    Complex matrices are built only for the checkpoint outputs.
    """
    steps = [_step_quaternions(seg, n) for seg in segs]
    phase = np.concatenate([angles for angles, _ in steps])
    q = np.concatenate([quats for _, quats in steps], axis=1)
    blocks = phase.shape[0]
    q = q.reshape(4, blocks, checkpoints, n // checkpoints)
    while q.shape[-1] > 1:
        m = q.shape[-1] // 2
        paired = _hamilton(q[..., 1 : 2 * m : 2], q[..., 0 : 2 * m : 2])
        q = np.concatenate([paired, q[..., -1:]], axis=-1) if q.shape[-1] % 2 else paired
    q = q[..., 0]
    shift = 1
    while shift < checkpoints:
        q[..., shift:] = _hamilton(q[..., shift:], q[..., :-shift])
        shift *= 2
    scale = np.exp(-1j * np.cumsum(phase.reshape(blocks, checkpoints, -1).sum(axis=-1), axis=-1))
    return [
        _pack_quaternions(qs, phases, seg.dim)
        for qs, phases, seg in zip(np.split(q, len(segs), axis=1), np.split(scale, len(segs)), segs)
    ]


def _oracle_steps(policy: StepPolicy, checkpoints: int) -> int:
    """Magnus steps per loop segment: the policy's substeps, at least one
    per checkpoint, rounded up to a multiple of checkpoints."""
    n = max(policy.substeps, checkpoints)
    return ((n + checkpoints - 1) // checkpoints) * checkpoints


# ---------------------------------------------------------------------------
# exact closed-form propagators
# ---------------------------------------------------------------------------

def _loop_propagators(segs, ts) -> list:
    """Exact propagators of the block-form records `segs` (loops and
    pulses, all of one dim), each from its start to the local times of
    its own row of ts, the rows of any lengths: one (len(row), dim, dim)
    array per record.

    Per 2x2 block, U(t) = exp(-i*omega*t*n.sigma/2) exp(-i*K*t) with
    omega the record's `_frame_rate`, n its `axis` and K = c0 + w . sigma,
    w = v(0) - omega*n/2, read from the record's block_fields at t = 0: the
    Rodrigues quaternions (cos(omega*t/2), sin(omega*t/2) n) and
    (cos(|w|t), sin(|w|t) w/|w|) multiplied, times the phase
    exp(-i*c0*t); a pulse has w = 0, so its inner factor is exactly 1.
    The per-record values form one small table that one np.repeat
    gathers to the samples of all records, so one pass of each
    elementwise operation and one packer call serve them all; each entry
    is the same whatever is stacked beside it. A record with a
    `_control_frame` F has its packed rows turned to F U F^dag.
    """
    fields = [seg.block_fields(0.0) for seg in segs]
    c0 = np.stack([c[:, 0] for c, _ in fields], axis=1)
    v = np.stack([f[:, :, 0] for _, f in fields], axis=2)
    rate = [seg._frame_rate for seg in segs]
    scale = np.array([_period_unit(omega) for omega in rate])
    rate, axis = np.array(rate), np.array([seg.axis for seg in segs]).T
    # w in each record's rescaled units, and |w|
    w = scale * (v - (0.5 * rate) * axis[:, None])
    r = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    blocks = r.shape[0]
    counts = [len(row) for row in ts]
    table = np.concatenate([[scale, 0.5 * rate], axis, c0, r, w.reshape(3 * blocks, -1)])
    # the gathered table is the working storage (at thousands of samples,
    # fresh arrays measured slower): each row is overwritten once read, so
    # frame and inner end as the frame rotation and exp(-i*K*t) unphased
    gathered = np.repeat(table, counts, axis=1)
    local, frame, c0 = gathered[0], gathered[1:5], gathered[5 : 5 + blocks]
    inner = gathered[5 + blocks :].reshape(4, blocks, -1)
    r = inner[0]
    ts = np.concatenate(ts)
    np.divide(ts, local, out=local)
    rt = r * local
    snc = np.empty_like(rt)
    snc[:] = local
    np.divide(np.sin(rt), r, out=snc, where=r > 0.0)
    np.cos(rt, out=r)
    np.multiply(inner[1:], snc, out=inner[1:])
    half = np.multiply(frame[0], ts, out=frame[0])
    sin_half = np.sin(half)
    np.cos(half, out=half)
    np.multiply(frame[1:], sin_half, out=frame[1:])
    q = _hamilton(np.broadcast_to(frame[:, None], inner.shape), inner)
    phase = np.exp(-1j * np.multiply(c0, ts, out=c0))
    packed = _pack_quaternions(q, phase, segs[0].dim)
    edges = np.cumsum([0] + counts).tolist()
    out = [packed[a:b] for a, b in zip(edges, edges[1:])]
    for k, frame in enumerate(seg._control_frame for seg in segs):
        if frame is not None:
            out[k] = frame @ out[k] @ frame.conj().T
    return out


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution of a schedule.

    times: absolute sample times; segment boundaries appear twice, once
        as the end of a segment and once as the start of the next, so
        per-segment reductions see closed intervals.
    segment_index: index into schedule.segments for each sample, sorted.
    propagators: cumulative propagators U(0 -> t) at each sample.
    states: propagators applied to initial_state, or None.
    substeps_used: per segment, the substeps the schedule walk reports
        (0 for an exact loop).

    Construction tabulates each segment's row slice and the samples'
    local times once, each from its segment's own grid duration*k/cps
    (cps + 1 rows, k = 0..cps), so a long segment before a loop costs
    the loop no time resolution. `phases` keeps its comoving overlap
    series per label in `_overlaps`, which starts empty on every new
    trajectory (with_initial_state and dataclasses.replace included).
    """

    schedule: SegmentSchedule
    times: np.ndarray
    segment_index: np.ndarray
    propagators: np.ndarray
    initial_state: np.ndarray | None = None
    states: np.ndarray | None = None
    substeps_used: tuple = ()
    _rows: tuple = field(init=False, repr=False, compare=False)
    _local: np.ndarray = field(init=False, repr=False, compare=False)
    _overlaps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = self.segment_index
        edges = np.searchsorted(idx, np.arange(len(self.schedule.segments) + 1))
        bounds = edges.tolist()
        object.__setattr__(self, "_rows", tuple(map(slice, bounds[:-1], bounds[1:])))
        durations = np.array([seg.duration for seg in self.schedule.segments])
        k = np.arange(idx.size) - edges[idx]
        local = durations[idx] * k / (np.diff(edges) - 1)[idx]
        local.setflags(write=False)
        object.__setattr__(self, "_local", local)

    @property
    def final_propagator(self) -> np.ndarray:
        return self.propagators[-1]

    def with_initial_state(self, psi: np.ndarray) -> "Trajectory":
        psi, states = _evolved_states(self.propagators, psi)
        return replace(self, initial_state=psi, states=states)

    def local_times(self) -> np.ndarray:
        """Sample times relative to the start of their own segment, on
        its grid duration*k/cps (read-only)."""
        return self._local

    def segment_rows(self, index: int) -> slice:
        """Row range belonging to schedule segment `index`."""
        return self._rows[index]


def _evolved_states(propagators: np.ndarray, psi: np.ndarray) -> tuple:
    """(psi, propagators applied to psi), after checking that psi is a
    normalized state of the propagators' dimension."""
    dim = propagators.shape[-1]
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"initial state must have dimension {dim}")
    # written so that a NaN norm fails the test too
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-12:
        raise ValueError("initial state must be normalized")
    return psi, np.einsum("nij,j->ni", propagators, psi)


def _segment_propagators(scheds, policy: StepPolicy | None, checkpoints: int) -> list:
    """(partials, substeps_used) for each segment of each schedule in
    `scheds`, one list per schedule: partials holds the propagators from
    the segment's start to cps equally spaced local times, shape (cps,
    dim, dim), the last at its end, with cps = checkpoints per loop and
    min(16, checkpoints) per pulse or idle. This walk is the only place
    segments become propagators, behind gates and trajectories alike.
    Segments of equal repr (record class and fields, so tqd and root
    loops differ and so do 0.0 and -0.0), and so of equal dim and
    duration, are propagated once across the whole batch. Pulses and
    idles are exact under either policy and report one substep per
    checkpoint; an idle's partials are the walk's own identity. Every
    other record of one dim goes to one stacked _loop_propagators call,
    with its own row of sample times: the pulses (the control flip
    included), and the loops, which report 0 substeps, on the exact path.
    Under a StepPolicy the loops of one dim go to one _segment_partials
    call and report its one Magnus step count. A segment whose last
    sample time, duration * cps, overflows raises ValueError."""
    distinct = {}
    keys = []
    for s in scheds:
        row = [repr(seg) for seg in s.segments]
        distinct.update(zip(row, s.segments))
        keys.append(row)
    done, stacks = {}, {}
    for key, seg in distinct.items():
        loop = isinstance(seg, _Loop)
        cps = checkpoints if loop else min(16, checkpoints)
        if not math.isfinite(seg.duration * cps):
            raise ValueError(
                f"sample times overflow: {cps} samples of a {seg.kind} segment lasting "
                f"{seg.duration:g} reach past the float range"
            )
        ts = seg.duration * np.arange(1, cps + 1) / cps
        if isinstance(seg, IdleParams):
            done[key] = np.eye(seg.dim, dtype=complex)[None].repeat(cps, axis=0), cps
        else:
            oracle = loop and policy is not None
            stacks.setdefault((oracle, seg.dim), []).append((key, seg, ts, 0 if loop else cps))
    for (oracle, _), stacked in stacks.items():
        stack_keys, segs, ts, substeps = zip(*stacked)
        if oracle:
            n = _oracle_steps(policy, checkpoints)
            partials, substeps = _segment_partials(segs, n, checkpoints), [n] * len(segs)
        else:
            partials = _loop_propagators(segs, ts)
        done.update(zip(stack_keys, zip(partials, substeps)))
    return [[done[key] for key in row] for row in keys]


def _final_propagators(scheds, policy: StepPolicy | None = None) -> list:
    """Full propagator of each schedule in `scheds`, with no sampled
    trajectory, from one walk: the segment propagators of one checkpoint
    each, left-multiplied in schedule order. Returns one (u,
    substeps_used) per schedule, the latter per segment as in
    Trajectory."""
    out = []
    for s, walked in zip(scheds, _segment_propagators(scheds, policy, 1)):
        u = np.eye(s.dim, dtype=complex)
        for partials, _ in walked:
            u = partials[-1] @ u
        out.append((u, tuple(n for _, n in walked)))
    return out


def _propagate_schedules(
    scheds, initial_states, policy: StepPolicy | None = None, samples: int = 256
) -> list:
    """propagate_schedule on each schedule in `scheds`, started from the
    matching entry of `initial_states` (None for no state), from one walk.
    Returns one Trajectory per schedule."""
    _check_count("samples", samples, 2)
    walks = _segment_propagators(scheds, policy, samples)
    return [_trajectory(*args) for args in zip(scheds, walks, initial_states)]


def _trajectory(s: SegmentSchedule, walked: list, initial_state) -> Trajectory:
    """The Trajectory of schedule s from its walked segments."""
    times, seg_idx, props = [], [], []
    cum = np.eye(s.dim, dtype=complex)
    t0 = 0.0
    for i, (seg, (partials, _)) in enumerate(zip(s.segments, walked)):
        cps = len(partials)
        times.append(t0 + seg.duration * np.arange(cps + 1) / cps)
        seg_idx.append(np.full(cps + 1, i))
        block = np.empty((cps + 1, s.dim, s.dim), dtype=complex)
        block[0] = cum
        block[1:] = (partials.reshape(-1, s.dim) @ cum).reshape(partials.shape)
        props.append(block)
        cum = block[-1]
        t0 += seg.duration
    props = np.concatenate(props)
    psi = states = None
    if initial_state is not None:
        psi, states = _evolved_states(props, initial_state)
    return Trajectory(
        schedule=s,
        times=np.concatenate(times),
        segment_index=np.concatenate(seg_idx).astype(int),
        propagators=props,
        initial_state=psi,
        states=states,
        substeps_used=tuple(n for _, n in walked),
    )


def propagate_schedule(
    s: SegmentSchedule,
    initial_state: np.ndarray | None = None,
    policy: StepPolicy | None = None,
    samples: int = 256,
) -> Trajectory:
    """Propagate a schedule and sample its cumulative propagators.

    policy None runs the exact propagator; StepPolicy(substeps=N) runs
    the fourth-order Magnus oracle. samples (an integer >= 2) sets the
    number of checkpoints per loop segment, min(16, samples) per pulse or
    idle. The count sets sampling resolution, not accuracy. The segments
    come from the walk the gates use, which propagates each distinct
    segment once.
    """
    return _propagate_schedules([s], [initial_state], policy, samples)[0]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, path, extra_columns: dict | None = None) -> None:
    """Write the samples to CSV: columns t,segment,label, then the real
    and imaginary part of each state amplitude if a state is attached,
    then extra_columns, which maps header names to bool, integer or
    float arrays of one value per sample, written as floats."""
    extra = {name: np.asarray(arr) for name, arr in (extra_columns or {}).items()}
    for name, arr in extra.items():
        if arr.dtype.kind not in "biuf":
            raise ValueError(
                f"extra column {name!r} must hold bool, integer or float values, not {arr.dtype}"
            )
        if arr.shape != traj.times.shape:
            raise ValueError(
                f"extra column {name!r} has shape {arr.shape}, not one value per sample "
                f"{traj.times.shape}"
            )
    headers = ["t", "segment", "label"]
    columns = [
        traj.times,
        traj.segment_index,
        np.asarray(traj.schedule.labels())[traj.segment_index],
    ]
    if traj.states is not None:
        for k in range(traj.schedule.dim):
            headers += [f"re_psi{k}", f"im_psi{k}"]
            columns += [traj.states[:, k].real, traj.states[:, k].imag]
    headers += list(extra)
    columns += [np.asarray(arr, dtype=float) for arr in extra.values()]
    _write_csv(path, headers, columns)
