"""Time evolution of piecewise schedules.

Two propagators share one interface; `policy` selects between them. Both
work on the real 2x2 block form of the generators (Segment.block_fields)
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
scalar c0 of each sector. Pulses are constant half-turn generators: a
single-qubit pulse is one rotation, and a two-qubit pulse is the tensor
product of one rotation per qubit (the identity on an idle qubit),
because terms on different qubits commute. Idles are the identity.
Pulses and idles take this path under either policy. No
eigendecomposition runs.

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
the batch once. It stacks the distinct loops of one dim on one block
axis: the exact path evaluates all of them in one closed-form kernel
call, and the oracle multiplies all their Magnus steps in one product
tree. Each entry is the same whatever is stacked beside it, and the
association order of every product is fixed, so a schedule's
propagators have the same bytes in any batch and on every rerun.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .schedule import (
    _LOOP_KINDS,
    _PULSE_KINDS,
    Segment,
    SegmentSchedule,
    _check_count,
    _write_csv,
)

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

def _step_quaternions(seg: Segment, n: int) -> tuple:
    """Fourth-order Magnus steps of a loop segment, one per 2x2 block of
    its generator, read from Segment.block_fields.

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
    scale = _period_unit(seg.params.omega)
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

def _loop_propagators(segs, ts: np.ndarray) -> np.ndarray:
    """Exact propagators of the loop segments `segs` (all of one dim), each
    from its start to the local times in its own row of ts, shape
    (len(segs), ts.shape[1], dim, dim).

    Per 2x2 block, U(t) = exp(-i*omega*t*n.sigma/2) exp(-i*K*t) with n
    the record's precession `axis` and K = c0 + w . sigma,
    w = v(0) - omega*n/2, read from Segment.block_fields at t = 0: the
    Rodrigues quaternions (cos(omega*t/2), sin(omega*t/2) n) and
    (cos(|w|t), sin(|w|t) w/|w|) multiplied, times the phase
    exp(-i*c0*t). The blocks of every segment are stacked on one axis, as
    arrays of shape (blocks, segments, samples), so one pass of each
    elementwise operation and one packer call serve them all; each entry
    is the same whatever is stacked beside it.
    """
    c0, v, omega, axis, scale = [], [], [], [], []
    for seg in segs:
        c, f = seg.block_fields(0.0)
        c0.append(c[:, 0])
        v.append(f[:, :, 0])
        omega.append(seg.params.omega)
        axis.append(seg.params.axis)
        scale.append(_period_unit(omega[-1]))
    c0, v = np.stack(c0, axis=1), np.stack(v, axis=2)
    omega, axis, scale = np.array(omega), np.array(axis).T, np.array(scale)
    # w and ts in each loop's rescaled units
    w = scale * (v - (0.5 * omega) * axis[:, None])
    r = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])[..., None]
    local = ts / scale[:, None]
    rt = r * local
    # exp(-i*K*t) without its phase, and the frame rotation
    inner = np.empty((4,) + rt.shape)
    np.cos(rt, out=inner[0])
    snc = np.empty_like(rt)
    snc[:] = local
    np.divide(np.sin(rt), r, out=snc, where=r > 0.0)
    np.multiply(snc, w[..., None], out=inner[1:])
    half = (0.5 * omega)[:, None] * ts
    frame = np.empty((4,) + ts.shape)
    np.cos(half, out=frame[0])
    np.multiply(axis[:, :, None], np.sin(half), out=frame[1:])
    q = _hamilton(np.broadcast_to(frame[:, None], inner.shape), inner)
    phase = np.exp(-1j * (c0[..., None] * ts))
    blocks, count, n = rt.shape
    packed = _pack_quaternions(q.reshape(4, blocks, -1), phase.reshape(blocks, -1), segs[0].dim)
    return packed.reshape(count, n, segs[0].dim, segs[0].dim)


def _pulse_propagators(seg: Segment, ts: np.ndarray) -> np.ndarray:
    """Exact propagators of a constant half-turn pulse: the rotation
    exp(-i*omega_pi*t*sigma_k/2) of each turned qubit (the identity on a
    qubit the pulse leaves alone), tensored in qubit order."""
    half = 0.5 * seg.params.omega_pi * ts
    turns = []
    for k in seg.params.axes:
        q = np.zeros((4, 1, ts.size))
        if k is None:
            q[0] = 1.0
        else:
            np.cos(half, out=q[0, 0])
            np.sin(half, out=q[1 + k, 0])
        turns.append(_pack_quaternions(q, None, 2))
    if len(turns) == 1:
        return turns[0]
    driven, control = turns
    return np.einsum("nac,nbd->nabcd", driven, control).reshape(ts.size, 4, 4)


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
        (0 for an exact loop and for a zero-duration segment).

    Construction tabulates each segment's row slice and the samples'
    local times once. `phases` keeps its comoving overlap series per
    label in `_overlaps`, which starts empty on every new trajectory
    (with_initial_state and dataclasses.replace included).
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
        edges = np.searchsorted(idx, np.arange(len(self.schedule.segments) + 1)).tolist()
        object.__setattr__(self, "_rows", tuple(map(slice, edges[:-1], edges[1:])))
        local = self.times - self.schedule.boundaries[:-1][idx]
        local.setflags(write=False)
        object.__setattr__(self, "_local", local)

    @property
    def final_propagator(self) -> np.ndarray:
        return self.propagators[-1]

    @property
    def final_state(self) -> np.ndarray:
        if self.states is None:
            raise ValueError("trajectory has no initial state attached")
        return self.states[-1]

    def with_initial_state(self, psi: np.ndarray) -> "Trajectory":
        psi, states = _evolved_states(self.propagators, psi)
        return replace(self, initial_state=psi, states=states)

    def local_times(self) -> np.ndarray:
        """Sample times relative to the start of their own segment
        (read-only)."""
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
    min(16, checkpoints) per pulse or idle; a zero-duration segment gets
    (None, 0). This walk is the only place segments become propagators,
    behind gates and trajectories alike. Segments equal in kind and
    params (by repr, so 0.0 and -0.0 differ; labels ignored), and so in
    dim and duration, are propagated once across the whole batch. Pulses
    (_pulse_propagators) and idles (the identity) are exact under either
    policy and report one substep per checkpoint. The distinct loops of
    one dim go to one stacked kernel call: _loop_propagators on the exact
    path, reporting 0 substeps, and _segment_partials under a StepPolicy,
    reporting its one Magnus step count."""
    distinct = {}
    keys = []
    for s in scheds:
        row = []
        for seg in s.segments:
            key = None
            if seg.duration != 0.0:
                key = seg.kind, repr(seg.params)
                distinct.setdefault(key, seg)
            row.append(key)
        keys.append(row)
    done = {None: (None, 0)}
    loops = {2: [], 4: []}
    for key, seg in distinct.items():
        cps = checkpoints if seg.kind in _LOOP_KINDS else min(16, checkpoints)
        ts = seg.duration * np.arange(1, cps + 1) / cps
        if seg.kind in _LOOP_KINDS:
            loops[seg.dim].append((key, seg, ts))
        elif seg.kind in _PULSE_KINDS:
            done[key] = _pulse_propagators(seg, ts), cps
        else:
            done[key] = np.eye(seg.dim, dtype=complex)[None].repeat(cps, axis=0), cps
    for stacked in loops.values():
        if not stacked:
            continue
        loop_keys, segs, ts = zip(*stacked)
        if policy is None:
            n = 0
            partials = _loop_propagators(segs, np.array(ts))
        else:
            n = _oracle_steps(policy, checkpoints)
            partials = _segment_partials(segs, n, checkpoints)
        done.update((key, (u, n)) for key, u in zip(loop_keys, partials))
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
            if partials is not None:
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
        cps = 0 if partials is None else len(partials)
        times.append(t0 + seg.duration * np.arange(cps + 1) / max(cps, 1))
        seg_idx.append(np.full(cps + 1, i))
        block = np.empty((cps + 1, s.dim, s.dim), dtype=complex)
        block[0] = cum
        if cps:
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
    idle; a zero-duration segment contributes its start only. The count
    sets sampling resolution, not accuracy. The segments come from the
    walk the gates use, which propagates each distinct segment once.
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
