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
sample joins it to the frame rotation. Each record states these values
once, as its cached rotating-frame row (`_frame_row`, stated from its
own fields at t = 0), so the kernel reads no block fields. The
exp-loop frame term is the scalar c0 of each sector. A pulse is a frame
turn: its block field 0.5*omega_pi*n, turning about its `axis` n at its
own rate omega_pi, gives K = 0, so the inner factor is exactly 1. The
control flip is in block form in its control's y basis
(c0 = +-omega_pi/2, n = x), so its packed propagators are turned back
by its `_control_frame` F, as F U F^dag. Idles are the identity. Pulses and idles take this path
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
closed-form kernel call gathers their frame rows to the samples with
one np.repeat and evaluates the pulses, and on the exact path the
loops, each on its own row of sample times, in one pass of each
elementwise operation, one Hamilton product into one preallocated output
and one packer call; the oracle multiplies all the loops' Magnus steps
in one product tree. A trajectory fills one preallocated propagator
array, each segment's rows by one product written in place, and takes
its sample times, segment index, row slices and local times from one
per-segment table. Each
entry is the same whatever is stacked beside it, and the association
order of every product is fixed, so a schedule's propagators have the
same bytes in any batch and on every rerun; the tests keep the
per-segment forms these passes replaced and match them byte for byte
(tests/dense.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .fields import _Loop, _period_unit
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

# out[k] of the Hamilton product p*q is p[0]*q[k] combined with
# p[m]*q[j] for m = 1, 2, 3 in this order, each term a pair (j, np.add
# or np.subtract)
_HAMILTON_TERMS = (
    ((1, np.subtract), (2, np.subtract), (3, np.subtract)),
    ((0, np.add), (3, np.add), (2, np.subtract)),
    ((3, np.subtract), (0, np.add), (1, np.add)),
    ((2, np.add), (1, np.subtract), (0, np.add)),
)


def _hamilton(p: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Hamilton product p*q of quaternion arrays of shape (4, ...),
    written into `out` of their broadcast shape, which must not overlap
    p or q; returns out.

    The quaternion (a, b, c, d) stands for the SU(2) matrix
    a - i*(b*sx + c*sy + d*sz), so p*q is the matrix product p @ q. Every
    product and sum is one ufunc call into `out` or one scratch row, in
    the order of the written-out formula (a1*a2 - b1*b2 - c1*c2 - d1*d2
    for out[0]).
    """
    term = np.empty(out.shape[1:])
    first, *rest = p
    for k, terms in enumerate(_HAMILTON_TERMS):
        row = np.multiply(first, q[k], out[k])
        for pm, (j, combine) in zip(rest, terms):
            combine(row, np.multiply(pm, q[j], term), row)
    return out


def _pack_quaternions(q: np.ndarray, scale: np.ndarray, dim: int) -> np.ndarray:
    """Per-block quaternions, shape (4, blocks, n), times the per-block
    phases `scale`, shape (blocks, n), as (n, dim, dim) matrices with
    block j on rows and columns j and j + blocks.

    The entries are a - i*d, -c - i*b, c - i*b and a + i*d, each formed
    as that complex expression (so -0.0 and 0.0 land as they do in it)
    and written straight into its place."""
    a, b, c, d = q
    blocks = q.shape[1]
    ib, id_, minus_c = 1j * b, 1j * d, -c
    out = np.zeros((q.shape[2], dim, dim), dtype=complex)
    for j in range(blocks):
        u = out[:, j::blocks, j::blocks]
        np.subtract(a[j], id_[j], out=u[:, 0, 0])
        np.subtract(minus_c[j], ib[j], out=u[:, 0, 1])
        np.subtract(c[j], ib[j], out=u[:, 1, 0])
        np.add(a[j], id_[j], out=u[:, 1, 1])
        u *= scale[j, :, None, None]
    return out


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
        later = q[..., 1 : 2 * m : 2]
        paired = _hamilton(later, q[..., 0 : 2 * m : 2], np.empty(later.shape))
        q = np.concatenate([paired, q[..., -1:]], axis=-1) if q.shape[-1] % 2 else paired
    q = q[..., 0]
    shift = 1
    while shift < checkpoints:
        # the slices overlap, so the product goes to fresh storage first
        later = q[..., shift:]
        later[:] = _hamilton(later, q[..., :-shift], np.empty(later.shape))
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
    w = v(0) - omega*n/2: the Rodrigues quaternions
    (cos(omega*t/2), sin(omega*t/2) n) and (cos(|w|t), sin(|w|t) w/|w|)
    multiplied, times the phase exp(-i*c0*t); a pulse has w = 0, so its
    inner factor is exactly 1. Each record states these values once, in
    its rescaled units and from its own fields at t = 0 (the values of
    its block_fields there), as its cached `_frame_row`
    (fields._rotating_frame), so the kernel reads no block fields. The
    rows form one small table that one np.repeat gathers to the samples
    of all records, so one pass of each elementwise operation, one
    Hamilton product into one output and one packer call serve them all;
    each entry is the same whatever is stacked beside it. A record with
    a `_control_frame` F has its packed rows turned to F U F^dag.
    """
    blocks = segs[0].dim // 2
    counts = [len(row) for row in ts]
    table = np.array([seg._frame_row for seg in segs]).T
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
    # sin(|w|t)/|w|, and where |w| = 0 (a pulse) sin(0*t), a zero of the
    # sign of t, so that w times it is the same signed zero as w*t
    snc = np.sin(rt)
    np.divide(snc, r, out=snc, where=r > 0.0)
    np.cos(rt, out=r)
    np.multiply(inner[1:], snc, out=inner[1:])
    half = np.multiply(frame[0], ts, out=frame[0])
    sin_half = np.sin(half)
    np.cos(half, out=half)
    np.multiply(frame[1:], sin_half, out=frame[1:])
    q = _hamilton(np.broadcast_to(frame[:, None], inner.shape), inner, np.empty(inner.shape))
    phase = np.exp(-1j * np.multiply(c0, ts, out=c0))
    packed = _pack_quaternions(q, phase, segs[0].dim)
    edges = [0, *accumulate(counts)]
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

    The builder hands each trajectory its per-segment table: the row
    slices `_rows` and the read-only local times `_local`, each segment
    on its own grid duration*k/cps (cps + 1 rows, k = 0..cps), so a long
    segment before a loop costs the loop no time resolution.
    dataclasses.replace, and so with_initial_state, carries the table
    over, while the comoving overlap series that `phases` keeps per
    label in `_overlaps` starts empty on every new trajectory.
    """

    schedule: SegmentSchedule
    times: np.ndarray
    segment_index: np.ndarray
    propagators: np.ndarray
    initial_state: np.ndarray | None = None
    states: np.ndarray | None = None
    substeps_used: tuple = ()
    _rows: tuple = field(kw_only=True, repr=False, compare=False)
    _local: np.ndarray = field(kw_only=True, repr=False, compare=False)
    _overlaps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _local_grid(durations: list, counts: list) -> np.ndarray:
    """The local sample times duration*k/cps, k = 0..cps, of segments of
    the given durations and row counts cps + 1, gathered from one table
    by one np.repeat."""
    firsts = [0, *accumulate(counts)][:-1]
    table = np.repeat(np.array([durations, firsts, counts], dtype=float), counts, axis=1)
    return table[0] * (np.arange(table.shape[1]) - table[1]) / (table[2] - 1.0)


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
    """The Trajectory of schedule s from its walked segments.

    One table of the segments' row counts and durations gives every
    sample time and segment index and the trajectory's own table of row
    slices and local times (_local_grid). The propagators fill one
    preallocated array: each segment's rows are its start, then its
    partials times that start, one (cps*dim, dim) @ (dim, dim) product
    written in place.
    """
    dim = s.dim
    counts = [len(partials) + 1 for partials, _ in walked]
    durations = [seg.duration for seg in s.segments]
    edges = [0, *accumulate(counts)]
    starts = [0.0, *accumulate(durations[:-1])]
    local = _local_grid(durations, counts)
    local.setflags(write=False)
    times = np.repeat(starts, counts) + local
    props = np.empty((edges[-1], dim, dim), dtype=complex)
    cum = np.eye(dim, dtype=complex)
    for (partials, _), a, b in zip(walked, edges, edges[1:]):
        props[a] = cum
        np.matmul(partials.reshape(-1, dim), cum, out=props[a + 1 : b].reshape(-1, dim))
        cum = props[b - 1]
    psi = states = None
    if initial_state is not None:
        psi, states = _evolved_states(props, initial_state)
    return Trajectory(
        schedule=s,
        times=times,
        segment_index=np.repeat(np.arange(len(counts)), counts),
        propagators=props,
        initial_state=psi,
        states=states,
        substeps_used=tuple(n for _, n in walked),
        _rows=tuple(map(slice, edges[:-1], edges[1:])),
        _local=local,
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
