"""Dense references for the tests: generators as full complex matrices
and their exponentials by eigendecomposition.

The package never builds a dense generator. These are the independent
forms the tests check its block-field kernels against: loop generators
are packed from the loop records' block_fields as c0 + v . sigma per
block, and pulse generators are written out from the physics of each
pulse rather than read from the records. In the package every pulse is
a block-form record whose frame turns at its own rate, with K = 0, the
control flip in its control's y basis (its _control_frame turns it
back); here each is a plain operator.

The module also keeps the per-segment forms of the layers the package
now runs in one pass over all segments: the trapezoid dynamical phase,
the comoving reference series, the trajectory, the Hamilton product and
the quaternion packer; the rotating-frame row as read from a record's
block_fields at t = 0, which the records state from their own fields;
and the block fields as each record class once filled them, which the
records now fill in one method from the blocks they state. The
package's forms must match them byte for byte.
"""
import math

import numpy as np

from tqdecho.qcore import PAULI, SIGMA_X, SIGMA_Y
from tqdecho.fields import IdleParams, _HalfTurn, _Loop, _period_unit
from tqdecho.phases import LABELS4, _ALIGNMENT_FLOOR, _eigvecs
from tqdecho.propagate import Trajectory, _evolved_states

# half-turn axes of each pulse, as the operator they turn about
_PULSE_OPERATORS = {
    "single": SIGMA_Y,
    "I": np.kron(SIGMA_Y, np.eye(2)),
    "control-flip": np.kron(SIGMA_X, np.eye(2)) + np.kron(np.eye(2), SIGMA_Y),
}


def expm_hermitian(h: np.ndarray, t=1.0) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h of dimension 2 or 4, by
    eigendecomposition.

    t may be one time or an array of times; an array yields the stack of
    exponentials with t's shape prepended. Raises ValueError if h is not
    Hermitian within 1e-12 or has another dimension.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] not in (2, 4):
        raise ValueError(f"expected a square matrix of dimension 2 or 4, got shape {h.shape}")
    defect = np.max(np.abs(h - h.conj().T))
    if defect > 1e-12:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {defect:.3e}")
    w, v = np.linalg.eigh(h)
    phase = np.exp(-1j * np.multiply.outer(t, w))
    return (v * phase[..., None, :]) @ v.conj().T


def pack_blocks(c0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Block fields (c0, v) of shapes (blocks, n) and (3, blocks, n) ->
    (n, dim, dim) Hamiltonians, block j being c0[j] + v[:, j] . sigma on
    rows and columns j and j + blocks."""
    blocks, n = c0.shape
    h = np.zeros((n, 2 * blocks, 2 * blocks), dtype=complex)
    for j in range(blocks):
        h[:, j::blocks, j::blocks] = (
            c0[j, :, None, None] * np.eye(2) + np.einsum("kn,kab->nab", v[:, j], PAULI)
        )
    return h


def generator_batch(seg, ts, corrected: bool = True) -> np.ndarray:
    """Dense generators of a segment at local times ts, shape
    (len(ts), dim, dim). corrected=False drops a loop's transitionless
    correction; pulses and idles are their own root."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if isinstance(seg, _Loop):
        return pack_blocks(*seg.block_fields(ts, corrected=corrected))
    h = np.zeros((seg.dim, seg.dim), dtype=complex)
    if not isinstance(seg, IdleParams):
        pulse = getattr(seg, "target", seg.kind)
        h = 0.5 * seg.omega_pi * _PULSE_OPERATORS[pulse]
    return np.broadcast_to(h, (ts.size, seg.dim, seg.dim)).copy()


def generator(seg, t: float, corrected: bool = True) -> np.ndarray:
    """Dense generator of a segment at one local time."""
    return generator_batch(seg, [t], corrected)[0]


def field_rows(seg, ts, corrected: bool = True) -> np.ndarray:
    """Field rows (Bx, By, Bz) of a single-qubit record at local times
    ts: twice the vector v of its one block_fields block."""
    return 2.0 * seg.block_fields(ts, corrected)[1][:, 0].T


# ---------------------------------------------------------------------------
# per-class block fields
# ---------------------------------------------------------------------------

def _loop_block_fields(seg, ts, corrected: bool) -> tuple:
    """A loop's block fields, block by block: c0[j] its frame term and
    v[:, j] half its field (transverse cos wt, transverse sin wt, bz),
    then turned by its orientation."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    fields = seg.corrected() if corrected else seg.root()
    wt = seg.omega * ts
    cos, sin = np.cos(wt), np.sin(wt)
    c0 = np.empty((len(fields), ts.size))
    v = np.empty((3,) + c0.shape)
    for j, ((transverse, bz), c) in enumerate(zip(fields, seg.frame)):
        np.multiply(0.5 * transverse, cos, out=v[0, j])
        np.multiply(0.5 * transverse, sin, out=v[1, j])
        v[2, j] = 0.5 * bz
        c0[j] = c
    if seg.orientation is not None:
        v = (seg.orientation.matrix @ v.reshape(3, -1)).reshape(v.shape)
    return c0, v


def _steady_block_fields(ts, c0: tuple, v: tuple) -> tuple:
    """The block fields of a constant generator: c0[j] + v . sigma in
    block j, one block per entry of c0."""
    c = np.empty((len(c0), np.atleast_1d(ts).size))
    field = np.empty((3,) + c.shape)
    c.T[:] = c0
    field.T[:] = v
    return c, field


def block_fields(seg, ts, corrected: bool = True) -> tuple:
    """The block fields of any record as its class once filled them: a
    loop's per block, and the one constant block of a pulse (its field
    0.5*omega_pi along y, or for the flip along x with c0 = +-omega_pi/2)
    or an idle (zero), each written out here."""
    if isinstance(seg, _Loop):
        return _loop_block_fields(seg, ts, corrected)
    blocks = seg.dim // 2
    if isinstance(seg, IdleParams):
        return _steady_block_fields(ts, (-0.0,) * blocks, (0.0, 0.0, 0.0))
    half = 0.5 * seg.omega_pi
    if seg.kind == "control-flip":
        return _steady_block_fields(ts, (half, -half), (half, 0.0, 0.0))
    return _steady_block_fields(ts, (-0.0,) * blocks, (0.0, half, 0.0))


# ---------------------------------------------------------------------------
# per-segment forms of the gathered layers
# ---------------------------------------------------------------------------

def block_expectation(seg, ts, psi, corrected: bool) -> np.ndarray:
    """<psi|H|psi> of one segment's samples from its block fields, the
    states first mapped by F^dag if the record has a `_control_frame` F."""
    c0, (vx, vy, vz) = seg.block_fields(ts, corrected=corrected)
    if seg._control_frame is not None:
        psi = psi @ seg._control_frame.conj()
    blocks = c0.shape[0]
    a, b = psi[:, :blocks].T, psi[:, blocks:].T
    pa, pb = a.real**2 + a.imag**2, b.real**2 + b.imag**2
    ab = a.conj() * b
    terms = c0 * (pa + pb) + 2.0 * (vx * ab.real + vy * ab.imag) + vz * (pa - pb)
    return terms.sum(axis=0)


def dynamical_phase(traj, root="root") -> float:
    """The trapezoid dynamical phase, one segment at a time: each
    segment's fields read and its expectation evaluated on its own."""
    local = traj.local_times()
    total = 0.0
    for i, seg in enumerate(traj.schedule.segments):
        rows = traj.segment_rows(i)
        ts = local[rows]
        expect = block_expectation(seg, ts, traj.states[rows], corrected=root == "full")
        total += np.sum(0.5 * (expect[1:] + expect[:-1]) * np.diff(ts))
    return float(-total)


def reference_series(traj, label) -> tuple:
    """The comoving reference series and the first misaligned loop entry,
    one segment at a time, each pulse's rows a fresh product."""
    sched = traj.schedule
    dim = sched.dim
    candidates = (0, 1) if dim == 2 else LABELS4
    refs = np.empty((len(traj.times), dim), dtype=complex)
    misaligned = None
    ref_in = None
    local = traj.local_times()
    for i, seg in enumerate(sched.segments):
        rows = traj.segment_rows(i)
        if isinstance(seg, _Loop):
            ts = local[rows]
            if ref_in is None:
                detected = label
                eta = 0.0
            else:
                entry = _eigvecs(seg, candidates, ts[:1])[:, 0]
                overlaps = [np.vdot(v, ref_in) for v in entry]
                best = int(np.argmax(np.abs(overlaps)))
                detected = candidates[best]
                mag = abs(overlaps[best])
                if misaligned is None and mag < _ALIGNMENT_FLOOR:
                    misaligned = (i, seg.label, mag)
                eta = float(np.angle(overlaps[best]))
            refs[rows] = _eigvecs(seg, (detected,), ts)[0] * np.exp(1j * eta)
        elif isinstance(seg, _HalfTurn):
            u = traj.propagators[rows]
            refs[rows] = u @ (u[0].conj().T @ ref_in)
        else:  # idle
            refs[rows] = ref_in
        ref_in = refs[rows.stop - 1]
    return refs, misaligned


def rotating_frame(record) -> np.ndarray:
    """The rotating-frame row of a block-form record read from its
    block_fields at t = 0, the derivation fields._rotating_frame must
    match byte for byte: scale, omega/2, axis, then per block c0, |w|
    and the x, y and z of w = s*(v(0) - omega*n/2)."""
    c0, v = record.block_fields(0.0)
    rate, axis = record._frame_rate, record.axis
    scale, half = _period_unit(rate), 0.5 * rate
    x, y, z = ([scale * (vj - half * n) for vj in comp] for comp, n in zip(v[..., 0].tolist(), axis))
    r = [math.sqrt(wx * wx + wy * wy + wz * wz) for wx, wy, wz in zip(x, y, z)]
    return np.array([scale, half, *axis, *c0[:, 0].tolist(), *r, *x, *y, *z])


def trajectory(s, walked, initial_state) -> Trajectory:
    """The Trajectory of schedule s from its walked segments, built one
    segment at a time: its local times, times, indices and propagator
    block each a fresh array, concatenated at the end, and its row slices
    counted off as it goes."""
    local, times, seg_idx, props, rows = [], [], [], [], []
    cum = np.eye(s.dim, dtype=complex)
    t0, row0 = 0.0, 0
    for i, (seg, (partials, _)) in enumerate(zip(s.segments, walked)):
        cps = len(partials)
        grid = seg.duration * np.arange(cps + 1) / cps
        local.append(grid)
        times.append(t0 + grid)
        seg_idx.append(np.full(cps + 1, i))
        rows.append(slice(row0, row0 + cps + 1))
        block = np.empty((cps + 1, s.dim, s.dim), dtype=complex)
        block[0] = cum
        block[1:] = (partials.reshape(-1, s.dim) @ cum).reshape(partials.shape)
        props.append(block)
        cum = block[-1]
        t0 += seg.duration
        row0 += cps + 1
    props = np.concatenate(props)
    local = np.concatenate(local)
    local.setflags(write=False)
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
        _rows=tuple(rows),
        _local=local,
    )


def hamilton(p, q) -> np.ndarray:
    """The Hamilton product p*q of quaternion arrays, written out."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[0] = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
    out[1] = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
    out[2] = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
    out[3] = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    return out


def pack_quaternions(q, scale, dim) -> np.ndarray:
    """Per-block quaternions times per-block phases as (n, dim, dim)
    matrices, each block's entries fresh complex arrays."""
    a, b, c, d = q
    blocks = q.shape[1]
    out = np.zeros((q.shape[2], dim, dim), dtype=complex)
    for j in range(blocks):
        u = out[:, j::blocks, j::blocks]
        u[:, 0, 0] = a[j] - 1j * d[j]
        u[:, 0, 1] = -c[j] - 1j * b[j]
        u[:, 1, 0] = c[j] - 1j * b[j]
        u[:, 1, 1] = a[j] + 1j * d[j]
        u *= scale[j, :, None, None]
    return out
