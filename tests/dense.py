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
"""
import numpy as np

from tqdecho.qcore import PAULI, SIGMA_X, SIGMA_Y
from tqdecho.fields import _Loop
from tqdecho.schedule import IdleParams

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
