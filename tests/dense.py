"""Dense references for the tests: generators as full complex matrices
and their exponentials by eigendecomposition.

The package never builds a dense generator. These are the independent
forms the tests check its block-field kernels against: loop generators
are packed from Segment.block_fields as c0 + v . sigma per block, and
pulse generators are written out from the physics of each pulse rather
than read from the table the propagator uses.
"""
import numpy as np

from tqdecho.qcore import ID2, PAULI, SIGMA_X, SIGMA_Y
from tqdecho.schedule import _LOOP_KINDS

# half-turn axes of each pulse, as the operator they turn about
_PULSE_OPERATORS = {
    "single": SIGMA_Y,
    "I": np.kron(SIGMA_Y, ID2),
    "II": np.kron(ID2, SIGMA_Y),
    "control-flip": np.kron(SIGMA_X, ID2) + np.kron(ID2, SIGMA_Y),
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
            c0[j, :, None, None] * ID2 + np.einsum("kn,kab->nab", v[:, j], PAULI)
        )
    return h


def generator_batch(seg, ts, corrected: bool = True) -> np.ndarray:
    """Dense generators of a segment at local times ts, shape
    (len(ts), dim, dim). corrected=False drops a loop's transitionless
    correction; pulses and idles are their own root."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if seg.kind in _LOOP_KINDS:
        return pack_blocks(*seg.block_fields(ts, corrected=corrected))
    h = np.zeros((seg.dim, seg.dim), dtype=complex)
    if seg.kind != "idle":
        pulse = getattr(seg.params, "target", seg.kind)
        h = 0.5 * seg.params.omega_pi * _PULSE_OPERATORS[pulse]
    return np.broadcast_to(h, (ts.size, seg.dim, seg.dim)).copy()


def generator(seg, t: float, corrected: bool = True) -> np.ndarray:
    """Dense generator of a segment at one local time."""
    return generator_batch(seg, [t], corrected)[0]
