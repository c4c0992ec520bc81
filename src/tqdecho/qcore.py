"""Small dense spin-system linear algebra: Pauli matrices, exact Hermitian
matrix exponentials, and gate metrics.

Everything works on plain complex numpy arrays. hbar = 1 throughout; all
energies are angular frequencies.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ID2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "pauli_dot",
    "expm_hermitian",
    "gate_distance",
    "wrap_angle",
    "is_unitary",
]

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

_ALLOWED_DIMS = (2, 4)


def pauli_dot(vec) -> np.ndarray:
    """vec . sigma for a real 3-vector (Hermitian 2x2)."""
    v = np.asarray(vec, dtype=float)
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def is_unitary(m: np.ndarray, tol: float = 1e-9) -> bool:
    d = m.shape[0]
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(d))) <= tol)


def expm_hermitian(h: np.ndarray, t=1.0) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h via eigendecomposition.

    t may be one time or an array of times; an array yields the stack of
    exponentials with t's shape prepended, from a single eigendecomposition.
    The eigendecomposition route keeps the result unitary to machine
    precision for the small dense matrices used here (dimensions 2 and 4).

    Raises ValueError if h is not Hermitian within 1e-12 or has an
    unsupported dimension.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] not in _ALLOWED_DIMS:
        raise ValueError(f"expected a square matrix of dimension 2 or 4, got shape {h.shape}")
    defect = np.max(np.abs(h - h.conj().T))
    if defect > 1e-12:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {defect:.3e}")
    w, v = np.linalg.eigh(h)
    phase = np.exp(-1j * np.multiply.outer(t, w))
    return (v * phase[..., None, :]) @ v.conj().T


def gate_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate distance 1 - |Tr(U^dag V)| / d.

    Zero iff U and V agree up to a global phase; insensitive to the overall
    sign ambiguity of half-turn pulse products.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"incompatible gate shapes {u.shape} vs {v.shape}")
    d = u.shape[0]
    # |trace| can exceed d by rounding for near-identical unitaries
    return max(0.0, float(1.0 - abs(np.trace(u.conj().T @ v)) / d))


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return float(np.pi - (np.pi - x) % (2.0 * np.pi))
