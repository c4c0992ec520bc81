"""Small spin-system linear algebra: Pauli matrices, the unitarity defect,
and gate metrics. No matrix exponential lives here; the propagators
evaluate theirs in closed form.

Everything works on plain complex numpy arrays. hbar = 1 throughout; all
energies are angular frequencies.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "gate_distance",
    "wrap_angle",
    "unitarity_defect",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I| over one square matrix or a stack of them,
    shape (..., d, d)."""
    u = np.asarray(u)
    gram = np.moveaxis(u, -1, -2).conj() @ u
    return float(np.max(np.abs(gram - np.eye(u.shape[-1]))))


def gate_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate distance 1 - |Tr(U^dag V)| / d.

    Zero iff U and V agree up to a global phase; insensitive to the overall
    sign ambiguity of half-turn pulse products.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"incompatible gate shapes {u.shape} vs {v.shape}")
    dist = float(1.0 - abs(np.trace(u.conj().T @ v)) / u.shape[0])
    # |trace| can exceed d by rounding for near-identical unitaries; a
    # nan or infinite trace stays a nan or +inf distance, which no bound passes
    return max(0.0, dist) if math.isfinite(dist) else abs(dist)


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return float(np.pi - (np.pi - x) % (2.0 * np.pi))
