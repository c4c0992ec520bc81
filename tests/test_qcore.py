"""Unit tests for the small linear-algebra core."""
import numpy as np
import pytest

from tqdecho.acceptance import Check
from tqdecho.qcore import (
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    gate_distance,
    unitarity_defect,
    wrap_angle,
)

from dense import expm_hermitian

SEED = 20260816


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    assert np.allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)
    for s in PAULI:
        assert np.allclose(s @ s, np.eye(2))
        assert np.array_equal(s, s.conj().T)
        assert unitarity_defect(s) <= 1e-9


def test_unit_pauli_combination_squares_to_identity():
    # the Paulis anticommute, so n . sigma squares to |n|^2 = 1
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        m = np.einsum("k,kij->ij", n, PAULI)
        assert np.allclose(m @ m, np.eye(2), atol=1e-14)


def test_hermitian_and_unitary_predicates():
    # the Hermiticity predicate (tolerance 1e-12) guards expm_hermitian
    expm_hermitian(SIGMA_Z + 1j * np.eye(2) * 1e-13)
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_hermitian(SIGMA_Z + 1j * np.eye(2) * 1e-6)
    assert unitarity_defect(np.eye(4)) <= 1e-9
    assert unitarity_defect(2.0 * np.eye(2)) == pytest.approx(3.0)


def test_unitarity_defect_takes_the_worst_of_a_stack():
    stack = np.stack([np.eye(2), SIGMA_X, 1j * SIGMA_Y, (1.0 + 1e-6) * SIGMA_Z])
    assert unitarity_defect(stack) == pytest.approx(2e-6 + 1e-12, rel=1e-6)
    assert unitarity_defect(stack[:3]) == 0.0


# exp(-i H t) conventions ---------------------------------------------------

def test_expm_hermitian_z_rotation():
    u = expm_hermitian(SIGMA_Z, 0.5)
    assert np.allclose(np.diag(u), [np.exp(-0.5j), np.exp(0.5j)])


def test_expm_hermitian_is_unitary_random():
    rng = np.random.default_rng(SEED)
    for dim in (2, 4):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = a + a.conj().T
        u = expm_hermitian(h, 0.37)
        assert unitarity_defect(u) <= 1e-9
        # inverse time gives the adjoint
        assert np.allclose(expm_hermitian(h, -0.37), u.conj().T)


def test_expm_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_hermitian_rejects_odd_dimension():
    with pytest.raises(ValueError):
        expm_hermitian(np.eye(3))


def test_gate_distance_basic():
    assert gate_distance(np.eye(2), np.eye(2)) == 0.0
    assert np.isclose(gate_distance(np.eye(2), SIGMA_X), 1.0)
    # global phase must not register
    assert gate_distance(np.eye(2), np.exp(1j * 0.7) * np.eye(2)) < 1e-15
    assert gate_distance(SIGMA_Y, SIGMA_Y) >= 0.0


def test_gate_distance_of_a_non_finite_gate_fails_every_bound():
    # max(0.0, nan) is 0.0, so a nan gate read as a perfect match and
    # passed its check
    d = gate_distance(np.full((2, 2), np.nan, dtype=complex), np.eye(2))
    assert np.isnan(d) and not Check("gate_distance", d, 1e-6).passed
    with np.errstate(invalid="ignore"):  # inf * 0
        d = gate_distance(np.diag([np.inf, 1.0]), np.eye(2))
    assert not np.isfinite(d) and not Check("gate_distance", d, 1e-6).passed


@pytest.mark.parametrize(
    "x,expected",
    [
        (0.0, 0.0),
        (np.pi, np.pi),
        (-np.pi, np.pi),
        (3 * np.pi / 2, -np.pi / 2),
        (-3 * np.pi / 2, np.pi / 2),
        (2 * np.pi, 0.0),
        (7 * np.pi, np.pi),
    ],
)
def test_wrap_angle_table(x, expected):
    assert np.isclose(wrap_angle(x), expected)


def test_wrap_angle_preserves_direction():
    """Wrapped angle lands in (-pi, pi] and points the same way."""
    rng = np.random.default_rng(SEED)
    for x in rng.uniform(-50.0, 50.0, size=200):
        w = wrap_angle(x)
        assert -np.pi < w <= np.pi
        assert np.isclose(np.cos(w), np.cos(x), atol=1e-12)
        assert np.isclose(np.sin(w), np.sin(x), atol=1e-12)
