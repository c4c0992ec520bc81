"""Field construction: root drive, counterdiabatic correction, conditional
two-qubit fields, and the static-coupling parameter map."""
import numpy as np
import pytest

from tqdecho.fields import (
    ExpParams,
    LoopParams,
    TwoQubitParams,
    conditional_root_field,
    delta_field,
    experimental_params,
    exp_rotating_field,
    field_direction,
    root_field,
    theta_tilde,
    tqd_correction,
    tqd_field,
    tqd_field_magnitude,
    two_qubit_conditional_field,
)

SEED = 20260816
P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)


# parameter containers ------------------------------------------------------

def test_loop_params_validation():
    with pytest.raises(ValueError):
        LoopParams(theta=-0.1, omega=1.0, omega0=1.0)
    with pytest.raises(ValueError):
        LoopParams(theta=3.5, omega=1.0, omega0=1.0)
    with pytest.raises(ValueError):
        LoopParams(theta=1.0, omega=0.0, omega0=1.0)
    with pytest.raises(ValueError):
        LoopParams(theta=1.0, omega=1.0, omega0=-2.0)


def test_loop_params_period_and_reverse():
    p = LoopParams(theta=0.5, omega=-2.0, omega0=1.0)
    assert np.isclose(p.period, np.pi)
    r = p.reversed()
    assert r.omega == 2.0
    assert r.theta == p.theta and r.omega0 == p.omega0


def test_two_qubit_params_defaults():
    p = TwoQubitParams(omega_i=1.0, coupling=2.0, omega=0.5)
    assert np.isclose(p.rabi, np.sqrt(5.0))
    assert np.isclose(p.omega_pi, 25.0)  # 50x the loop rate by default
    assert np.isclose(p.period, 4.0 * np.pi)
    assert p.reversed().omega == -0.5


@pytest.mark.parametrize("omega_pi", [0.0, -1.0, float("nan"), float("inf")])
def test_two_qubit_params_reject_bad_omega_pi(omega_pi):
    with pytest.raises(ValueError, match="omega_pi must be positive and finite"):
        TwoQubitParams(omega_i=1.0, coupling=2.0, omega=0.5, omega_pi=omega_pi)


def test_exp_params_accepts_acute_and_obtuse_tilts():
    ExpParams(j_xz=-0.25, j_zz=1.0, theta_prime=1.8, omega_i_prime=1.0)
    ExpParams(j_xz=0.25, j_zz=1.0, theta_prime=1.3, omega_i_prime=1.0)
    with pytest.raises(ValueError):
        ExpParams(j_xz=0.0, j_zz=1.0, theta_prime=0.0, omega_i_prime=1.0)
    with pytest.raises(ValueError):
        ExpParams(j_xz=0.0, j_zz=1.0, theta_prime=1.0, omega_i_prime=-1.0)


# single-qubit fields --------------------------------------------------------

def test_root_field_at_origin():
    b = root_field(P, 0.0)
    assert np.allclose(b, [np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)])


def test_root_field_magnitude_constant():
    ts = np.linspace(0.0, P.period, 17)
    mags = [np.linalg.norm(root_field(P, t)) for t in ts]
    assert np.allclose(mags, P.omega0)


def test_correction_formula():
    """b0 x (db0/dt) for the precessing cone, in closed form."""
    rng = np.random.default_rng(SEED)
    for t in rng.uniform(0.0, P.period, size=8):
        c = tqd_correction(P, t)
        s, co, w = np.sin(P.theta), np.cos(P.theta), P.omega
        expected = w * s * np.array(
            [-co * np.cos(w * t), -co * np.sin(w * t), s]
        )
        assert np.allclose(c, expected, atol=1e-12)


def test_correction_numeric_matches_analytic():
    """Passing the direction as a bare callable exercises the finite
    difference path; it must land on the closed form."""
    def direction(t):
        return field_direction(P, t)

    rng = np.random.default_rng(SEED)
    for t in rng.uniform(0.0, P.period, size=5):
        numeric = tqd_correction(direction, t)
        analytic = tqd_correction(P, t)
        assert np.allclose(numeric, analytic, atol=1e-6)


def test_correction_rejects_unnormalized_direction():
    with pytest.raises(ValueError):
        tqd_correction(lambda t: np.array([2.0, 0.0, 0.0]), 0.3)


def test_tqd_field_components():
    t = 0.77
    total = tqd_field(P, t)
    assert np.allclose(total, root_field(P, t) + tqd_correction(P, t), atol=1e-14)
    # z component is time independent
    z = P.omega0 * np.cos(P.theta) + P.omega * np.sin(P.theta) ** 2
    assert np.isclose(total[2], z)


def test_tqd_field_magnitude():
    expected = np.sqrt(P.omega0**2 + (P.omega * np.sin(P.theta)) ** 2)
    assert np.isclose(tqd_field_magnitude(P), expected)
    ts = np.linspace(0.0, P.period, 13)
    mags = [np.linalg.norm(tqd_field(P, t)) for t in ts]
    assert np.allclose(mags, expected)
    # reversing the loop leaves the magnitude unchanged (even in omega)
    assert np.isclose(tqd_field_magnitude(P.reversed()), expected)


def test_delta_field_between_orientations():
    """Forward minus reversed total field, directly and via the formula."""
    rng = np.random.default_rng(SEED)
    rev = P.reversed()
    for t in rng.uniform(0.0, P.period, size=6):
        direct = tqd_field(P, t) - tqd_field(rev, t)
        assert np.allclose(delta_field(P, t), direct, atol=1e-12)
        s, co, w = np.sin(P.theta), np.cos(P.theta), P.omega
        formula = 2.0 * s * np.array(
            [-w * co * np.cos(w * t), P.omega0 * np.sin(w * t), w * s]
        )
        assert np.allclose(delta_field(P, t), formula, atol=1e-12)


# conditional two-qubit fields ----------------------------------------------

def test_theta_tilde_square_coupling():
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    assert np.isclose(theta_tilde(p), np.pi / 4)


def test_conditional_root_field_sectors():
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    b0 = conditional_root_field(p, 0, 0.0)
    b1 = conditional_root_field(p, 1, 0.0)
    assert np.allclose(b0, [1.0, 0.0, 1.0])
    assert np.allclose(b1, [1.0, 0.0, -1.0])  # control flips the static part


def test_conditional_corrected_field_magnitudes():
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    rng = np.random.default_rng(SEED)
    for q in (0, 1):
        tt = theta_tilde(p) if q == 0 else np.pi - theta_tilde(p)
        expected = np.sqrt(p.rabi**2 + (p.omega * np.sin(tt)) ** 2)
        for t in rng.uniform(0.0, p.period, size=4):
            b = two_qubit_conditional_field(p, q, t)
            assert np.isclose(np.linalg.norm(b), expected)


def test_experimental_params_frozen_example():
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    e = experimental_params(p)
    assert np.isclose(e.j_xz, -0.25)
    assert np.isclose(e.j_zz, 1.0)
    assert np.isclose(e.omega_i_prime, np.sqrt(1.0625))
    assert np.isclose(e.theta_prime, np.arctan2(1.0, -0.25))
    assert e.theta_prime > np.pi / 2  # forward map tilts past the equator
    r = experimental_params(p.reversed())
    assert np.isclose(r.j_xz, 0.25)
    assert r.theta_prime < np.pi / 2
    assert np.isclose(r.omega_i_prime, e.omega_i_prime)


def test_exp_rotating_field_equals_conditional_field():
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    rng = np.random.default_rng(SEED)
    for params, omega in ((p, p.omega), (p.reversed(), -p.omega)):
        e = experimental_params(params)
        for q in (0, 1):
            for t in rng.uniform(0.0, p.period, size=4):
                lhs = exp_rotating_field(e, omega, q, t)
                rhs = two_qubit_conditional_field(params, q, t)
                assert np.allclose(lhs, rhs, atol=1e-12)
