"""Field construction: root drive, counterdiabatic correction, conditional
two-qubit fields, and the static-coupling parameter map.

The fields are read from the loop records' block_fields (as rows by
dense.field_rows), the one definition the propagator simulates; the
closed forms they must match live here as references."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdecho.fields import (
    ExpLoopParams,
    ExpParams,
    LoopParams,
    TwoQubitParams,
    experimental_params,
    theta_tilde,
    tqd_field_magnitude,
)
from tqdecho.gates import verify_exp_equivalence
from tqdecho.phases import LABELS4, evolve_eigenstate, tracking_fidelity
from tqdecho.schedule import FlipParams, PulseParams, SegmentSchedule, build_two_qubit_sequence

from dense import field_rows

SEED = 20260816
P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)


def _correction(seg, ts):
    """Corrected minus root field of every block, shape (3, blocks, n)."""
    return 2.0 * (seg.block_fields(ts)[1] - seg.block_fields(ts, corrected=False)[1])


def _fd_correction(seg, ts, h=1e-3):
    """b x db/dt of every block's root field direction b, by central
    differences with step halving until two steps agree to 1e-9 |omega|.
    Independent of the Berry rule the package applies."""
    def direction(t):
        v = seg.block_fields(t, corrected=False)[1]
        return v / np.linalg.norm(v, axis=0)

    def estimate(step):
        return np.cross(b, (direction(ts + step) - direction(ts - step)) / (2.0 * step), axis=0)

    b = direction(ts)
    tol = 1e-9 * abs(seg.omega)
    prev = estimate(h)
    for _ in range(24):
        h *= 0.5
        cur = estimate(h)
        if np.max(np.abs(cur - prev)) <= tol:
            return cur
        prev = cur
    raise AssertionError("finite-difference correction did not stabilize")


def _cone_correction(p: LoopParams, ts):
    """Closed form of b x db/dt on the cone, rows (n, 3)."""
    s, c, wt = np.sin(p.theta), np.cos(p.theta), p.omega * ts
    return p.omega * s * np.column_stack([-c * np.cos(wt), -c * np.sin(wt), np.full_like(ts, s)])


def _rotated(angle, fields):
    """Rotate field rows (n, 3) by `angle` about y."""
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = fields.T
    return np.column_stack([c * x + s * z, y, -s * x + c * z])


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
    segments = build_two_qubit_sequence(p).segments
    rates = [s.omega_pi for s in segments if s.kind in ("pi-pulse", "control-flip")]
    assert rates == [25.0] * 4  # 50x the loop rate by default
    assert np.isclose(p.period, 4.0 * np.pi)
    assert p.reversed().omega == -0.5


@pytest.mark.parametrize("omega_pi", [0.0, -1.0, float("nan"), float("inf")])
def test_two_qubit_params_reject_bad_omega_pi(omega_pi):
    p = TwoQubitParams(omega_i=1.0, coupling=2.0, omega=0.5)
    with pytest.raises(ValueError, match="omega_pi must be positive and finite"):
        build_two_qubit_sequence(p, omega_pi=omega_pi)


@pytest.mark.parametrize("value", [1e300, -1e300, 2e150])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: LoopParams(theta=1.0, omega=x, omega0=1.0),
        lambda x: LoopParams(theta=1.0, omega=1.0, omega0=abs(x)),
        lambda x: TwoQubitParams(omega_i=abs(x), coupling=1.0, omega=0.5),
        lambda x: TwoQubitParams(omega_i=1.0, coupling=abs(x), omega=0.5),
        lambda x: TwoQubitParams(omega_i=1.0, coupling=1.0, omega=x),
    ],
    ids=["omega", "omega0", "omega_i", "coupling", "two-qubit-omega"],
)
def test_params_reject_rates_whose_squares_overflow(build, value):
    # at 1e300 the exact kernel's squared fields overflowed to nan
    # propagators with numpy RuntimeWarnings
    with pytest.raises(ValueError, match="out of range"):
        build(value)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: LoopParams("1.0", 1.0), "theta"),
        (lambda: LoopParams(True, 1.0), "theta"),
        (lambda: LoopParams(1.0, "1.0"), "omega"),
        (lambda: LoopParams(1.0, 1.0, None), "omega0"),
        (lambda: LoopParams(1.0, 1.0, False), "omega0"),
        (lambda: TwoQubitParams("1", 1, 1), "omega_i"),
        (lambda: TwoQubitParams(1, [1], 1), "coupling"),
        (lambda: TwoQubitParams(1, 1, True), "omega"),
        (lambda: build_two_qubit_sequence(TwoQubitParams(1, 1, 1), omega_pi="50"), "omega_pi"),
        (lambda: PulseParams("3", "single"), "omega_pi"),
        (lambda: PulseParams(True, "single"), "omega_pi"),
        (lambda: FlipParams(None), "omega_pi"),
    ],
)
def test_constructors_reject_non_numbers_with_value_error(build, name):
    # strings and None raised TypeError from a comparison, and bools
    # constructed as 0 or 1
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


@pytest.mark.parametrize("omega_pi", [0, -1.0, float("inf")])
def test_pulse_constructors_reject_bad_rates_through_the_segment_check(omega_pi):
    for build in (lambda rate: PulseParams(rate, "single"), FlipParams):
        with pytest.raises(ValueError, match="omega_pi must be positive and finite"):
            build(omega_pi)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LoopParams(1.0, 1.0, 1e150),
        lambda: LoopParams(1.0, 1e-200, 1e150),
        lambda: LoopParams(1.0, -1e-245, 1e-218),
        lambda: TwoQubitParams(1e-34, 1e-90, 1e-244),
        lambda: TwoQubitParams(1.0, 1e12, 1.0),
    ],
)
def test_params_reject_rates_too_far_apart(build):
    # each overflowed the exact or the Magnus kernel (numpy RuntimeWarnings)
    with pytest.raises(ValueError, match="too far apart"):
        build()


def test_turn_bound_is_the_fastest_rate_over_one_period():
    from tqdecho.fields import _MAX_TURN

    ratio = _MAX_TURN / (2.0 * np.pi)
    LoopParams(1.0, 1.0, 0.99 * ratio)
    LoopParams(1.0, -1e-200, 0.99 * ratio * 1e-200)
    TwoQubitParams(0.99 * ratio, 1.0, 1.0)
    with pytest.raises(ValueError, match="too far apart"):
        LoopParams(1.0, 1.0, 1.01 * ratio)
    with pytest.raises(ValueError, match="too far apart"):
        TwoQubitParams(1.0, 1.01 * ratio, -1.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_largest_accepted_rates_give_finite_unitary_propagators(sign):
    from tqdecho.gates import synthesize_two_qubit_gate
    from tqdecho.propagate import propagate_schedule
    from tqdecho.qcore import unitarity_defect
    from tqdecho.schedule import build_echo_sequence

    # every rate at the bound at once; warnings are errors in this suite
    p = LoopParams(theta=np.pi / 3, omega=sign * 1e150, omega0=1e150)
    traj = propagate_schedule(build_echo_sequence(p), samples=16)
    assert unitarity_defect(traj.propagators) <= 1e-12
    rep = synthesize_two_qubit_gate(TwoQubitParams(1e150, 1e150, sign * 1e150))
    assert unitarity_defect(rep.realized) <= 1e-12


def test_exp_params_accepts_acute_and_obtuse_tilts():
    ExpParams(j_xz=-0.25, j_zz=1.0, theta_prime=1.8, omega_i_prime=1.0)
    ExpParams(j_xz=0.25, j_zz=1.0, theta_prime=1.3, omega_i_prime=1.0)
    # the ends are where the map's atan2 rounds a drive far below the
    # static z; past them the angle is not the map's
    for end in (0.0, np.pi):
        ExpParams(j_xz=0.0, j_zz=1.0, theta_prime=end, omega_i_prime=1.0)
    for outside in (-1e-300, np.nextafter(np.pi, 4.0)):
        with pytest.raises(ValueError, match=r"^theta_prime must lie in \[0, pi\]"):
            ExpParams(j_xz=0.0, j_zz=1.0, theta_prime=outside, omega_i_prime=1.0)
    with pytest.raises(ValueError):
        ExpParams(j_xz=0.0, j_zz=1.0, theta_prime=1.0, omega_i_prime=-1.0)


@pytest.mark.parametrize(
    "args, name",
    [
        ((0, 0, 1, float("nan")), "omega_i_prime"),
        ((0, 0, 1, float("inf")), "omega_i_prime"),
        (("a", 0, 1, 1), "j_xz"),
        ((True, 1, 1.0, 1), "j_xz"),
    ],
    ids=["nan", "inf", "string", "bool"],
)
def test_exp_params_rejects_what_is_not_a_finite_real(args, name):
    # the range checks alone let these through: nan and inf compare
    # false, and a bool or string never reached a comparison
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
        ExpParams(*args)
    assert type(ExpParams(0, 0, 1, 1).j_xz) is float


# single-qubit fields --------------------------------------------------------

def test_root_field_at_origin():
    b = field_rows(P, 0.0, corrected=False)[0]
    assert np.allclose(b, [np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)])


def test_root_field_magnitude_constant():
    ts = np.linspace(0.0, P.period, 17)
    mags = np.linalg.norm(field_rows(P, ts, corrected=False), axis=1)
    assert np.allclose(mags, P.omega0)


def test_correction_formula():
    """Corrected minus root field is b0 x (db0/dt) for the precessing cone."""
    rng = np.random.default_rng(SEED)
    ts = rng.uniform(0.0, P.period, size=8)
    got = _correction(P, ts)[:, 0].T
    assert np.allclose(got, _cone_correction(P, ts), atol=1e-12)


def test_correction_numeric_matches_analytic():
    """The finite-difference oracle of the Berry-rule property below lands
    on the closed form."""
    rng = np.random.default_rng(SEED)
    ts = rng.uniform(0.0, P.period, size=5)
    numeric = _fd_correction(P, ts)[:, 0].T
    assert np.allclose(numeric, _cone_correction(P, ts), atol=1e-8)


def test_tqd_field_components():
    t = np.array([0.77])
    total = field_rows(P, t)
    root = field_rows(P, t, corrected=False)
    assert np.allclose(total, root + _cone_correction(P, t), atol=1e-14)
    # z component is time independent
    z = P.omega0 * np.cos(P.theta) + P.omega * np.sin(P.theta) ** 2
    assert np.isclose(total[0, 2], z)


def test_tqd_field_magnitude():
    expected = np.sqrt(P.omega0**2 + (P.omega * np.sin(P.theta)) ** 2)
    assert np.isclose(tqd_field_magnitude(P), expected)
    ts = np.linspace(0.0, P.period, 13)
    mags = np.linalg.norm(field_rows(P, ts), axis=1)
    assert np.allclose(mags, expected)
    # reversing the loop leaves the magnitude unchanged (even in omega)
    assert np.isclose(tqd_field_magnitude(P.reversed()), expected)


def test_delta_field_between_orientations():
    """Forward minus reversed corrected field at the same local time is
    2 sin(theta) (-omega cos(theta) cos(wt), omega0 sin(wt), omega sin(theta)):
    replaying the forward waveform does not produce the reversed loop."""
    rng = np.random.default_rng(SEED)
    ts = rng.uniform(0.0, P.period, size=6)
    direct = field_rows(P, ts) - field_rows(P.reversed(), ts)
    s, co, w = np.sin(P.theta), np.cos(P.theta), P.omega
    formula = 2.0 * s * np.column_stack(
        [-w * co * np.cos(w * ts), P.omega0 * np.sin(w * ts), np.full_like(ts, w * s)]
    )
    assert np.allclose(direct, formula, atol=1e-12)


# conditional two-qubit fields ----------------------------------------------

def test_theta_tilde_square_coupling():
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    assert np.isclose(theta_tilde(p), np.pi / 4)


@pytest.mark.parametrize("ratio", [1e-12, 1e-8, 1e-5, 1.0, 1e5], ids=repr)
@pytest.mark.parametrize("omega", [0.5, -0.5], ids=repr)
def test_theta_tilde_keeps_its_digits_at_any_drive_to_coupling_ratio(ratio, omega):
    # arccos(J / rabi) read 0.0 at omega_i/J = 1e-8 (true value 1e-8), and
    # the exp map built on it was off by 5e-9 in field units
    p = TwoQubitParams(omega_i=ratio, coupling=1.0, omega=omega)
    assert theta_tilde(p) == math.atan2(ratio, 1.0)
    rep = verify_exp_equivalence(p, field_draws=8)
    scale = max(p.rabi, abs(p.omega))
    assert rep.max_field_deviation <= 4.0 * np.finfo(float).eps * scale
    assert rep.gate_deviation <= 1e-14


@pytest.mark.parametrize("omega", [1.0, -1.0], ids=repr)
def test_exp_map_takes_a_drive_below_rounding(omega):
    # at omega_i = 1e-17 the forward map's theta_prime = atan2(omega_i,
    # -omega*cos^2) rounds to pi, which the map's own record rejected, so
    # a record TwoQubitParams accepts had no static-coupling realization
    p = TwoQubitParams(omega_i=1e-17, coupling=1.0, omega=omega)
    forward = p if omega > 0 else p.reversed()
    assert experimental_params(forward).theta_prime == np.pi
    assert experimental_params(forward.reversed()).theta_prime == 1e-17
    rep = verify_exp_equivalence(p, field_draws=8)
    assert rep.max_field_deviation <= 4.0 * np.finfo(float).eps
    assert rep.gate_deviation <= 1e-14


def test_conditional_root_field_sectors():
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    v = p.block_fields(0.0, corrected=False)[1]
    assert np.allclose(2.0 * v[:, 0, 0], [1.0, 0.0, 1.0])
    assert np.allclose(2.0 * v[:, 1, 0], [1.0, 0.0, -1.0])  # control flips the static part


def test_conditional_corrected_field_magnitudes():
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    rng = np.random.default_rng(SEED)
    ts = rng.uniform(0.0, p.period, size=4)
    v = p.block_fields(ts)[1]
    for q in (0, 1):
        tt = theta_tilde(p) if q == 0 else np.pi - theta_tilde(p)
        expected = np.sqrt(p.rabi**2 + (p.omega * np.sin(tt)) ** 2)
        assert np.allclose(2.0 * np.linalg.norm(v[:, q], axis=0), expected)


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
    for reverse in (False, True):
        ts = rng.uniform(0.0, p.period, size=4)
        q = p.reversed() if reverse else p
        lhs = ExpLoopParams(q.omega_i, q.coupling, q.omega).block_fields(ts)[1]
        rhs = q.block_fields(ts)[1]
        assert np.allclose(lhs, rhs, atol=1e-12)


# the Berry rule across the parameter space ----------------------------------

@st.composite
def _drawn_drives(draw):
    """A corrected single-qubit loop (cone angle, signed rate, omega0,
    rotation) and a two-qubit loop pair (omega_i / J in [0.01, 100], rabi
    rate omega0, the same signed rate), each in a drawn orientation, plus
    sample times and an eigenstate label k of LABELS4 (k % 2 on one qubit)."""
    omega0 = 10.0 ** draw(st.floats(-1.0, 1.0))
    rate = draw(st.sampled_from([-1.0, 1.0])) * omega0 * 10.0 ** draw(st.floats(-1.0, 1.0))
    reverse = draw(st.booleans())
    p = LoopParams(theta=draw(st.floats(0.0, np.pi)), omega=rate, omega0=omega0)
    loop = replace(p.reversed() if reverse else p, rotation=draw(st.floats(-np.pi, np.pi)))
    ratio = 10.0 ** draw(st.floats(-2.0, 2.0))
    p2 = TwoQubitParams(
        omega0 * ratio / np.hypot(ratio, 1.0), omega0 / np.hypot(ratio, 1.0), rate
    )
    ts = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))) * p.period
    k = draw(st.integers(0, 3))
    cond = p2.reversed() if reverse else p2
    exp = ExpLoopParams(cond.omega_i, cond.coupling, cond.omega)
    return loop, cond, exp, ts, k


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_drawn_drives())
def test_corrections_follow_berry_formula(drives):
    loop, cond, exp, ts, k = drives
    omega = loop.omega

    # (a) corrected minus root fields are b x db/dt of the root direction
    for seg in (loop, cond):
        assert np.max(np.abs(_correction(seg, ts) - _fd_correction(seg, ts))) <= 1e-8 * abs(omega)

    # (b) the hand-coded closed forms of the corrected fields
    theta, omega0 = loop.theta, loop.omega0
    s, c, wt = np.sin(theta), np.cos(theta), omega * ts
    transverse = (omega0 - omega * c) * s
    cone = np.column_stack([
        transverse * np.cos(wt), transverse * np.sin(wt), np.full_like(ts, omega0 * c + omega * s * s)
    ])
    want = _rotated(loop.rotation, cone)
    assert np.max(np.abs(field_rows(loop, ts) - want)) <= 1e-12 * (omega0 + abs(omega))

    omega_i, coupling = cond.omega_i, cond.coupling
    rabi = np.hypot(omega_i, coupling)
    s, c = omega_i / rabi, coupling / rabi
    v = cond.block_fields(ts)[1]
    for q, g in ((0, 1.0), (1, -1.0)):
        transverse = omega_i - g * omega * s * c
        want = np.array([
            transverse * np.cos(wt), transverse * np.sin(wt),
            np.full_like(ts, g * coupling + omega * s * s),
        ])
        assert np.max(np.abs(2.0 * v[:, q] - want)) <= 1e-12 * (rabi + abs(omega))

    # (c) the static-coupling map realizes the Berry-corrected conditional
    # field, plus the frame term +-omega/2
    c0, v_exp = exp.block_fields(ts)
    assert np.max(np.abs(v_exp - v)) <= 1e-12 * (rabi + abs(omega))
    assert np.all(c0 == np.array([[0.5 * omega], [-0.5 * omega]]))
    assert np.all(cond.block_fields(ts)[0] == 0.0)

    # (d) one corrected loop of each kind tracks its eigenstate on the
    # exact path
    for seg, label in ((loop, k % 2), (cond, LABELS4[k]), (exp, LABELS4[k])):
        traj = evolve_eigenstate(SegmentSchedule((seg,)), label, samples=64)
        assert 1.0 - tracking_fidelity(traj, label).min() <= 1e-12
