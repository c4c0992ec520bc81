"""Propagator: the closed-form SU(2) kernel against dense
eigendecomposition references and the Magnus oracle, step policies,
exactness on constant segments, convergence order, unitarity,
determinism, and no eigendecomposition on the production path."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdecho.fields import ExpLoopParams, LoopParams, RootLoopParams, TwoQubitParams
from tqdecho.gates import verify_exp_equivalence
from tqdecho.phases import echo_phase_decomposition, evolve_eigenstate
from tqdecho.propagate import (
    StepPolicy,
    _final_propagators,
    _loop_propagators,
    _propagate_schedules,
    _segment_partials,
    _segment_propagators,
    propagate_schedule,
    trajectory_to_csv,
)
from tqdecho.qcore import PAULI, SIGMA_Y, SIGMA_Z, unitarity_defect
from tqdecho.schedule import (
    FlipParams,
    IdleParams,
    PulseParams,
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    field_timeline,
    rotate_schedule,
    single_loop_schedule,
)

from dense import expm_hermitian, generator, generator_batch
from echoes import gapped_echo
from spies import count_handed_segments

P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
LOOP = single_loop_schedule(P)
P2 = TwoQubitParams(omega_i=1.3, coupling=1.0, omega=0.5)


def _walked(seg, policy=None, checkpoints=1):
    """(partials, substeps_used) of one segment as the schedule walk gives
    them, for the segment alone in a one-segment schedule."""
    return _segment_propagators([SegmentSchedule((seg,))], policy, checkpoints)[0][0]


def _loop_cases():
    cases = []
    for omega in (0.7, -0.7):
        lp = LoopParams(theta=1.1, omega=omega, omega0=1.0)
        cases.append(replace(lp, rotation=0.6))
        cases.append(RootLoopParams.of(replace(lp, rotation=-0.9)))
    for q in (P2, P2.reversed()):
        cases.append(q)
        cases.append(ExpLoopParams(q.omega_i, q.coupling, q.omega))
    return cases


def _frame(seg) -> str:
    """'True' for a record with a scalar frame term (the exp loop), as
    the case ids name it."""
    return "True" if any(getattr(seg, "frame", ())) else ""


@pytest.mark.parametrize(
    "seg", _loop_cases(),
    ids=lambda s: f"{s.kind}-{s.label}-frame{_frame(s)}",
)
def test_exact_matches_fine_oracle(seg):
    exact, n = _walked(seg, None, checkpoints=8)
    assert n == 0
    oracle, _ = _walked(seg, StepPolicy(substeps=2048), checkpoints=8)
    assert np.max(np.abs(exact - oracle)) <= 1e-9


def test_exact_unitarity_at_every_sample():
    schedules = (
        rotate_schedule(build_echo_sequence(LoopParams(1.1, -0.3, 1.0)), 0.8),
        build_exp_two_qubit_sequence(P2),
    )
    for sched in schedules:
        assert unitarity_defect(propagate_schedule(sched).propagators) <= 1e-13


def test_exact_slow_edge_echo_refocuses_at_defaults():
    sched = build_echo_sequence(LoopParams(theta=np.pi / 2, omega=0.1, omega0=1.0))
    dec = echo_phase_decomposition(evolve_eigenstate(sched, 0), 0)
    assert abs(dec.dynamical) <= 1e-9
    assert dec.geometric_deviation <= 1e-9


def test_exact_two_qubit_exp_echo_at_defaults():
    sched = build_exp_two_qubit_sequence(P2)
    dec = echo_phase_decomposition(evolve_eigenstate(sched, (1, 0)), (1, 0))
    assert abs(dec.dynamical) <= 1e-9
    assert dec.geometric_deviation <= 1e-9


def _dense_exact_reference(seg, ts):
    """exp(-i*omega*t*P/2) exp(-i*K*t) for loops and exp(-i*H*t) for
    constant segments, by eigendecomposition of dense generators."""
    if seg.kind not in ("tqd-loop", "root-loop", "two-qubit-loop", "exp-loop"):
        return expm_hermitian(generator(seg, 0.0), ts)
    if seg.dim == 4:
        axis = np.kron(SIGMA_Z, np.eye(2))
    else:
        rot = seg.rotation
        axis = np.einsum("k,kij->ij", (np.sin(rot), 0.0, np.cos(rot)), PAULI)
    frame = 0.5 * seg.omega * axis
    return expm_hermitian(frame, ts) @ expm_hermitian(generator(seg, 0.0) - frame, ts)


def _kernel_cases():
    flat = LoopParams(theta=0.8, omega=2.3, omega0=1.0)
    return _loop_cases() + [
        flat,
        RootLoopParams.of(flat.reversed()),
        PulseParams(40.0, "single"),
        PulseParams(3.3, "I"),
        FlipParams(7.1),
        IdleParams(4, 1.7),
    ]


@pytest.mark.parametrize(
    "seg", _kernel_cases(),
    ids=lambda s: f"{s.kind}-{s.label}-{getattr(s, 'rotation', getattr(s, 'target', ''))}"
    f"-frame{_frame(s)}",
)
def test_exact_kernel_matches_dense_reference(seg):
    # the walk samples a loop at all 512 checkpoints and a pulse or idle
    # at min(16, 512)
    partials, substeps = _walked(seg, None, checkpoints=512)
    cps = 512 if seg.kind.endswith("loop") else 16
    assert len(partials) == cps
    ts = seg.duration * np.arange(1, cps + 1) / cps
    assert np.max(np.abs(partials - _dense_exact_reference(seg, ts))) <= 1e-13
    if seg.kind in ("pi-pulse", "control-flip", "idle"):
        # constant segments are exact under the Magnus oracle too, one
        # substep per checkpoint
        assert substeps == cps
        mid = _walked(seg, StepPolicy(substeps=8), checkpoints=512)
        assert mid[0].tobytes() == partials.tobytes() and mid[1] == cps
    else:
        assert substeps == 0


def test_step_policy_validation():
    with pytest.raises(ValueError):
        StepPolicy()
    with pytest.raises(ValueError):
        StepPolicy(substeps=0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: StepPolicy(substeps=2.5), "substeps must be an integer"),
        (lambda: StepPolicy(substeps=True), "substeps must be an integer"),
        (lambda: StepPolicy(substeps="8"), "substeps must be an integer"),
        (lambda: propagate_schedule(LOOP, samples=2.5), "samples must be an integer"),
        (lambda: verify_exp_equivalence(P2, field_draws=2.5), "field_draws must be an integer"),
        (lambda: IdleParams(2.0, 1.0), "idle dim must be an integer"),
        (lambda: field_timeline(LOOP, 2.5), "samples_per_segment must be an integer"),
    ],
    ids=[
        "substeps-float", "substeps-bool", "substeps-string", "samples-float",
        "field-draws-float", "segment-dim-float", "timeline-samples-float",
    ],
)
def test_counts_and_dims_must_be_integers(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_numpy_integer_counts_are_accepted():
    idle = IdleParams(np.int64(2), 1.0)
    assert type(idle.dim) is int
    traj = propagate_schedule(LOOP, policy=StepPolicy(np.int64(8)), samples=np.int64(4))
    assert traj.substeps_used == (8,)
    assert verify_exp_equivalence(P2, field_draws=np.int64(1)).field_draws == 1


def test_idle_is_identity():
    s = SegmentSchedule((IdleParams(2, 2.5),))
    traj = propagate_schedule(s, policy=StepPolicy(substeps=8), samples=4)
    assert np.allclose(traj.final_propagator, np.eye(2))


def test_pulse_is_exact():
    """Constant segments use the closed-form exponential, not substeps."""
    omega_pi = 40.0
    s = SegmentSchedule((PulseParams(omega_pi, "single"),))
    traj = propagate_schedule(s, policy=StepPolicy(substeps=4096), samples=4)
    h = 0.5 * omega_pi * SIGMA_Y
    exact = expm_hermitian(h, np.pi / omega_pi)
    assert np.allclose(traj.final_propagator, exact, atol=1e-14)
    # a half turn about y maps |0> to |1> up to phase
    col = np.abs(traj.final_propagator[:, 0])
    assert np.allclose(col, [0.0, 1.0], atol=1e-14)


def test_substeps_mode_reports_substeps():
    traj = propagate_schedule(LOOP, policy=StepPolicy(substeps=100), samples=4)
    assert traj.substeps_used == (100,)


def test_substeps_round_up_to_checkpoint_multiple():
    traj = propagate_schedule(LOOP, policy=StepPolicy(substeps=65), samples=4)
    n = traj.substeps_used[0]
    assert n >= 65 and n % 4 == 0


def test_unitarity_along_trajectory():
    traj = propagate_schedule(
        build_echo_sequence(P), policy=StepPolicy(substeps=512), samples=32
    )
    assert unitarity_defect(traj.propagators) <= 1e-9


def test_times_and_segment_index_align():
    traj = propagate_schedule(
        build_echo_sequence(P), policy=StepPolicy(substeps=64), samples=8
    )
    assert traj.times[0] == 0.0
    assert np.isclose(traj.times[-1], traj.schedule.total_duration)
    assert np.all(np.diff(traj.times) >= 0)
    assert len(traj.times) == len(traj.propagators) == len(traj.segment_index)
    # local times stay within each segment
    local = traj.local_times()
    durations = np.array([s.duration for s in traj.schedule.segments])
    assert np.all(local >= -1e-12)
    assert np.all(local <= durations[traj.segment_index] + 1e-12)


def test_with_initial_state():
    traj = propagate_schedule(LOOP, policy=StepPolicy(substeps=256), samples=8)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    t2 = traj.with_initial_state(psi0)
    assert np.allclose(t2.states[0], psi0)
    norms = np.linalg.norm(t2.states, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        traj.with_initial_state(np.array([1.0, 1.0], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_initial_state_with_a_non_finite_norm_is_rejected(bad):
    # a NaN norm fails every comparison, so the check must fail on it too
    psi = np.array([bad, 0.0])
    with pytest.raises(ValueError, match="normalized"):
        propagate_schedule(LOOP, initial_state=psi)
    with pytest.raises(ValueError, match="normalized"):
        propagate_schedule(LOOP).with_initial_state(psi)


def test_evolve_eigenstate_builds_one_trajectory(monkeypatch):
    import tqdecho.propagate as prop

    real = prop.Trajectory.__init__
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(prop.Trajectory, "__init__", counting)
    traj = evolve_eigenstate(build_echo_sequence(P), 0)
    assert len(calls) == 1 and calls[0] is traj
    with pytest.raises(ValueError, match="normalized"):
        propagate_schedule(LOOP, initial_state=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="dimension 2"):
        propagate_schedule(LOOP, initial_state=np.ones(4) / 2.0)


def test_rerun_is_bit_identical():
    for sched in (build_echo_sequence(P), build_exp_two_qubit_sequence(P2)):
        for pol in (StepPolicy(substeps=512), None):
            a = propagate_schedule(sched, policy=pol, samples=16)
            b = propagate_schedule(sched, policy=pol, samples=16)
            assert a.propagators.tobytes() == b.propagators.tobytes()


# uniformly rescaled rates ------------------------------------------------------

def _scaled_schedules(s):
    """A rotated one-qubit echo, a root loop and both two-qubit echoes,
    with every rate times s: the same physics on a time scale 1/s."""
    p = LoopParams(1.0, s, s)
    q = TwoQubitParams(1.3 * s, s, 0.5 * s)
    return (
        rotate_schedule(build_echo_sequence(p), 0.4),
        single_loop_schedule(p, corrected=False),
        build_two_qubit_sequence(q),
        build_exp_two_qubit_sequence(q),
    )


POLICIES = [None, StepPolicy(substeps=256)]


@pytest.mark.parametrize("policy", POLICIES, ids=["exact", "oracle"])
@pytest.mark.parametrize("exponent", [-1000, -401, -400, -200, 3, 400, 401, 480])
def test_power_of_two_rescaled_rates_keep_every_propagator_byte(policy, exponent):
    # a power of two scales exactly, and every loop runs in units of its
    # own period, so the bytes match wherever the scaled rates lie
    s = 2.0**exponent
    for ref, sched in zip(_scaled_schedules(1.0), _scaled_schedules(s)):
        a = propagate_schedule(ref, policy=policy, samples=8)
        b = propagate_schedule(sched, policy=policy, samples=8)
        assert a.propagators.tobytes() == b.propagators.tobytes()


@pytest.mark.parametrize("policy", POLICIES, ids=["exact", "oracle"])
@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e-130, 1e100, 1e130, 1e149])
def test_rescaled_rates_reproduce_the_unit_scale_propagators(policy, s):
    # below about 1e-154 the squared fields underflowed to 0 and the
    # small-angle fallback broke unitarity (defect 2.1 at 1e-200)
    for ref, sched in zip(_scaled_schedules(1.0), _scaled_schedules(s)):
        a = propagate_schedule(ref, policy=policy, samples=8)
        b = propagate_schedule(sched, policy=policy, samples=8)
        assert np.max(np.abs(b.propagators - a.propagators)) <= 1e-12
        assert unitarity_defect(b.propagators) <= 1e-13


@pytest.mark.parametrize("omega", [1e-300, 1e-120, 1.0, 1e120, 1e138])
def test_coarse_oracle_steps_at_the_turn_bound_stay_finite_and_unitary(omega):
    # one Magnus step over a loop whose fields turn ~6e11 rad per period:
    # the commutator term grows as field**2 * dt, and its square
    # overflowed before the turn bound and the period units
    from tqdecho.fields import _MAX_TURN

    p = LoopParams(1.0, omega, 0.99 * _MAX_TURN / (2.0 * np.pi) * omega)
    for corrected in (True, False):
        traj = propagate_schedule(
            single_loop_schedule(p, corrected), policy=StepPolicy(substeps=1), samples=2
        )
        assert unitarity_defect(traj.propagators) <= 1e-13


@pytest.mark.parametrize("policy", [None, StepPolicy(substeps=256)], ids=["exact", "oracle"])
def test_repeated_segments_are_propagated_once(policy, monkeypatch):
    sched = build_two_qubit_sequence(P2)
    segments, stacked = count_handed_segments(monkeypatch)
    traj = propagate_schedule(sched, policy=policy, samples=8)
    # half + half: two loops, the pulse and the control flip, each once,
    # the pulse and the flip stacked beside the loops on the exact path and
    # in a call of their own under the oracle
    assert len(sched.segments) == 8
    assert sorted(segments) == sorted(
        [("two-qubit-loop", 8), ("two-qubit-loop", 8), ("pi-pulse", 8), ("control-flip", 8)]
    )
    assert stacked == ([4] if policy is None else [2, 2])
    assert len(traj.substeps_used) == 8

    monkeypatch.undo()
    assert traj.propagators.tobytes() == _composed_per_segment(sched, policy, 8).tobytes()


@pytest.mark.parametrize("policy", POLICIES, ids=["exact", "oracle"])
@pytest.mark.parametrize("samples", [2, 8, 40])
def test_nonzero_idle_in_a_batch_is_identity_partials(policy, samples, monkeypatch):
    # the gapped echo has idles of 0.3 and 0.2; the hand-built two-qubit
    # schedule one of 0.4
    gapped = gapped_echo(P, (0.3, 0.0, 0.2))
    paused = SegmentSchedule((P2, IdleParams(4, 0.4), P2.reversed()))
    batch = [gapped, build_two_qubit_sequence(P2), paused, gapped]
    segments, _ = count_handed_segments(monkeypatch)
    walks = _segment_propagators(batch, policy, samples)
    assert "idle" not in {kind for kind, _ in segments}
    cps = min(16, samples)
    partials, substeps = walks[2][1]
    assert substeps == cps and partials.shape == (cps, 4, 4)
    assert partials.tobytes() == np.broadcast_to(np.eye(4, dtype=complex), partials.shape).tobytes()
    idles = [i for i, seg in enumerate(gapped.segments) if seg.kind == "idle"]
    assert [gapped.segments[i].duration for i in idles] == [0.3, 0.2]
    for walked in (walks[0], walks[3]):
        for i in idles:
            partials, substeps = walked[i]
            assert substeps == cps
            assert partials.shape == (cps, 2, 2)
            eye = np.broadcast_to(np.eye(2, dtype=complex), partials.shape)
            assert partials.tobytes() == eye.tobytes()
    monkeypatch.undo()
    traj = propagate_schedule(gapped, policy=policy, samples=samples)
    assert [traj.substeps_used[i] for i in idles] == [cps, cps]


def _composed_per_segment(sched, policy, samples):
    """Cumulative propagators of a schedule with every segment walked on
    its own, as a one-segment schedule, composed in order."""
    cum = np.eye(sched.dim, dtype=complex)
    rows = []
    for seg in sched.segments:
        partials, _ = _walked(seg, policy, samples)
        rows += [cum[None], np.matmul(partials, cum)]
        cum = rows[-1][-1]
    return np.concatenate(rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    st.floats(-6.0, 150.0),
    st.sampled_from(["single", "I"]),
    st.sampled_from([1, 16]),
    st.sampled_from([None, StepPolicy(substeps=64)]),
)
def test_pulse_partials_are_the_literal_closed_form(exponent, target, checkpoints, policy):
    # a y pulse reaches the loop kernel as a frame turning about y at its
    # own rate omega_pi, where K = 0 makes the inner factor exactly 1, so
    # its partials are cos(omega_pi*t/2) - i*sin(omega_pi*t/2)*sigma_y to
    # the byte; a static field (frame rate 0) moves most rates by an ulp
    omega_pi = 10.0**exponent
    seg = PulseParams(omega_pi, target)
    partials, substeps = _walked(seg, policy, checkpoints)
    ts = seg.duration * np.arange(1, checkpoints + 1) / checkpoints
    half = 0.5 * omega_pi * ts
    turn = np.zeros((checkpoints, 2, 2), dtype=complex)
    turn[:, 0, 0] = turn[:, 1, 1] = np.cos(half)
    turn[:, 1, 0] = np.sin(half)
    turn[:, 0, 1] = -np.sin(half)
    want = turn
    if target == "I":  # the identity on the control: one copy per control state
        want = np.zeros((checkpoints, 4, 4), dtype=complex)
        for q in (0, 1):
            want[:, q::2, q::2] = turn
    assert partials.tobytes() == want.tobytes()
    assert substeps == checkpoints


@pytest.mark.parametrize(
    "loop, pulse", [(P, PulseParams(35.0, "single")), (P2, PulseParams(25.0, "I"))],
    ids=["pi", "pi-I"],
)
def test_rows_of_different_lengths_stack_without_moving_a_byte(loop, pulse):
    # the exact walk hands a loop its 256 samples and a pulse its 16 in
    # one kernel call; each record keeps the bytes it has alone
    ts = [seg.duration * np.arange(1, n + 1) / n for seg, n in ((loop, 256), (pulse, 16))]
    both = _loop_propagators([loop, pulse], ts)
    assert [u.shape[0] for u in both] == [256, 16]
    assert both[0].tobytes() == _loop_propagators([loop], ts[:1])[0].tobytes()
    assert both[1].tobytes() == _loop_propagators([pulse], ts[1:])[0].tobytes()
    sched = SegmentSchedule((loop, pulse, loop.reversed(), pulse))
    traj = propagate_schedule(sched, samples=256)
    assert traj.propagators.tobytes() == _composed_per_segment(sched, None, 256).tobytes()


@pytest.mark.parametrize(
    "sched",
    [
        rotate_schedule(gapped_echo(P, (0.3, 0.0, 0.2)), 0.4),
        build_two_qubit_sequence(P2),
        build_exp_two_qubit_sequence(P2),
    ],
    ids=["one-qubit", "two-qubit", "exp-loop"],
)
def test_oracle_walk_runs_one_product_tree(sched, monkeypatch):
    import tqdecho.propagate as prop

    policy = StepPolicy(substeps=100)
    real = prop._segment_partials
    batches = []

    def counting(segs, n, checkpoints):
        batches.append((len(segs), n, checkpoints))
        return real(segs, n, checkpoints)

    monkeypatch.setattr(prop, "_segment_partials", counting)
    traj = propagate_schedule(sched, policy=policy, samples=12)
    ((u, _),) = _final_propagators([sched], policy)
    # each echo's two distinct loops share one tree and scan per walk
    assert batches == [(2, 108, 12), (2, 100, 1)]
    monkeypatch.undo()
    assert traj.propagators.tobytes() == _composed_per_segment(sched, policy, 12).tobytes()
    assert u.tobytes() == _composed_per_segment(sched, policy, 1)[-1].tobytes()


@st.composite
def _drawn_batches(draw):
    """A batch of 3 to 7 schedules that mixes dims and repeats segments
    across schedules: at least one one-qubit and one two-qubit schedule
    drawn from a pool on shared parameters, and one schedule drawn twice.
    Also the sample count and the policy (None or a few substeps)."""
    rate = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 10.0))
    p = LoopParams(theta=draw(st.floats(0.1, 3.0)), omega=rate, omega0=draw(st.floats(0.5, 2.0)))
    q = TwoQubitParams(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)), rate)
    one = [
        build_echo_sequence(p),
        rotate_schedule(build_echo_sequence(p), draw(st.floats(-np.pi, np.pi))),
        single_loop_schedule(p),
        single_loop_schedule(p.reversed(), corrected=False),
    ]
    two = [
        build_two_qubit_sequence(q),
        build_exp_two_qubit_sequence(q),
        SegmentSchedule((q.reversed(),)),
    ]
    pool = one + two
    picks = [draw(st.sampled_from(one)), draw(st.sampled_from(two))]
    picks += draw(st.lists(st.sampled_from(pool), max_size=4))
    picks.append(draw(st.sampled_from(picks)))
    batch = draw(st.permutations(picks))
    policy = draw(st.sampled_from([None, StepPolicy(substeps=1), StepPolicy(substeps=24)]))
    return batch, draw(st.sampled_from([2, 5, 16, 33])), policy


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_drawn_batches())
def test_batch_walk_is_byte_identical_to_single_schedule_walks(draw):
    batch, samples, policy = draw
    assert {s.dim for s in batch} == {2, 4}
    trajs = _propagate_schedules(batch, [None] * len(batch), policy, samples)
    finals = _final_propagators(batch, policy)
    for sched, traj, (u, substeps) in zip(batch, trajs, finals):
        alone = propagate_schedule(sched, policy=policy, samples=samples)
        assert traj.schedule is sched
        assert traj.propagators.tobytes() == alone.propagators.tobytes()
        assert alone.propagators.tobytes() == _composed_per_segment(sched, policy, samples).tobytes()
        assert traj.times.tobytes() == alone.times.tobytes()
        assert traj.substeps_used == alone.substeps_used
        ((u_alone, substeps_alone),) = _final_propagators([sched], policy)
        assert u.tobytes() == u_alone.tobytes()
        assert substeps == substeps_alone


def test_trajectory_csv(tmp_path):
    traj = propagate_schedule(LOOP, policy=StepPolicy(substeps=64), samples=4)
    traj = traj.with_initial_state(np.array([1.0, 0.0], dtype=complex))
    extra = np.arange(len(traj.times), dtype=float)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, {"marker": extra})
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t", "segment", "label"]
    assert "marker" in header
    assert any(col.startswith("re_psi") for col in header)
    assert len(lines) == len(traj.times) + 1
    # full precision survives the round trip
    t1 = float(lines[1].split(",")[0])
    assert t1 == traj.times[0]


@st.composite
def _drawn_loops(draw):
    """A loop segment of any kind: cone angle, signed rate ratio in
    +-[0.3, 10], drive rotation, omega_i / J in [0.01, 100]."""
    kind = draw(st.sampled_from(["tqd-loop", "root-loop", "two-qubit-loop", "exp-loop"]))
    rate = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 10.0))
    if kind in ("tqd-loop", "root-loop"):
        p = LoopParams(draw(st.floats(0.0, np.pi)), rate, 1.0, draw(st.floats(-np.pi, np.pi)))
        return p if kind == "tqd-loop" else RootLoopParams.of(p)
    ratio = 10.0 ** draw(st.floats(-2.0, 2.0))
    p = TwoQubitParams(ratio / np.hypot(ratio, 1.0), 1.0 / np.hypot(ratio, 1.0), rate)
    if kind == "two-qubit-loop":
        return p
    return ExpLoopParams(p.omega_i, p.coupling, p.omega)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_drawn_loops())
def test_oracle_converges_to_exact_at_fourth_order(seg):
    # 32 substeps per loop is already in the asymptotic regime for these
    # draws (error ratio 0.0634 at worst over 400 random draws, 1/16 in
    # the limit); a second-order scheme would quarter the error and a
    # third-order one divide it by 8. Draws whose error at 32 substeps is
    # already at the rounding floor (at most 2e-12 over those 400) show
    # no order.
    alone = [SegmentSchedule((seg,))]
    ((exact, _),) = _final_propagators(alone, None)
    err = [
        np.max(np.abs(exact - _final_propagators(alone, StepPolicy(substeps=n))[0][0]))
        for n in (32, 64)
    ]
    assert err[1] <= 0.08 * err[0] or err[0] <= 1e-11


def _dense_magnus_reference(seg, n, checkpoints):
    """Sequential product of dense fourth-order Magnus steps, kept at
    checkpoints: each step is exp(-i*(H_bar - i*(sqrt(3)*dt/12)*[H2, H1])*dt)
    with H1, H2 the generator at the two Gauss points of the step."""
    dt = seg.duration / n
    mid = (np.arange(n) + 0.5) * dt
    gap = dt / (2.0 * np.sqrt(3.0))
    h1, h2 = generator_batch(seg, mid - gap), generator_batch(seg, mid + gap)
    hs = 0.5 * (h1 + h2) - 1j * (np.sqrt(3.0) * dt / 12.0) * (h2 @ h1 - h1 @ h2)
    acc = np.eye(seg.dim, dtype=complex)
    out = []
    for k, h in enumerate(hs):
        acc = expm_hermitian(h, dt) @ acc
        if (k + 1) % (n // checkpoints) == 0:
            out.append(acc)
    return np.array(out)


@pytest.mark.parametrize(
    "seg", _loop_cases(),
    ids=lambda s: f"{s.kind}-{s.label}-frame{_frame(s)}",
)
def test_oracle_kernel_matches_dense_reference(seg):
    # odd chunks, a chunk of one step, and checkpoint counts that are not
    # powers of two exercise both the pairwise tree and the prefix scan
    for n, checkpoints in ((1, 1), (7, 7), (60, 12), (96, 3), (4096, 256)):
        (got,) = _segment_partials([seg], n, checkpoints)
        ref = _dense_magnus_reference(seg, n, checkpoints)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize(
    "seg", _loop_cases(),
    ids=lambda s: f"{s.kind}-{s.label}-frame{_frame(s)}",
)
def test_dense_generators_pack_block_fields(seg):
    # the kernels read block_fields and the dense references above pack
    # them as c0 + v . sigma; both must be one formula, entry by entry
    blocks = seg.dim // 2
    for n in (1, 4096):
        ts = np.linspace(0.0, seg.duration, n)
        for corrected in (True, False):
            c0, v = seg.block_fields(ts, corrected=corrected)
            assert c0.shape == (blocks, n) and v.shape == (3, blocks, n)
            h = generator_batch(seg, ts, corrected)
            off_block = np.ones((seg.dim, seg.dim), dtype=bool)
            for j in range(blocks):
                a, b = j, j + blocks
                assert np.array_equal(h[:, a, a], c0[j] + v[2, j])
                assert np.array_equal(h[:, b, b], c0[j] - v[2, j])
                assert np.array_equal(h[:, a, b], v[0, j] - 1j * v[1, j])
                assert np.array_equal(h[:, b, a], v[0, j] + 1j * v[1, j])
                off_block[np.ix_([a, b], [a, b])] = False
            assert np.all(h[:, off_block] == 0.0)


def test_production_path_runs_no_eigendecomposition(monkeypatch, tmp_path):
    from tqdecho.cli import _RUNNERS, main
    from tqdecho.gates import (
        SingleGateSpec,
        synthesize_single_gate,
        synthesize_two_qubit_gate,
        verify_exp_equivalence,
    )
    from tqdecho.phases import tracking_fidelity

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called on the production path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    with pytest.raises(AssertionError, match="production path"):
        expm_hermitian(SIGMA_Y)
    rotated = rotate_schedule(build_echo_sequence(LoopParams(1.1, -0.3, 1.0)), 0.8)
    for sched, label in ((rotated, 1), (build_exp_two_qubit_sequence(P2), (1, 0))):
        traj = evolve_eigenstate(sched, label)
        dec = echo_phase_decomposition(traj, label)
        assert abs(dec.dynamical) <= 1e-12 and dec.geometric_deviation <= 1e-12
        assert tracking_fidelity(traj, label).min() >= 1.0 - 1e-12
    assert synthesize_single_gate(SingleGateSpec(0.3, 1.2)).distance <= 1e-12
    assert synthesize_two_qubit_gate(P2).leakage <= 1e-12
    assert verify_exp_equivalence(P2, field_draws=4).gate_deviation <= 1e-12
    # one run of every CLI subcommand; verify-all runs criteria 1-8
    configs = {
        "fields": {"theta": 1.1, "omega": 1.0, "omega0": 1.0, "samples": 16},
        "evolve": {"theta": 1.1, "omega": 1.0, "omega0": 1.0},
        "echo": {"theta": 1.1, "omega": -0.7, "omega0": 1.0, "label": 1},
        "gate": {"axis_angle": 0.3, "gate_angle": 1.2},
        "twoqubit": {"omega_i": 1.3, "coupling": 1.0, "omega": 0.5},
        "expmap": {"omega_i": 1.3, "coupling": 1.0, "omega": 0.5, "draws": 4},
        "scan": {"theta": 1.1, "omega0": 1.0, "ratios": [0.5, -2.0]},
    }
    assert set(configs) == set(_RUNNERS)
    for kind, config in configs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(config))
        assert main([kind, "--config", str(path), "--out", str(tmp_path / kind)]) == 0
    assert main(["verify-all", "--out", str(tmp_path / "verify")]) == 0
    results = json.loads((tmp_path / "verify" / "acceptance.json").read_text())
    assert len(results) == 8 and all(r["passed"] for r in results)
