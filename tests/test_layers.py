"""The layers that run in one pass over all segments, against their
per-segment forms (tests/dense.py), byte for byte, and the spies that
count what each pass reads."""
from dataclasses import replace

import numpy as np
import pytest

from tqdecho.fields import LoopParams, RootLoopParams, TwoQubitParams
from tqdecho.phases import (
    _reference_series,
    dynamical_phase,
    echo_phase_decomposition,
    evolve_eigenstate,
    total_phase,
    tracking_fidelity,
)
from tqdecho.propagate import (
    StepPolicy,
    _hamilton,
    _pack_quaternions,
    _segment_propagators,
    _trajectory,
    propagate_schedule,
)
from tqdecho.schedule import (
    PulseParams,
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    rotate_schedule,
)

import dense
from echoes import gapped_echo
from spies import count_field_reads, over_rotate_pulses


def _family() -> dict:
    """name -> (schedule, label) of each kind the layers must keep:
    turned echoes, echoes with idles between segments, turned root
    loops, two-qubit and exp echoes, drawn from one seeded generator."""
    rng = np.random.default_rng(2021)
    out = {}
    for k in range(2):
        p = LoopParams(rng.uniform(0.1, 3.0), rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-1, 1),
                       10 ** rng.uniform(-0.3, 0.3))
        label = int(rng.integers(2))
        out[f"turned-{k}"] = rotate_schedule(build_echo_sequence(p), rng.uniform(-3, 3)), label
        gaps = rng.uniform(0.1, 2.0, 3) * (rng.random(3) < 0.7)
        out[f"gapped-{k}"] = gapped_echo(replace(p, rotation=rng.uniform(-3, 3)), gaps), label
        root = replace(RootLoopParams.of(p), rotation=rng.uniform(-3, 3))
        out[f"root-{k}"] = SegmentSchedule((root, root.reversed())), label
        q = TwoQubitParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-0.3, 0.3),
                           rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-1, 0))
        pair = (int(rng.integers(2)), int(rng.integers(2)))
        out[f"two-qubit-{k}"] = build_two_qubit_sequence(q), pair
        out[f"exp-{k}"] = build_exp_two_qubit_sequence(q), pair
    return out


FAMILY = _family()
POLICIES = {"exact": None, "oracle": StepPolicy(substeps=64)}


@pytest.mark.parametrize("samples", [2, 3, 16, 256, 1000])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(FAMILY))
def test_gathered_layers_keep_the_per_segment_bytes(name, policy, samples):
    sched, label = FAMILY[name]
    policy = POLICIES[policy]
    traj = evolve_eigenstate(sched, label, policy, samples)
    walked = _segment_propagators([sched], policy, samples)[0]
    got, want = (build(sched, walked, traj.initial_state)
                 for build in (_trajectory, dense.trajectory))
    for attr in ("times", "segment_index", "propagators", "states"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
        assert getattr(got, attr).dtype == getattr(want, attr).dtype, attr
    refs, misaligned = _reference_series(traj, label)
    want_refs, want_misaligned = dense.reference_series(traj, label)
    assert refs.tobytes() == want_refs.tobytes()
    assert misaligned == want_misaligned
    for root in ("root", "full"):
        assert dynamical_phase(traj, root).hex() == dense.dynamical_phase(traj, root).hex(), root


def test_quaternion_kernels_keep_the_written_out_bytes():
    # signed zeros and infinities as well as generic values: the packer
    # forms each entry as the complex expression a - 1j*d does
    rng = np.random.default_rng(7)
    for blocks, n in [(1, 1), (1, 528), (2, 37)]:
        p, q = rng.standard_normal((2, 4, blocks, n))
        q[:, :, : min(n, 4)] = np.array([0.0, -0.0, 0.0, -0.0])[:, None, None]
        p[1, 0, 0] = np.inf
        scale = np.exp(1j * rng.standard_normal((blocks, n)))
        with np.errstate(invalid="ignore"):
            got = _hamilton(p, q, np.empty(p.shape))
            want = dense.hamilton(p, q)
            assert got.tobytes() == want.tobytes()
            frame = np.broadcast_to(p[:, :1], p.shape)
            assert _hamilton(frame, q, np.empty(q.shape)).tobytes() == dense.hamilton(frame, q).tobytes()
            packed = _pack_quaternions(want, scale, 2 * blocks)
            assert packed.tobytes() == dense.pack_quaternions(want, scale, 2 * blocks).tobytes()


P = LoopParams(theta=np.pi / 4, omega=0.7)
P2 = TwoQubitParams(1.0, 1.0, 0.5)


@pytest.mark.parametrize("sched, reads", [
    (rotate_schedule(build_echo_sequence(P), 0.4), 3),
    (build_two_qubit_sequence(P2), 4),
], ids=["one-qubit", "two-qubit"])
def test_dynamical_phase_reads_each_distinct_record_once(monkeypatch, sched, reads):
    # the echo holds its pulse records twice, the two-qubit echo each
    # record twice: 4 and 8 reads when each segment read its own fields
    label = 0 if sched.dim == 2 else (0, 1)
    traj = evolve_eigenstate(sched, label, samples=64)
    read = count_field_reads(monkeypatch)
    for root in ("root", "full"):
        dynamical_phase(traj, root)
        assert len(read) == len({id(seg) for seg in read}) == reads
        read.clear()


@pytest.mark.parametrize("build, distinct", [
    (lambda: rotate_schedule(build_echo_sequence(replace(P)), 0.4), 3),
    (lambda: build_two_qubit_sequence(replace(P2)), 4),
], ids=["one-qubit", "two-qubit"])
def test_exact_kernel_reads_fields_only_through_the_frame_row(monkeypatch, build, distinct):
    # fresh records: each states its rotating frame once, from one read
    # at t = 0; the kernel itself reads no block fields
    sched = build()
    read = count_field_reads(monkeypatch)
    first = propagate_schedule(sched, samples=32)
    assert len(read) == len({id(seg) for seg in read}) == distinct
    read.clear()
    again = propagate_schedule(sched, samples=32)
    assert read == []
    assert again.propagators.tobytes() == first.propagators.tobytes()


def test_a_replaced_pulse_states_its_own_frame():
    # over_rotate_pulses hands the kernel replace(seg, omega_pi=...): the
    # new record must not carry the old one's frame row
    pulse = PulseParams(10.0, "single")
    assert pulse._frame_row[1] == 5.0
    faster = replace(pulse, omega_pi=20.0)
    assert faster._frame_row[1] == 10.0
    assert not pulse._frame_row.flags.writeable


def test_over_rotated_pulses_reach_the_kernel_after_a_walk(monkeypatch):
    # the pulse records' frame rows are stated by a first walk; the spy's
    # over-rotated twins still turn too far
    sched = build_echo_sequence(P)
    label = 0
    exact = evolve_eigenstate(sched, label, samples=16)
    over_rotate_pulses(monkeypatch, 1.0 + 1e-3)
    over = evolve_eigenstate(sched, label, samples=16)
    rows = exact.segment_rows(1)
    assert np.max(np.abs(over.propagators[rows] - exact.propagators[rows])) > 1e-4


def test_a_nan_state_fails_the_phase_guards():
    # NaN compares false both ways: the overlap guards passed a NaN state
    # and returned a total phase and a decomposition of nans
    traj = evolve_eigenstate(build_echo_sequence(P), 0)
    props = traj.propagators.copy()
    props[300] = np.nan
    bad = replace(traj, propagators=props).with_initial_state(traj.initial_state)
    assert np.isnan(tracking_fidelity(bad, 0)[300])
    with pytest.raises(ValueError, match="does not track the labelled eigenstate"):
        total_phase(bad, 0)
    with pytest.raises(ValueError, match="does not track the labelled eigenstate"):
        echo_phase_decomposition(bad, 0)
