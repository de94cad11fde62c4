import math
import random

import numpy as np
import pytest

from sparsesim import ops
from sparsesim.arithmetic import cdkm_add
from sparsesim.ir import ANGLE_KINDS, KINDS, GateOp
from sparsesim.permqueue import flip_record, pauli_y_record, phase_record
from sparsesim.scheduler import QubitSlots, is_pairwise, lower, pairwise_block, phase_perm_record
from sparsesim.simulator import Simulator
from sparsesim.state import PairwiseBlock, SparseState

SQRT_HALF = math.sqrt(0.5)

# Matrices for checking the commutation rules as exact operator identities.
I2 = np.eye(2)
H = SQRT_HALF * np.array([[1, 1], [1, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def RX(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def RY(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def ctrl(u):
    """Controlled version of u on (control, target) ordering |c t>."""
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


THETA = 0.83


@pytest.mark.parametrize(
    "name,lhs,rhs",
    [
        ("H.H = I", H @ H, I2),
        ("H.Ry(t) = Ry(-t).H", H @ RY(THETA), RY(-THETA) @ H),
        ("X.H = H.Z", X @ H, H @ Z),
        ("Z.H = H.X", Z @ H, H @ X),
        ("Y.H = -H.Y", Y @ H, -(H @ Y)),
        ("X.Rx = Rx.X", X @ RX(THETA), RX(THETA) @ X),
        ("Y.Rx(t) = Rx(-t).Y", Y @ RX(THETA), RX(-THETA) @ Y),
        ("Z.Rx(t) = Rx(-t).Z", Z @ RX(THETA), RX(-THETA) @ Z),
        ("Y.Ry = Ry.Y", Y @ RY(THETA), RY(THETA) @ Y),
        ("X.Ry(t) = Ry(-t).X", X @ RY(THETA), RY(-THETA) @ X),
        ("Z.Ry(t) = Ry(-t).Z", Z @ RY(THETA), RY(-THETA) @ Z),
        ("Rx merge", RX(0.4) @ RX(THETA), RX(THETA + 0.4)),
        ("Ry merge", RY(0.4) @ RY(THETA), RY(THETA + 0.4)),
        ("CX.Rx_t = Rx_t.CX", ctrl(X) @ np.kron(I2, RX(THETA)), np.kron(I2, RX(THETA)) @ ctrl(X)),
        ("CX.H_t = H_t.CZ", ctrl(X) @ np.kron(I2, H), np.kron(I2, H) @ ctrl(Z)),
    ],
)
def test_commutation_table_rows_hold_exactly(name, lhs, rhs):
    assert np.abs(lhs - rhs).max() < 1e-12


def lowering_cases():
    """One controlled gate per kind except mz; pexp both Z-only and with X support."""
    for kind in sorted(KINDS - {"mz"}):
        angle = 0.3 if kind in ANGLE_KINDS else None
        if kind == "pexp":
            for axes, pairwise in ((("Z",), False), (("Z", "Z"), False), (("X", "Z"), True)):
                op = GateOp(kind, (0, 1)[: len(axes)], (2,), angle, axes)
                yield pytest.param(op, pairwise, id="pexp_" + "".join(axes))
        else:
            targets = (0, 1) if kind == "swap" else (0,)
            yield pytest.param(GateOp(kind, targets, (2,), angle), kind in ("h", "rx", "ry"), id=kind)


@pytest.mark.parametrize("op,pairwise", lowering_cases())
def test_each_kind_lowers_to_exactly_one_kernel_input(op, pairwise):
    assert is_pairwise(op) is pairwise
    if pairwise:
        assert isinstance(pairwise_block(op), PairwiseBlock)
    else:
        record = phase_perm_record(op)
        assert type(record) is tuple and len(record) == 6
        _, ctrl, *_ = record
        assert ctrl & 0b100


def slots(sim, q):
    # Read-only: an absent qubit has nothing pending.
    return sim.slots.get(q, QubitSlots())


def test_incoming_h_cancels_pending_h():
    sim = Simulator(1)
    sim.apply(ops.h(0))
    assert slots(sim, 0).h == 1
    size_before = len(sim.state)
    sim.apply(ops.h(0))
    assert slots(sim, 0).h == 0
    assert len(sim.state) == size_before == 1  # state untouched


def test_incoming_h_negates_pending_ry():
    sim = Simulator(1)
    sim.apply(ops.ry(0.6, 0))
    sim.apply(ops.h(0))
    sl = slots(sim, 0)
    assert sl.ry == pytest.approx(-0.6)
    assert sl.h == 1
    assert len(sim.state) == 1


def test_incoming_x_through_h_becomes_z():
    sim = Simulator(1)
    sim.apply(ops.h(0))
    sim.apply(ops.x(0))
    assert slots(sim, 0).h == 1
    assert len(sim.queue.records) == 1
    assert sim.queue.records == [phase_record(-1, 0b1)]  # Z record


def test_incoming_y_through_h_keeps_y_with_minus_phase():
    sim = Simulator(1)
    sim.apply(ops.h(0))
    sim.apply(ops.y(0))
    assert sim.queue.records == [pauli_y_record(0), phase_record(-1)]


def test_ccx_with_pending_rx_on_control_forces_flush():
    sim = Simulator(3)
    sim.apply(ops.x(1))
    sim.apply(ops.x(2))
    sim.apply(ops.rx(0.75, 1))
    assert len(sim.state) == 1  # rx still pending
    sim.apply(ops.ccx(1, 2, 0))
    # flush executed the queued X gates and applied the Rx (state grew);
    # the CCX sits alone in the fresh queue
    assert len(sim.state) == 2
    assert 1 not in sim.slots
    assert len(sim.queue.records) == 1
    assert sim.queue.records == [flip_record(0b1, 0b110)]


def test_cx_passes_pending_rx_on_target():
    sim = Simulator(2)
    sim.apply(ops.rx(0.75, 0))
    sim.apply(ops.cx(1, 0))
    assert slots(sim, 0).rx == pytest.approx(0.75)  # still pending
    assert len(sim.queue.records) == 1
    assert sim.queue.records == [flip_record(0b1, 0b10)]
    assert sim.stats.flush_count == 0


def test_rx_merge_requires_empty_ry():
    sim = Simulator(1)
    sim.apply(ops.rx(0.3, 0))
    sim.apply(ops.rx(0.4, 0))
    assert slots(sim, 0).rx == pytest.approx(0.7)
    assert len(sim.state) == 1
    sim.apply(ops.ry(0.2, 0))
    sim.apply(ops.rx(0.5, 0))  # must flush: Rx cannot cross pending Ry
    assert slots(sim, 0).rx == pytest.approx(0.5)
    assert slots(sim, 0).ry == 0.0
    assert sim.stats.flush_count >= 1


@pytest.mark.parametrize(
    "pair",
    [(ops.h(1), ops.h(1)), (ops.rx(0.3, 1), ops.rx(-0.3, 1)), (ops.ry(0.3, 1), ops.ry(-0.3, 1))],
    ids=["h-h", "rx-rx", "ry-ry"],
)
def test_cancelling_pair_leaves_no_slot(pair):
    sim = Simulator(2)
    sim.apply_all(pair)
    assert 1 not in sim.slots
    sim.apply(ops.cx(1, 0))
    assert sim.queue.records == [flip_record(0b1, 0b10)]
    assert sim.stats.flush_count == 0


def test_flush_all_empty_structures_is_noop():
    sim = Simulator(2)
    before = sim.dump()
    sim.flush()
    assert sim.dump() == before
    assert sim.stats.flush_count == 0


def test_flush_order_queue_before_slots():
    # queue [X(q0)] with pending H: flush must give H X |0> = (|0> - |1>)/sqrt(2)
    sim = Simulator(1)
    sim.apply(ops.x(0))
    sim.apply(ops.h(0))
    d = dict(sim.dump())
    assert d[0] == pytest.approx(SQRT_HALF)
    assert d[1] == pytest.approx(-SQRT_HALF)


def test_flush_applies_pending_h():
    sim = Simulator(1)
    sim.apply(ops.h(0))
    d = dict(sim.dump())
    assert d[0] == pytest.approx(SQRT_HALF)
    assert d[1] == pytest.approx(SQRT_HALF)


def test_pre_measure_flush_leaves_disjoint_slots_pending():
    sim = Simulator(2, seed=4)
    sim.apply(ops.h(1))
    sim.measure((0,))
    assert slots(sim, 1).h == 1  # H on the unmeasured qubit still queued
    assert len(sim.state) == 1


def test_pre_measure_flush_executes_measured_slot():
    counts = {0: 0, 1: 0}
    for seed in range(40):
        sim = Simulator(1, seed=seed)
        sim.apply(ops.h(0))
        counts[sim.measure((0,))] += 1
    assert counts[0] > 5 and counts[1] > 5  # uniform-ish over seeds


def test_deferral_keeps_map_small():
    sim = Simulator(5)
    sim.apply(ops.h(0))
    sim.apply(ops.h(1))
    sim.apply(ops.rx(0.4, 2))
    sim.apply(ops.ry(0.9, 3))
    sim.apply(ops.x(0))  # commutes through H as Z
    sim.apply(ops.z(2))  # commutes through Rx, negating its angle
    sim.apply(ops.y(3))  # commutes past Ry
    sim.apply(ops.s(4))  # empty slots: enqueues directly
    sim.apply(ops.cx(4, 0))  # control slot empty, target H -> CZ
    assert len(sim.state) == 1  # nothing pairwise has executed
    assert slots(sim, 2).rx == pytest.approx(-0.4)
    assert sim.stats.flush_count == 0


def test_scheduler_transparency_on_random_programs():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from progutil import random_program

    for seed in range(60):
        prog = random_program(seed, max_qubits=8, max_gates=80)
        on = Simulator(prog.num_qubits, seed=seed, use_scheduler=True)
        off = Simulator(prog.num_qubits, seed=seed, use_scheduler=False)
        from sparsesim.ir import Conditional

        for entry in prog.ops:
            for sim in (on, off):
                if isinstance(entry, Conditional):
                    if sim.measurements[entry.meas_index] == entry.value:
                        sim.apply(entry.op)
                else:
                    sim.apply(entry)
            assert all(sl.h or sl.rx or sl.ry for sl in on.slots.values())
        d_on, d_off = dict(on.dump()), dict(off.dump())
        assert on.measurements == off.measurements
        assert set(d_on) == set(d_off)
        for b in d_on:
            assert d_on[b] == pytest.approx(d_off[b], abs=1e-10)


@pytest.mark.parametrize(
    "op",
    [ops.h(0), ops.rx(0.3, 0), ops.ry(0.3, 0, (1,)), GateOp("pexp", (0, 1), (), 0.3, ("X", "Z")),
     GateOp("pexp", (0,), (1,), 0.3, ("Y",)), GateOp("mz", (0,))],
    ids=["h", "rx", "cry", "pexp_XZ", "cpexp_Y", "mz"],
)
def test_lower_rejects_gates_without_a_queue_record(op):
    with pytest.raises(ValueError, match="no queue record"):
        lower([ops.cx(0, 1), op], 2)


def test_lower_validates_each_op():
    with pytest.raises(ValueError, match="out of range"):
        lower([ops.cx(0, 2)], 2)


# Adder a=(0,1,2) into b=(3,4,5) with carry 6; qubit 7 is never touched by it.
ADDER = ((0, 1, 2), (3, 4, 5), 6)
ADDER_QUBITS = 8


@pytest.mark.parametrize(
    "prep,use_scheduler,fast",
    [
        ([ops.x(0), ops.x(2), ops.x(4), ops.cx(0, 5)], True, True),
        ([ops.x(0), ops.h(3), ops.x(1)], True, False),
        ([ops.x(0), ops.rx(0.4, 7), ops.x(5)], True, True),
        ([ops.x(0), ops.h(3), ops.rx(0.4, 7)], False, False),
    ],
    ids=["no-slot", "pending-h-on-touched", "pending-rx-untouched", "scheduler-off"],
)
def test_apply_lowered_matches_apply_all(prep, use_scheduler, fast):
    block = lower(cdkm_add(*ADDER), ADDER_QUBITS)
    gated = Simulator(ADDER_QUBITS, seed=3, use_scheduler=use_scheduler)
    lowered = Simulator(ADDER_QUBITS, seed=3, use_scheduler=use_scheduler)
    for sim in (gated, lowered):
        sim.apply_all(prep)
    slots_before = dict(lowered.slots)
    flushes_before = lowered.stats.flush_count
    if fast:
        def no_gate_path(ops):
            raise AssertionError("the fast path must not dispatch gate by gate")

        lowered.apply_all = no_gate_path
    gated.apply_all(cdkm_add(*ADDER))
    lowered.apply_lowered(block)
    assert lowered.queue.records == gated.queue.records
    assert lowered.stats == gated.stats
    assert lowered.slots == gated.slots
    if fast:
        assert lowered.stats.flush_count == flushes_before
        assert lowered.slots == slots_before
    elif use_scheduler:
        assert lowered.stats.flush_count > flushes_before
    assert lowered.dump() == gated.dump()
    assert lowered.stats == gated.stats


def test_apply_lowered_rejects_a_block_wider_than_the_state():
    block = lower(cdkm_add(*ADDER), ADDER_QUBITS)
    with pytest.raises(ValueError, match="beyond"):
        Simulator(ADDER_QUBITS - 2).apply_lowered(block)


@pytest.mark.parametrize("qubits", [(7,), (0, 0), ()], ids=["out_of_range", "duplicate", "empty"])
def test_direct_measure_checks_its_qubits(qubits):
    # As apply(mz ...) does.  Z0*Z0 is the identity, so (0, 0) would collapse qubit 0 for nothing;
    # () and (7,) would record a 0.
    sim = Simulator(3)
    sim.apply(ops.h(0))
    sim.apply(ops.h(1))
    assert sim.measure((2,)) == 0
    with pytest.raises(ValueError):
        sim.measure(qubits)
    assert sim.measurements == [0]
    assert sim.stats.measurement_count == 1
    assert len(sim.dump()) == 4


def test_apply_checks_each_gate_once(monkeypatch):
    # An uncontrolled mz is checked by measure alone; a controlled one still fails the check in apply.
    from sparsesim import simulator

    calls = []
    original = simulator.validate_op
    monkeypatch.setattr(simulator, "validate_op", lambda op, n: calls.append(op) or original(op, n))
    sim = Simulator(2)
    sim.apply(ops.h(0))
    sim.apply(ops.mz(0))
    assert [op.kind for op in calls] == ["h", "mz"]
    with pytest.raises(ValueError, match="measurements cannot be controlled"):
        sim.apply(GateOp("mz", (0,), (1,)))
    assert len(sim.measurements) == 1 and sim.stats.gate_count == 2


@pytest.mark.parametrize(
    "op,message",
    [
        (GateOp("frobnicate", (0,)), "unknown gate kind 'frobnicate'"),
        (GateOp("swap", (0,)), "swap takes exactly two targets"),
        (GateOp("pexp", (0,), (), 0.5), "empty Pauli string"),
        (GateOp("pexp", (0, 1), (), 0.5, ("X",)), "Pauli axis count must match target count"),
        (GateOp("h", (0, 1)), "h takes exactly one target"),
    ],
    ids=["unknown_kind", "one_target_swap", "pexp_no_axes", "axis_count_mismatch", "two_target_h"],
)
@pytest.mark.parametrize("use_scheduler", [True, False], ids=["queue", "no_queue"])
def test_apply_rejects_malformed_ops(op, message, use_scheduler):
    # Hand-built ops skip the parser, so apply's own check is all that stands between them and the state.
    sim = Simulator(2, use_scheduler=use_scheduler)
    with pytest.raises(ValueError, match=message):
        sim.apply(op)
    assert sim.stats.gate_count == 0
    assert sim.dump() == [(0, 1 + 0j)]


# Three-qubit programs: which measurements apply a pending H inside the measurement, and the
# (max_state_size, flush_count) with the scheduler on and off.  Every figure is the one from
# before the fusion: the doubled map is counted, not stored, and the fused flush still counts.
FUSION_CASES = {
    "h-only": ([ops.x(2), ops.h(0), ops.h(1), ops.cx(1, 2), ops.h(1), ops.mz(0), ops.mz(1)], [True, True], (4, 3), 8),
    "h-rx": ([ops.h(0), ops.cx(0, 1), ops.h(0), ops.rx(0.3, 0), ops.mz(0), ops.mz(1)], [False, False], (4, 2), 4),
    "h-ry": ([ops.h(0), ops.cx(0, 1), ops.h(0), ops.ry(0.4, 0), ops.mz(0), ops.mz(1)], [False, False], (4, 2), 4),
    "joint": ([ops.h(0), ops.h(1), ops.cx(1, 2), ops.h(1), ops.mz(0, 1), ops.mz(2)], [False, False], (8, 2), 8),
}


@pytest.mark.parametrize("seed", [0, 1, 4])  # records [1, 1], [0, 1] and [0, 0]
@pytest.mark.parametrize("name", FUSION_CASES)
def test_measure_applies_only_a_lone_pending_h(monkeypatch, name, seed):
    prog, fused, stats_on, peak_off = FUSION_CASES[name]
    calls = []
    original = SparseState.measure

    def spy(self, qubits, rng, block=None):
        calls.append(block is not None)
        return original(self, qubits, rng, block)

    monkeypatch.setattr(SparseState, "measure", spy)
    on, off = Simulator(3, seed=seed), Simulator(3, seed=seed, use_scheduler=False)
    on.apply_all(prog)
    assert calls == fused
    calls.clear()
    off.apply_all(prog)
    assert calls == [False] * len(fused)
    assert on.measurements == off.measurements
    d_on, d_off = dict(on.dump()), dict(off.dump())
    assert set(d_on) == set(d_off)
    for b in d_on:
        assert d_on[b] == pytest.approx(d_off[b], abs=1e-12)
    assert (on.stats.max_state_size, on.stats.flush_count) == stats_on
    assert (off.stats.max_state_size, off.stats.flush_count) == (peak_off, 0)
