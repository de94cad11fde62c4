import cmath
import concurrent.futures
import functools
import math
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sparsesim import permqueue
from sparsesim.arithmetic import cdkm_add
from sparsesim.permqueue import (
    PhasePermQueue,
    bitswap_record,
    execute,
    flip_record,
    pauli_y_record,
    phase_record,
    zparity_record,
)
from sparsesim.scheduler import lower
from sparsesim.simulator import SimStats, Simulator
from sparsesim.state import SparseState
from sparsesim import ops

sys.path.insert(0, str(Path(__file__).parent))
from scalar_ref import eval_items


def make_state(n, entries):
    return SparseState(n, {b: complex(a) for b, a in entries.items()})


def test_enqueue_preserves_order_and_state():
    q = PhasePermQueue()
    q.records.append(phase_record(-1 + 0j, 0b100))  # Z on q2
    q.records.append(flip_record(0b1000, 0b001))  # CNOT q0 -> q3
    assert len(q.records) == 2
    assert q.records == [phase_record(-1 + 0j, 0b100), flip_record(0b1000, 0b001)]


def test_enqueue_empty_and_many():
    q = PhasePermQueue()
    q.records.append(flip_record(1))
    assert len(q.records) == 1
    for _ in range(64):
        q.records.append(flip_record(1))
    assert len(q.records) == 65


def chain(records, label):
    """(phase, label) that executing ``records`` gives one basis label of amplitude 1."""
    q = PhasePermQueue()
    for r in records:
        q.records.append(r)
    [(out_label, phase)] = execute(q, make_state(4, {label: 1})).dump()
    return phase, out_label


def test_queue_order_matters():
    # X then Z on qubit 0: Z sees the flipped bit -> phase -1 on label 0.
    phase, label = chain([flip_record(1), phase_record(-1 + 0j, 1)], 0)
    assert (phase, label) == (-1 + 0j, 1)

    phase, label = chain([phase_record(-1 + 0j, 1), flip_record(1)], 0)
    assert (phase, label) == (1 + 0j, 1)


def test_empty_queue_is_identity():
    assert chain([], 0b1011) == (1 + 0j, 0b1011)


def test_execute_cnot():
    q = PhasePermQueue()
    q.records.append(flip_record(0b10, 0b01))  # q0 controls a flip of q1
    state = make_state(2, {0b01: 1})
    out = execute(q, state)
    assert out.dump() == [(0b11, 1 + 0j)]
    assert len(q.records) == 0  # queue cleared


def test_execute_z_rotation_phases():
    q = PhasePermQueue()
    half = math.pi / 4
    pe = complex(math.cos(half), -math.sin(half))
    q.records.append(zparity_record(0b1, pe, pe.conjugate()))
    state = make_state(1, {0: 0.6, 1: 0.8})
    out = execute(q, state)
    d = dict(out.dump())
    assert d[0] == pytest.approx(0.6 * cmath.exp(-1j * math.pi / 4))
    assert d[1] == pytest.approx(0.8 * cmath.exp(1j * math.pi / 4))


def test_pauli_y_record_phases():
    assert chain([pauli_y_record(0)], 0) == (1j, 1)
    assert chain([pauli_y_record(0)], 1) == (-1j, 0)
    assert chain([pauli_y_record(0)] * 2, 1) == (1 + 0j, 1)  # Y * Y = I


def test_bitswap_record():
    assert chain([bitswap_record(0, 2)], 0b001) == (1 + 0j, 0b100)
    assert chain([bitswap_record(0, 2)], 0b101) == (1 + 0j, 0b101)


def random_records(rng, n, count):
    recs = []
    for _ in range(count):
        roll = rng.randrange(5)
        ctrl = 0
        if rng.random() < 0.4:
            ctrl = 1 << rng.randrange(n)
        if roll == 0:
            mask = 1 << rng.randrange(n)
            if mask != ctrl:
                recs.append(flip_record(mask, ctrl))
        elif roll == 1:
            recs.append(phase_record(cmath.exp(1j * rng.uniform(-3, 3)), ctrl))
        elif roll == 2:
            half = rng.uniform(-3, 3)
            pe = complex(math.cos(half), -math.sin(half))
            recs.append(zparity_record(1 << rng.randrange(n), pe, pe.conjugate(), ctrl))
        elif roll == 3:
            mask = 1 << rng.randrange(n)
            if mask != ctrl:
                recs.append(pauli_y_record(mask.bit_length() - 1, ctrl))
        else:
            i, j = rng.sample(range(n), 2)
            if ctrl not in (1 << i, 1 << j):
                recs.append(bitswap_record(i, j, ctrl))
    return recs


def random_state(rng, n, size):
    return normalized_state(rng, n, rng.sample(range(1 << n), size))


def normalized_state(rng, n, labels):
    raw = {b: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for b in labels}
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    return SparseState(n, {b: a / norm for b, a in raw.items()})


def test_fusion_equivalence_queue_vs_one_by_one():
    rng = random.Random(23)
    n = 6
    state = random_state(rng, n, 30)
    recs = random_records(rng, n, 120)

    q = PhasePermQueue()
    for r in recs:
        q.records.append(r)
    fused = execute(q, state)

    single = state
    for r in recs:
        q1 = PhasePermQueue()
        q1.records.append(r)
        single = execute(q1, single)

    fd, sd = dict(fused.dump()), dict(single.dump())
    assert set(fd) == set(sd)
    for b in fd:
        assert fd[b] == pytest.approx(sd[b], abs=1e-12)


def test_state_size_invariant_under_execute():
    rng = random.Random(31)
    state = random_state(rng, 8, 100)
    q = PhasePermQueue()
    for r in random_records(rng, 8, 200):
        q.records.append(r)
    out = execute(q, state)
    assert len(out) == len(state)


def test_thread_count_independence_large_state():
    rng = random.Random(42)
    n = 16
    state = random_state(rng, n, 10_000)
    recs = random_records(rng, n, 100)
    dumps = []
    for workers in (1, 2, 4, 8):
        q = PhasePermQueue()
        for r in recs:
            q.records.append(r)
        out = execute(q, state, thread_budget=workers)
        dumps.append(out.dump())
    for d in dumps[1:]:
        assert d == dumps[0]


@pytest.mark.parametrize(
    "n,label_bits,size,count,planes",
    [
        (10, 10, 200, 50, True),
        (10, 10, 63, 50, False),
        (10, 10, 64, 50, True),
        (62, 62, 64, 50, True),
        (63, 63, 64, 50, True),
        (65, 65, 64, 50, True),
        (100, 100, 150, 120, True),
        (128, 128, 200, 200, True),
        (128, 40, 100, 120, True),
        (10, 10, 64, 1, True),
        (10, 10, 63, 1, False),
    ],
    ids=[
        "10q-200", "10q-63", "10q-64", "62q-64", "63q-64", "65q-64", "100q-150", "128q-200",
        "128q-above-40b-100", "one-record-10q-64", "one-record-10q-63",
    ],
)
def test_vector_and_fallback_paths_agree(monkeypatch, n, label_bits, size, count, planes):
    # execute against the scalar reference on each side of the plane builders'
    # boundary: maps of at least 64 entries hold their labels as numpy columns.
    rng = random.Random(7)
    labels = set()
    while len(labels) < size:
        labels.add(rng.getrandbits(label_bits))
    state = normalized_state(rng, n, sorted(labels))
    recs = random_records(rng, n, 4 * count)[:count]
    assert len(recs) == count

    plane_calls = []
    eval_planes = permqueue._eval_planes
    monkeypatch.setattr(permqueue, "_eval_planes", lambda *a: plane_calls.append(1) or eval_planes(*a))
    q = PhasePermQueue()
    for r in recs:
        q.records.append(r)
    got = execute(q, state).amps
    want = eval_items(recs, list(state.amps.items()))

    assert bool(plane_calls) is planes
    assert list(got) == [b for b, _ in want]
    if not planes:
        assert list(got.values()) == [amp for _, amp in want]
    for b, amp in want:
        assert got[b] == pytest.approx(amp, abs=1e-15)


_WIDTHS = (10, 62, 63, 65, 128)


@st.composite
def _record(draw, width):
    qubit = st.integers(0, width - 1)
    kind = draw(st.sampled_from(("phase", permqueue.FLIP, permqueue.ZPARITY, permqueue.PAULIY, permqueue.BITSWAP)))
    if kind == permqueue.BITSWAP:
        targets = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
    elif kind == permqueue.FLIP:
        targets = draw(st.lists(qubit, min_size=1, max_size=4, unique=True))
    elif kind == permqueue.ZPARITY:
        # An empty mask is the form of every phase record: its phase_odd must never apply.
        targets = draw(st.lists(qubit, max_size=4, unique=True))
    else:
        targets = [draw(qubit)]
    ctrl = 0
    for q in draw(st.lists(qubit, max_size=3, unique=True)):
        if q not in targets:
            ctrl |= 1 << q
    mask = sum(1 << q for q in targets)
    phase = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    if kind == permqueue.FLIP:
        return flip_record(mask, ctrl)
    if kind == "phase":
        return phase_record(phase, ctrl | mask)
    if kind == permqueue.ZPARITY:
        return zparity_record(mask, phase, cmath.exp(1j * draw(st.floats(-math.pi, math.pi))), ctrl)
    if kind == permqueue.PAULIY:
        return pauli_y_record(targets[0], ctrl)
    return bitswap_record(targets[0], targets[1], ctrl)


@st.composite
def _queue_and_state(draw):
    width = draw(st.sampled_from(_WIDTHS))
    size = draw(st.one_of(st.sampled_from((63, 64)), st.integers(1, 200)))
    labels = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=size, max_size=size, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    records = draw(st.lists(_record(width), min_size=1, max_size=40))
    return records, normalized_state(rng, width, labels)


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_queue_and_state())
def test_execute_matches_scalar_reference(case):
    # Every record kind, with controls and multi-bit masks, on both plane
    # builders: labels and their order exactly; amplitudes exactly on the
    # pure-Python builder, to 1e-15 on the numpy one.
    records, state = case
    q = PhasePermQueue()
    q.records.extend(records)
    got = execute(q, state).amps
    want = eval_items(records, list(state.amps.items()))
    assert list(got) == [b for b, _ in want]
    if len(want) < 64:
        assert list(got.values()) == [amp for _, amp in want]
    else:
        for b, amp in want:
            assert got[b] == pytest.approx(amp, abs=1e-15)


@pytest.mark.parametrize(
    "queue_len,n_states,threads,expect_parallel",
    [
        (65, 4097, 4, True),
        (64, 4097, 4, False),
        (65, 4096, 4, False),
        (65, 4097, 1, False),
    ],
)
def test_parallel_gating_thresholds(queue_len, n_states, threads, expect_parallel):
    rng = random.Random(queue_len * n_states)
    n = 14
    state = random_state(rng, n, n_states)
    q = PhasePermQueue()
    for _ in range(queue_len):
        q.records.append(flip_record(1 << rng.randrange(n)))
    stats = SimStats()
    execute(q, state, thread_budget=threads, stats=stats)
    assert (stats.parallel_executions == 1) is expect_parallel


def test_split_workers_capped_at_cpu_count(monkeypatch):
    # A budget far above the CPU count splits into one chunk per CPU; the fake
    # pool maps serially, so no thread is started.
    rng = random.Random(5)
    n = 14
    state = random_state(rng, n, 4097)
    recs = random_records(rng, n, 200)[:65]
    assert len(recs) == 65

    def run(budget):
        q = PhasePermQueue()
        q.records.extend(recs)
        stats = SimStats()
        return execute(q, state, thread_budget=budget, stats=stats).dump(), stats.parallel_executions

    serial, _ = run(1)
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.chunks = None
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            self.chunks = len(chunks)
            return map(fn, chunks)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    capped, parallel = run(10_000)
    assert parallel == 1
    assert [(p.max_workers, p.chunks) for p in pools] == [(2, 2)]
    assert capped == serial


_PREFIX_ROW = 4  # qubits 32 .. 39


def _phase_records(rng, qubits, count):
    recs = []
    for _ in range(count):
        a, b, c = rng.sample(qubits, 3)
        pe = cmath.exp(1j * rng.uniform(-3, 3))
        recs.append(zparity_record((1 << a) | (1 << b), pe, pe.conjugate(), 1 << c))
        recs.append(phase_record(cmath.exp(1j * rng.uniform(-3, 3)), (1 << a) | (1 << c)))
    return recs


def _large_map_queue(rng, n, shape):
    row = range(8 * _PREFIX_ROW, 8 * _PREFIX_ROW + 8)
    other = [q for q in range(n) if q not in row]
    if shape == "phase-only":
        return _phase_records(rng, list(range(n)), 10)
    # A phase prefix on one byte row that no later record touches.
    recs = _phase_records(rng, list(row), 5)
    if shape == "prefix-flips":
        for _ in range(20):
            t, c = rng.sample(other, 2)
            recs.append(flip_record(1 << t, 1 << c))
    else:  # prefix, then BITSWAPs across the 64-bit word boundary
        recs.append(bitswap_record(rng.randrange(32), rng.randrange(64, n)))
        recs.append(bitswap_record(rng.randrange(32), rng.randrange(64, n), 1 << rng.randrange(32)))
    return recs


@pytest.mark.parametrize("shape", ["prefix-flips", "phase-only", "prefix-bitswap"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("label_bits", [40, 100])
@pytest.mark.parametrize("size", [100, 5000])
def test_large_map_phase_prefix_matches_scalar_reference(size, label_bits, threads, shape):
    rng = random.Random(size * label_bits + threads)
    n = 100
    labels = set()
    while len(labels) < size:
        labels.add(rng.getrandbits(label_bits))
    state = normalized_state(rng, n, sorted(labels))
    recs = _large_map_queue(rng, n, shape)
    q = PhasePermQueue()
    q.records.extend(recs)
    stats = SimStats()
    got = execute(q, state, thread_budget=threads, par_min_queue=0, par_min_states=0, stats=stats).amps
    want = eval_items(recs, list(state.amps.items()))
    assert stats.parallel_executions == (threads > 1)
    assert list(got) == [b for b, _ in want]
    for b, amp in want:
        assert got[b] == pytest.approx(amp, abs=1e-15)


def test_queue_records_are_plain_six_tuples():
    # The record loop unpacks each record; CPython's fast unpacking takes exact tuples only.
    sim = Simulator(12)
    sim.apply_all([ops.h(0), ops.cx(1, 0)])  # H then X: a CZ record
    sim.apply_all([ops.h(2), ops.y(2)])  # H then Y: a Y record and a minus phase
    sim.apply(ops.ccx(3, 4, 5))
    block = lower(cdkm_add((6, 7), (8, 9), 10), 12)
    sim.apply_lowered(block)
    records = sim.queue.records
    assert len(records) == 4 + len(block.records)
    assert {r[0] for r in records} == {permqueue.FLIP, permqueue.ZPARITY, permqueue.PAULIY}
    assert all(type(r) is tuple and len(r) == 6 for r in records)


def test_wide_labels_use_python_fallback():
    # 70-bit labels; the two-entry map takes the pure-Python plane builder at any width.
    sim = Simulator(70, seed=1)
    sim.apply(ops.h(0))
    for q in range(1, 70):
        sim.apply(ops.cx(q - 1, q))
    d = sim.dump()
    assert [lbl for lbl, _ in d] == [0, (1 << 70) - 1]
    for _, amp in d:
        assert abs(amp) == pytest.approx(math.sqrt(0.5))


def test_parallel_execution_matches_serial_in_simulator(monkeypatch):
    # Same program through full simulators with different thread budgets;
    # thresholds far below the fixed ones make the 8-thread run split.
    monkeypatch.setattr(permqueue, "execute", functools.partial(permqueue.execute, par_min_queue=10, par_min_states=100))

    def build(threads):
        sim = Simulator(13, seed=9, threads=threads)
        for q in range(13):
            sim.apply(ops.h(q))
        rng = random.Random(3)
        for _ in range(40):
            c, t = rng.sample(range(13), 2)
            sim.apply(ops.cx(c, t))
        return sim.dump(), sim.stats.parallel_executions

    serial, _ = build(1)
    parallel, splits = build(8)
    assert parallel == serial
    assert splits > 0
