"""Metamorphic properties that need no dense oracle, so they reach any width."""

import functools
import random
import sys
from pathlib import Path

from sparsesim import permqueue
from sparsesim.ir import Conditional, GateOp, Program
from sparsesim.simulator import run_program
from sparsesim.state import MAX_QUBITS

sys.path.insert(0, str(Path(__file__).parent))
from progutil import random_gate, random_program

N_PROGRAMS = 100
CORPUS_SEED_BASE = 20_000  # the first programs of the acceptance corpus


def _low_thresholds(monkeypatch):
    # Thresholds far below the fixed ones, so that runs with a thread budget above 1 split.
    monkeypatch.setattr(permqueue, "execute", functools.partial(permqueue.execute, par_min_queue=4, par_min_states=100))


def _max_gap(dump_a, dump_b):
    a, b = dict(dump_a), dict(dump_b)
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()), default=0.0)


def _relabel_op(op, pos):
    if isinstance(op, Conditional):
        return Conditional(op.meas_index, op.value, _relabel_op(op.op, pos))
    return GateOp(op.kind, tuple(pos[q] for q in op.targets), tuple(pos[q] for q in op.controls), op.angle, op.axes)


def _label_back(label, pos):
    out = 0
    for q, p in enumerate(pos):
        if label >> p & 1:
            out |= 1 << q
    return out


def test_wide_relabelling_maps_back_exactly(monkeypatch):
    # Qubit q of a program moves to pos[q], increasing in q, with the top one
    # at 64 or above, so the labels need more than one 64-bit word.  Every
    # evaluator acts on bits alone, so the relabelled run must map back to the
    # original run exactly, under any thread budget and split.
    _low_thresholds(monkeypatch)
    split_passes = 0
    wide_peaks = 0
    for i in range(N_PROGRAMS):
        seed = CORPUS_SEED_BASE + i
        prog = random_program(seed, max_qubits=12, max_gates=200)
        rng = random.Random(seed)
        pos = sorted(rng.sample(range(MAX_QUBITS), prog.num_qubits))
        if pos[-1] < 64:
            pos[-1] = rng.randrange(64, MAX_QUBITS)
        wide = Program(MAX_QUBITS, [_relabel_op(op, pos) for op in prog.ops])

        base = run_program(prog, seed=seed)
        for threads in (1, 2):
            got = run_program(wide, seed=seed, threads=threads)
            assert got.measurements == base.measurements, (seed, threads)
            assert [(_label_back(b, pos), a) for b, a in got.dump] == base.dump, (seed, threads)
            split_passes += got.sim_stats.parallel_executions
            wide_peaks += got.sim_stats.max_state_size >= 64
    # The corpus reaches the bit-sliced path and its split at these widths.
    assert split_passes > 0 and wide_peaks > 0


_INVERSE_KIND = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


def _inverse(op):
    """U^dagger: s/t become sdg/tdg, an angle gate takes -angle, the rest are self-inverse."""
    angle = None if op.angle is None else -op.angle
    return GateOp(_INVERSE_KIND.get(op.kind, op.kind), op.targets, op.controls, angle, op.axes)


def test_inserted_inverse_pairs_change_nothing():
    for i in range(N_PROGRAMS):
        seed = CORPUS_SEED_BASE + i
        prog = random_program(seed, max_qubits=12, max_gates=200)
        rng = random.Random(-seed)
        padded = []
        for op in prog.ops:
            padded.append(op)
            while rng.random() < 0.3:
                u = random_gate(rng, prog.num_qubits)
                if u.kind != "mz":
                    padded += [u, _inverse(u)]
        assert len(padded) > len(prog.ops)
        base = run_program(prog, seed=seed)
        for scheduler in (True, False):
            got = run_program(Program(prog.num_qubits, padded), seed=seed, scheduler_enabled=scheduler)
            assert got.measurements == base.measurements, (seed, scheduler)
            assert _max_gap(got.dump, base.dump) <= 1e-10, (seed, scheduler)


def test_scheduler_and_thread_budgets_agree(monkeypatch):
    # Threads only split a queue pass into disjoint slices, so each budget gives
    # the same dump bit for bit; the scheduler reorders, so it agrees to 1e-10.
    _low_thresholds(monkeypatch)
    split_passes = {2: 0, 8: 0}
    for i in range(N_PROGRAMS):
        seed = CORPUS_SEED_BASE + i
        prog = random_program(seed, max_qubits=12, max_gates=200)
        base = {s: run_program(prog, seed=seed, scheduler_enabled=s) for s in (True, False)}
        assert base[True].measurements == base[False].measurements, seed
        assert _max_gap(base[True].dump, base[False].dump) <= 1e-10, seed
        for scheduler in (True, False):
            for threads in (2, 8):
                got = run_program(prog, seed=seed, threads=threads, scheduler_enabled=scheduler)
                assert got.measurements == base[scheduler].measurements, (seed, scheduler, threads)
                assert got.dump == base[scheduler].dump, (seed, scheduler, threads)
                split_passes[threads] += got.sim_stats.parallel_executions
    assert min(split_passes.values()) > 0
