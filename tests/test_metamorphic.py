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
from progutil import random_program

N_PROGRAMS = 100
CORPUS_SEED_BASE = 20_000  # the first programs of the acceptance corpus


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
    # original run exactly, under any thread budget and split.  Thresholds far
    # below the fixed ones make the 2-thread runs split.
    monkeypatch.setattr(permqueue, "execute", functools.partial(permqueue.execute, par_min_queue=4, par_min_states=100))
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
