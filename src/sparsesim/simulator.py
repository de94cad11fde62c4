"""Simulator facade tying together state, queue, scheduler, and statistics."""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field

from . import permqueue, scheduler
from .ir import Conditional, GateOp, Program, qubit_mask, validate_op
from .permqueue import PhasePermQueue
from .state import SparseState, h_block, new_wavefunction


@dataclass
class SimStats:
    """Instrumentation counters accumulated over a run."""

    gate_count: int = 0
    flush_count: int = 0
    gates_absorbed: int = 0
    gates_enqueued: int = 0
    queue_executions: int = 0
    parallel_executions: int = 0
    measurement_count: int = 0
    max_state_size: int = 1


@dataclass
class RunStats:
    """Table-style run report; serialized with a stable key order."""

    qubits: int
    max_state_size: int
    gate_count: int
    flush_count: int
    wall_time_ms: int
    threads: int
    seed: int
    success: bool

    @classmethod
    def of(cls, sim: "Simulator", start: float, success: bool) -> "RunStats":
        """Report for ``sim`` after a run that began at ``start`` (a perf_counter reading)."""
        st = sim.stats
        return cls(
            qubits=sim.num_qubits, max_state_size=st.max_state_size, gate_count=st.gate_count, flush_count=st.flush_count,
            wall_time_ms=int((time.perf_counter() - start) * 1000), threads=sim.threads, seed=sim.seed, success=success,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self))


class Simulator:
    """Owns one sparse wavefunction and schedules gates onto it.

    Operations take exclusive access and complete before the next begins;
    the only internal parallelism is the partitioned queue execution.
    """

    def __init__(
        self,
        num_qubits: int,
        *,
        seed: int = 0,
        threads: int = 1,
        use_scheduler: bool = True,
    ):
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        self.state = new_wavefunction(num_qubits)
        self.num_qubits = num_qubits
        self.queue = PhasePermQueue()
        self.slots: dict[int, scheduler.QubitSlots] = {}
        self.rng = random.Random(seed)
        self.seed = seed
        self.threads = threads
        self.use_scheduler = use_scheduler
        self.stats = SimStats()
        self.measurements: list[int] = []

    def apply(self, op: GateOp) -> None:
        """Check, run and count one gate; an uncontrolled ``mz`` goes to ``measure``, which does its own check."""
        if op.kind == "mz" and not op.controls:
            self.measure(op.targets)
        else:
            validate_op(op, self.num_qubits)
            if self.use_scheduler:
                scheduler.dispatch(self, op)
            else:
                self._apply_direct(op)
        self.stats.gate_count += 1

    def apply_all(self, ops) -> None:
        for op in ops:
            self.apply(op)

    def apply_lowered(self, block: scheduler.Lowered) -> None:
        """Apply a block from ``scheduler.lower``: one queue ``extend`` when no slot is pending on its qubits."""
        if block.mask >> self.num_qubits:
            raise ValueError(f"block touches qubits beyond the {self.num_qubits}-qubit state")
        if self.use_scheduler and not qubit_mask(self.slots) & block.mask:
            self.stats.gate_count += len(block.records)
            self.queue.records.extend(block.records)
        else:
            self.apply_all(block.ops)

    def measure(self, qubits) -> int:
        """Check the qubits as ``mz`` would, flush what they need, then project their joint Z product; record the outcome.

        A lone qubit whose slot holds only an H keeps it out of the flush: the
        measurement applies it, and the map it would double is counted, not stored.
        """
        qubits = tuple(qubits)
        validate_op(GateOp("mz", qubits), self.num_qubits)
        block = None
        if len(qubits) == 1 and (sl := self.slots.get(qubits[0])) and not (sl.rx or sl.ry):
            sl.h = 0  # flush_qubits still pops the emptied slot and counts one flush
            block = h_block(qubits[0])
        scheduler.flush_qubits(self, qubits)
        outcome, new_state = self.state.measure(qubits, self.rng, block)
        self._set_state(new_state, outcome.size)
        self.measurements.append(outcome.result)
        self.stats.measurement_count += 1
        return outcome.result

    def flush(self) -> None:
        """Force every queued gate and pending slot into the state."""
        scheduler.flush_qubits(self, list(self.slots))

    def dump(self) -> list[tuple[int, complex]]:
        self.flush()
        return self.state.dump()

    # -- internals used by the scheduler ---------------------------------

    def _set_state(self, state: SparseState, size: int = 0) -> None:
        """Store ``state``; the peak takes the larger of its length and ``size``, a map the step counted."""
        self.state = state
        self.stats.max_state_size = max(self.stats.max_state_size, size, len(state))

    def _apply_direct(self, op: GateOp) -> None:
        """Apply one gate immediately, bypassing slots and the queue."""
        if scheduler.is_pairwise(op):
            self._set_state(self.state.apply_block(scheduler.pairwise_block(op), qubit_mask(op.controls)))
            return
        # One-record queue: the same evaluator as a scheduled flush, without its counters.
        queue = PhasePermQueue()
        queue.records.append(scheduler.phase_perm_record(op))
        self._set_state(permqueue.execute(queue, self.state))


@dataclass
class RunResult:
    dump: list[tuple[int, complex]]
    measurements: list[int]
    stats: RunStats
    sim_stats: SimStats = field(repr=False)


def run_program(
    program: Program,
    seed: int = 0,
    threads: int = 1,
    scheduler_enabled: bool = True,
) -> RunResult:
    """Run a parsed program and report the final dump, outcomes, and stats."""
    start = time.perf_counter()
    sim = Simulator(
        program.num_qubits,
        seed=seed,
        threads=threads,
        use_scheduler=scheduler_enabled,
    )
    for entry in program.ops:
        if isinstance(entry, Conditional):
            if sim.measurements[entry.meas_index] == entry.value:
                sim.apply(entry.op)
        else:
            sim.apply(entry)
    final = sim.dump()
    return RunResult(final, sim.measurements, RunStats.of(sim, start, True), sim.stats)
