"""Commutation frontend: per-qubit H/Rx/Ry slots feeding the permutation queue.

Each qubit carries a pending Ry angle, a pending Rx angle (plain floats,
0.0 for none) and an H parity bit.  The pending operator is Ry * Rx * H,
applied after the phase/permutation queue; a flush therefore executes the
queue first, then H, then Rx, then Ry per qubit.  Incoming gates are
rewritten through the slots toward the queue using a fixed table of
commutation relations; anything without a table entry forces a flush of the
touched qubits and is dispatched again into the empty structures.  Deferring
the pairwise gates this way keeps the stored map small, since only they can
grow it.

``sim.slots`` holds a qubit's ``QubitSlots`` only while it has a pending
H, Rx or Ry: a flush pops the slot and a merge that cancels (H*H,
Rx(a)*Rx(-a), Ry(a)*Ry(-a)) deletes it, so ``q in sim.slots`` is the
pending test and lookups never create slots.  ``flush_qubits`` is the one
place that executes the queue; it adds the records it executes to
``gates_enqueued``.

``lower`` validates a fixed sequence of non-pairwise gates once and builds
its records.  ``Simulator.apply_lowered`` appends them with one ``extend``
when the scheduler is on and no slot is pending on the block's ``mask``:
then ``dispatch`` would enqueue exactly ``phase_perm_record(op)`` per gate,
with no flush or merge.  Otherwise the block goes through ``apply_all``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import permqueue
from .ir import GateOp, pauli_masks, qubit_mask, validate_op
from .state import PairwiseBlock, h_block, pauli_exp_block, rx_block, ry_block

_MINUS_ONE = complex(-1.0, 0.0)
# Fixed single-qubit phases, applied when the target bit (and every control) is 1.
_PHASES = {
    "z": _MINUS_ONE,
    "s": 1j,
    "sdg": -1j,
    "t": cmath.exp(0.25j * math.pi),
    "tdg": cmath.exp(-0.25j * math.pi),
}


@dataclass
class QubitSlots:
    ry: float = 0.0
    rx: float = 0.0
    h: int = 0


def is_pairwise(op: GateOp) -> bool:
    """True when ``op`` couples two labels per row: H, Rx, Ry, or a Pauli exponential with X/Y support."""
    return op.kind in ("h", "rx", "ry") or (op.kind == "pexp" and any(ax != "Z" for ax in op.axes))


def pairwise_block(op: GateOp) -> PairwiseBlock:
    """The pairwise block of a gate for which ``is_pairwise`` holds; controls are applied by the caller."""
    kind = op.kind
    if kind == "h":
        return h_block(op.targets[0])
    if kind == "rx":
        return rx_block(op.targets[0], op.angle)
    if kind == "ry":
        return ry_block(op.targets[0], op.angle)
    return pauli_exp_block(*pauli_masks(op.targets, op.axes), op.angle)


def phase_perm_record(op: GateOp) -> tuple:
    """The queue record of a gate for which ``is_pairwise`` does not hold."""
    kind = op.kind
    ctrl = qubit_mask(op.controls)
    if kind == "x":
        return permqueue.flip_record(1 << op.targets[0], ctrl)
    if kind == "y":
        return permqueue.pauli_y_record(op.targets[0], ctrl)
    if kind in _PHASES:
        return permqueue.phase_record(_PHASES[kind], ctrl | (1 << op.targets[0]))
    if kind == "r1":
        return permqueue.phase_record(cmath.exp(1j * op.angle), ctrl | (1 << op.targets[0]))
    if kind == "swap":
        return permqueue.bitswap_record(op.targets[0], op.targets[1], ctrl)
    # rz and Z-only pexp: exp(-i*angle/2 * Z...Z) over the targets.
    half = 0.5 * op.angle
    pe = complex(math.cos(half), -math.sin(half))
    return permqueue.zparity_record(qubit_mask(op.targets), pe, pe.conjugate(), ctrl)


class Lowered(NamedTuple):
    """A validated gate sequence with its queue records and the mask of every qubit it touches."""

    ops: tuple[GateOp, ...]
    records: tuple[tuple, ...]
    mask: int


def lower(ops, num_qubits: int) -> Lowered:
    """Validate ``ops`` once and lower them to queue records; pairwise gates and ``mz`` have none."""
    ops = tuple(ops)
    mask = 0
    for op in ops:
        validate_op(op, num_qubits)
        if op.kind == "mz" or is_pairwise(op):
            raise ValueError(f"{op.kind} has no queue record")
        mask |= qubit_mask(op.targets + op.controls)
    return Lowered(ops, tuple(phase_perm_record(op) for op in ops), mask)


def flush_qubits(sim, qubits) -> None:
    """Execute the whole queue, then the pending slots of ``qubits`` only.

    Slots on untouched qubits stay pending; their support is disjoint so
    they commute with anything acting on the flushed qubits.
    """
    slots = sim.slots
    pending = sorted({q for q in qubits if q in slots})
    records = sim.queue.records
    if not pending and not records:
        return
    sim.stats.flush_count += 1
    if records:
        sim.stats.gates_enqueued += len(records)
        sim._set_state(permqueue.execute(sim.queue, sim.state, sim.threads, stats=sim.stats))
    for q in pending:
        sl = slots.pop(q)
        if sl.h:
            sim._set_state(sim.state.apply_block(h_block(q)))
        if sl.rx:
            sim._set_state(sim.state.apply_block(rx_block(q, sl.rx)))
        if sl.ry:
            sim._set_state(sim.state.apply_block(ry_block(q, sl.ry)))


def _merge_slot_gate(sim, op: GateOp) -> None:
    """Merge an uncontrolled H, Rx or Ry into the slot of its qubit, which holds the pending Ry * Rx * H."""
    q = op.targets[0]
    kind = op.kind
    sl = sim.slots.get(q)
    # Rx cannot pass a pending Ry, nor H a pending Rx: flush the slot once, and the gate starts a new one.
    if sl is not None and ((kind == "rx" and sl.ry) or (kind == "h" and sl.rx)):
        flush_qubits(sim, [q])
        sl = None
    if sl is None:
        sl = sim.slots[q] = QubitSlots()
    if kind == "ry":
        sl.ry += op.angle
    elif kind == "rx":
        sl.rx += op.angle
    else:  # h
        if sl.ry:  # H * Ry(a) = Ry(-a) * H; a bare H keeps the shared 0.0 rather than a new -0.0
            sl.ry = -sl.ry
        sl.h ^= 1  # H * H = I
    if not (sl.ry or sl.rx or sl.h):
        del sim.slots[q]
    sim.stats.gates_absorbed += 1


def _commute_pauli(sim, op: GateOp) -> None:
    # Uncontrolled X/Y/Z pushed through Ry, then Rx, then H on its qubit.
    kind = op.kind
    q = op.targets[0]
    sl = sim.slots.get(q)
    minus = False
    if sl is not None:
        if sl.ry and kind in ("x", "z"):
            sl.ry = -sl.ry
        if sl.rx and kind in ("y", "z"):
            sl.rx = -sl.rx
        if sl.h:
            if kind == "x":
                kind = "z"
            elif kind == "z":
                kind = "x"
            else:
                minus = True  # Y * H = -H * Y
    sim.queue.records.append(phase_perm_record(GateOp(kind, (q,))))
    if minus:
        sim.queue.records.append(permqueue.phase_record(_MINUS_ONE))


def dispatch(sim, op: GateOp) -> None:
    """Route one gate: merge into a slot, enqueue, or flush and re-dispatch."""
    kind = op.kind

    if kind in ("h", "rx", "ry", "pexp") and is_pairwise(op):
        if op.controls or kind == "pexp":
            flush_qubits(sim, op.controls + op.targets)
            sim._apply_direct(op)
        else:
            _merge_slot_gate(sim, op)
        return

    if kind in ("x", "y", "z") and not op.controls:
        _commute_pauli(sim, op)
        return

    # Phase/permutation gate, possibly controlled.
    slots = sim.slots
    if slots and any(q in slots for q in op.controls):
        flush_qubits(sim, op.controls + op.targets)

    if kind == "x":
        t = op.targets[0]
        sl = slots.get(t)
        if sl is not None and sl.ry:
            flush_qubits(sim, op.controls + op.targets)
            sl = None
        # A pending Rx on the target commutes with controlled-X.
        if sl is not None and sl.h:
            # CX * H_t = H_t * CZ: the target bit joins the phase condition.
            sim.queue.records.append(permqueue.phase_record(_MINUS_ONE, qubit_mask(op.controls) | (1 << t)))
        else:
            sim.queue.records.append(permqueue.flip_record(1 << t, qubit_mask(op.controls)))
        return

    if slots and any(q in slots for q in op.targets):
        flush_qubits(sim, op.controls + op.targets)
    sim.queue.records.append(phase_perm_record(op))
