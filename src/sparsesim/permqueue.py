"""Queueing and batched execution of phase/permutation gates.

Gates with exactly one nonzero matrix entry per row act on a basis term as
``G(amp|b>) = f(b) * amp * |g(b)>`` for a unit-modulus phase ``f`` and a
label bijection ``g``.  Such gates compose by chaining, so a whole queue
is evaluated per label in one pass over the state map, amortizing map
lookups, insertions, and initialization.  Long queues on large states are
partitioned across a worker pool; results are independent of worker count.
"""

from __future__ import annotations

import concurrent.futures
from typing import NamedTuple

import numpy as np

from .state import SparseState

# Record kinds.  Each record is a single-nonzero-entry-per-row gate:
#   FLIP     g(b) = b ^ mask                        f = 1
#   PHASE    g(b) = b                               f = phase_even
#   ZPARITY  g(b) = b                               f = phase_even / phase_odd by parity(b & mask)
#   PAULIY   g(b) = b ^ mask (single target bit)    f = phase_even if that bit is 0 else phase_odd
#   BITSWAP  g(b) swaps the two bits in mask/mask2  f = 1
# Controls gate the whole action: labels failing the control mask pass through.
FLIP = 0
PHASE = 1
ZPARITY = 2
PAULIY = 3
BITSWAP = 4

# States at least this large use the vectorized evaluation path.
_VECTOR_MIN_STATES = 64
# Labels beyond 62 bits no longer fit the vectorized int64 path.
_VECTOR_MAX_QUBITS = 62

DEFAULT_PAR_MIN_QUEUE = 64
DEFAULT_PAR_MIN_STATES = 4096


class PhasePermRecord(NamedTuple):
    kind: int
    control_mask: int
    mask: int
    mask2: int = 0
    phase_even: complex = 1 + 0j
    phase_odd: complex = 1 + 0j


def flip_record(xor_mask: int, control_mask: int = 0) -> PhasePermRecord:
    return PhasePermRecord(FLIP, control_mask, xor_mask)


def phase_record(phase: complex, control_mask: int = 0) -> PhasePermRecord:
    return PhasePermRecord(PHASE, control_mask, 0, phase_even=phase)


def zparity_record(z_mask: int, phase_even: complex, phase_odd: complex, control_mask: int = 0) -> PhasePermRecord:
    return PhasePermRecord(ZPARITY, control_mask, z_mask, phase_even=phase_even, phase_odd=phase_odd)


def pauli_y_record(target: int, control_mask: int = 0) -> PhasePermRecord:
    # +i when the target bit reads 0 before the flip, -i when it reads 1.
    return PhasePermRecord(PAULIY, control_mask, 1 << target, phase_even=1j, phase_odd=-1j)


def bitswap_record(qubit_i: int, qubit_j: int, control_mask: int = 0) -> PhasePermRecord:
    return PhasePermRecord(BITSWAP, control_mask, 1 << qubit_i, 1 << qubit_j)


class PhasePermQueue:
    """Ordered list of phase/permutation records awaiting execution."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[PhasePermRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def enqueue(self, record: PhasePermRecord) -> None:
        self.records.append(record)

    def clear(self) -> None:
        self.records = []


def _eval_items(records: list[PhasePermRecord], items: list[tuple[int, complex]]) -> list[tuple[int, complex]]:
    # CPython's fast unpacking takes exact tuples only; unpacking the NamedTuples
    # made this loop 1.4-1.8x slower (CPython 3.11, 200 records, 67-bit labels).
    recs = [tuple(r) for r in records]
    out = []
    for b, amp in items:
        for kind, ctrl, mask, mask2, pe, po in recs:
            if b & ctrl != ctrl:
                continue
            if kind == FLIP:
                b = b ^ mask
            elif kind == PHASE:
                amp = amp * pe
            elif kind == ZPARITY:
                amp = amp * (po if (b & mask).bit_count() & 1 else pe)
            elif kind == PAULIY:
                amp = amp * (po if b & mask else pe)
                b = b ^ mask
            else:  # BITSWAP
                if bool(b & mask) != bool(b & mask2):
                    b = b ^ (mask | mask2)
        out.append((b, amp))
    return out


def _eval_arrays(
    records: list[PhasePermRecord], labels: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    for r in records:
        ctrl = np.int64(r.control_mask)
        ok = (labels & ctrl) == ctrl if r.control_mask else None
        kind = r.kind
        if kind == FLIP:
            flipped = labels ^ np.int64(r.mask)
            labels = flipped if ok is None else np.where(ok, flipped, labels)
        elif kind == PHASE:
            if ok is None:
                amps = amps * r.phase_even
            else:
                amps = np.where(ok, amps * r.phase_even, amps)
        elif kind == ZPARITY:
            par = (np.bitwise_count(labels & np.int64(r.mask)) & 1).astype(bool)
            ph = np.where(par, r.phase_odd, r.phase_even)
            amps = amps * ph if ok is None else np.where(ok, amps * ph, amps)
        elif kind == PAULIY:
            bit = (labels & np.int64(r.mask)) != 0
            ph = np.where(bit, r.phase_odd, r.phase_even)
            flipped = labels ^ np.int64(r.mask)
            if ok is None:
                amps = amps * ph
                labels = flipped
            else:
                amps = np.where(ok, amps * ph, amps)
                labels = np.where(ok, flipped, labels)
        else:  # BITSWAP
            differ = ((labels & np.int64(r.mask)) != 0) != ((labels & np.int64(r.mask2)) != 0)
            if ok is not None:
                differ &= ok
            labels = np.where(differ, labels ^ np.int64(r.mask | r.mask2), labels)
    return labels, amps


def execute(
    queue: PhasePermQueue,
    state: SparseState,
    thread_budget: int = 1,
    par_min_queue: int = DEFAULT_PAR_MIN_QUEUE,
    par_min_states: int = DEFAULT_PAR_MIN_STATES,
    stats=None,
) -> SparseState:
    """Apply the whole queue in one pass over the state and clear it.

    Each entry ``(b, amp)`` contributes ``(g(b), f(b) * amp)`` to the new
    map; permutations are bijections and phases have unit modulus, so the
    entry count is preserved exactly.  The pass is split across workers
    only when the queue is longer than ``par_min_queue`` AND the state
    holds more than ``par_min_states`` entries AND more than one thread is
    budgeted; the merged result is identical in content either way.
    """
    records = queue.records
    queue.clear()
    if not records or not state.amps:
        return state

    n_states = len(state.amps)
    parallel = (
        thread_budget > 1
        and len(records) > par_min_queue
        and n_states > par_min_states
    )
    vectorize = state.num_qubits <= _VECTOR_MAX_QUBITS and n_states >= _VECTOR_MIN_STATES

    if stats is not None:
        stats.queue_executions += 1
        if parallel:
            stats.parallel_executions += 1

    if vectorize:
        labels = np.fromiter(state.amps.keys(), dtype=np.int64, count=n_states)
        amps = np.fromiter(state.amps.values(), dtype=np.complex128, count=n_states)
        if parallel:
            bounds = np.linspace(0, n_states, thread_budget + 1, dtype=int)
            chunks = [
                (labels[bounds[i]: bounds[i + 1]], amps[bounds[i]: bounds[i + 1]])
                for i in range(thread_budget)
            ]
            with concurrent.futures.ThreadPoolExecutor(max_workers=thread_budget) as pool:
                results = list(pool.map(lambda c: _eval_arrays(records, c[0], c[1]), chunks))
            labels = np.concatenate([r[0] for r in results])
            amps = np.concatenate([r[1] for r in results])
        else:
            labels, amps = _eval_arrays(records, labels, amps)
        new_amps = dict(zip(labels.tolist(), amps.tolist()))
    else:
        items = list(state.amps.items())
        if parallel:
            size = (n_states + thread_budget - 1) // thread_budget
            chunks = [items[i: i + size] for i in range(0, n_states, size)]
            with concurrent.futures.ThreadPoolExecutor(max_workers=thread_budget) as pool:
                results = list(pool.map(lambda c: _eval_items(records, c), chunks))
            new_amps = {}
            for part in results:
                new_amps.update(part)
        else:
            new_amps = dict(_eval_items(records, items))

    return SparseState(state.num_qubits, new_amps)
