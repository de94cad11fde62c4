"""Queueing and batched execution of phase/permutation gates.

Gates with exactly one nonzero matrix entry per row act on a basis term as
``G(amp|b>) = f(b) * amp * |g(b)>`` for a unit-modulus phase ``f`` and a
label bijection ``g``.  Such gates compose by chaining, so a whole queue
is applied in one pass over the state map, amortizing map lookups,
insertions, and initialization.

One evaluator, ``_run_planes``, applies every queue bit-sliced (Biham 1997,
"A fast new DES implementation in software"): each touched qubit ``q`` is
a Python-int plane whose bit ``i`` is bit ``q`` of entry ``i``'s label, so
a Toffoli is ``plane[t] ^= plane[c1] & plane[c2]``.  Two builders feed it:

* ``_eval_small``, for maps under ``_VECTOR_MIN_STATES`` entries, builds
  the planes from the labels' set bits in pure Python.
* ``_eval_planes`` holds larger maps' labels as uint64 columns, at any
  width up to ``MAX_QUBITS``, and transposes the planes out of them.

Long queues on large maps are split into contiguous runs of entries, one
per worker, with at most one worker per CPU.  The entries keep their order,
so the result is the same for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import os

import numpy as np

from .state import SparseState

# A record is a plain tuple (kind, control_mask, mask, mask2, phase_even, phase_odd), so the
# record loop unpacks it without a copy.  Each is a single-nonzero-entry-per-row gate:
#   FLIP     g(b) = b ^ mask                        f = 1
#   ZPARITY  g(b) = b                               f = phase_even / phase_odd by parity(b & mask)
#   PAULIY   g(b) = b ^ mask (single target bit)    f = phase_even if that bit is 0 else phase_odd
#   BITSWAP  g(b) swaps the two bits in mask/mask2  f = 1
# A plain phase is a Z-parity over no qubits (mask 0): every parity is even, so phase_odd never applies.
# Controls gate the whole action: labels failing the control mask pass through.
FLIP = 0
ZPARITY = 1
PAULIY = 2
BITSWAP = 3

# Maps at least this large hold their labels as numpy columns; smaller ones as a list.
_VECTOR_MIN_STATES = 64

# Labels are held as little-endian uint64 columns of 64 bits each.
_WORD = np.dtype("<u8")
_WORD_MASK = (1 << 64) - 1
# Delta swaps (shift, mask) that transpose a uint64 as an 8x8 bit matrix.
_TRANSPOSE_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)

DEFAULT_PAR_MIN_QUEUE = 64
DEFAULT_PAR_MIN_STATES = 4096


def flip_record(xor_mask: int, control_mask: int = 0) -> tuple:
    return (FLIP, control_mask, xor_mask, 0, 1 + 0j, 1 + 0j)


def phase_record(phase: complex, control_mask: int = 0) -> tuple:
    return (ZPARITY, control_mask, 0, 0, phase, 1 + 0j)


def zparity_record(z_mask: int, phase_even: complex, phase_odd: complex, control_mask: int = 0) -> tuple:
    return (ZPARITY, control_mask, z_mask, 0, phase_even, phase_odd)


def pauli_y_record(target: int, control_mask: int = 0) -> tuple:
    # +i when the target bit reads 0 before the flip, -i when it reads 1.
    return (PAULIY, control_mask, 1 << target, 0, 1j, -1j)


def bitswap_record(qubit_i: int, qubit_j: int, control_mask: int = 0) -> tuple:
    return (BITSWAP, control_mask, 1 << qubit_i, 1 << qubit_j, 1 + 0j, 1 + 0j)


class PhasePermQueue:
    """Phase/permutation records awaiting execution, in order: callers append to ``records``; ``execute`` empties it."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[tuple] = []


def _scale(amps: np.ndarray, sel: np.ndarray | None, phase: complex) -> None:
    # Indexing the selected entries is 2-4x faster than np.where or where= on
    # 65,536 entries, and no slower on small maps.
    if sel is None:
        amps *= phase
    else:
        amps[sel.nonzero()[0]] *= phase


def _word_select(words: list[np.ndarray], mask: int) -> np.ndarray | None:
    """Entries whose label has every bit of ``mask`` set (None: all of them)."""
    miss = None
    for col, word in enumerate(words):
        part = mask >> (64 * col) & _WORD_MASK
        if part:
            m = np.uint64(part)
            missing = (word & m) ^ m
            miss = missing if miss is None else miss | missing
    # logical_not of the missing bits, not ``== m``: numpy's comparison loops
    # would page in about 128 KiB of code that no other step here needs.
    return None if miss is None else np.logical_not(miss)


def _word_parity(words: list[np.ndarray], mask: int) -> np.ndarray:
    par = np.zeros(len(words[0]), np.uint8)
    for col, word in enumerate(words):
        part = mask >> (64 * col) & _WORD_MASK
        if part:
            par ^= np.bitwise_count(word & np.uint64(part))
    return (par & 1).astype(bool)


def _transpose8(x: np.ndarray) -> None:
    """Transpose each uint64 in place as an 8x8 bit matrix: bit j of byte i <-> bit i of byte j."""
    t = np.empty_like(x)
    for shift, mask in _TRANSPOSE_STEPS:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t


def _byte_row(words: list[np.ndarray], row: int) -> np.ndarray:
    """Strided view of byte ``row`` of every label: bits 8*row .. 8*row+7."""
    return words[row >> 3].view(np.uint8)[row & 7::8]


def _to_planes(words: list[np.ndarray], row: int, planes: dict[int, int]) -> None:
    n = len(words[0])
    nbytes = (n + 7) // 8
    buf = np.zeros(8 * nbytes, np.uint8)
    buf[:n] = _byte_row(words, row)
    _transpose8(buf.view(_WORD))
    # Byte b of word k now holds bit 8*row+b of entries 8k .. 8k+7.
    cols = buf.reshape(nbytes, 8)
    for b in range(8):
        planes[1 << (8 * row + b)] = int.from_bytes(cols[:, b].tobytes(), "little")


def _from_planes(words: list[np.ndarray], row: int, planes: dict[int, int]) -> None:
    n = len(words[0])
    nbytes = (n + 7) // 8
    cols = np.empty((nbytes, 8), np.uint8)
    for b in range(8):
        cols[:, b] = np.frombuffer(planes[1 << (8 * row + b)].to_bytes(nbytes, "little"), np.uint8)
    buf = cols.reshape(-1)
    _transpose8(buf.view(_WORD))
    _byte_row(words, row)[:] = buf[:n]


def _plane_select(plane: int, n: int) -> np.ndarray:
    """Bool array of the set bits of a plane over ``n`` entries."""
    raw = np.frombuffer(plane.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _rows(mask: int) -> list[int]:
    """Byte rows (qubits 8*row .. 8*row+7) holding a set bit of ``mask``."""
    return [row for row in range((mask.bit_length() + 7) // 8) if mask >> (8 * row) & 0xFF]


def _bits(mask: int) -> list[int]:
    """The single-bit masks ``1 << q`` of the set bits of ``mask``."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit)
        mask ^= bit
    return out


def _touched(recs: list[tuple]) -> int:
    """The bits that any record reads or writes."""
    touched = 0
    for r in recs:
        touched |= r[1] | r[2] | r[3]
    return touched


def _run_planes(recs: list[tuple], planes: dict[int, int], full: int, scale) -> None:
    """Apply ``recs`` to the planes (keyed ``1 << q``; ``full`` has a bit per entry) in queue order.

    ``scale(sel, phase)`` multiplies the amplitudes of the entries at the set bits of ``sel``.
    """
    for kind, ctrl, mask, mask2, pe, po in recs:
        cond = full
        while ctrl:
            bit = ctrl & -ctrl
            cond &= planes[bit]
            ctrl ^= bit
        if not cond:
            continue
        if kind == FLIP:
            if mask & (mask - 1):
                for bit in _bits(mask):
                    planes[bit] ^= cond
            else:
                planes[mask] ^= cond
        elif kind == ZPARITY:
            odd = 0
            for bit in _bits(mask):
                odd ^= planes[bit]
            scale(cond & ~odd, pe)
            scale(cond & odd, po)
        elif kind == PAULIY:
            scale(cond & ~planes[mask], pe)
            scale(cond & planes[mask], po)
            planes[mask] ^= cond
        else:  # BITSWAP
            swap = (planes[mask] ^ planes[mask2]) & cond
            planes[mask] ^= swap
            planes[mask2] ^= swap


def _eval_planes(recs: list[tuple], first: int, touched: int, words: list[np.ndarray], amps: np.ndarray) -> None:
    """Apply ``recs`` in place to one run of entries; ``words[c]`` holds bits 64c .. 64c+63 of each label.

    ``recs[:first]`` are the ZPARITY records before the first label-moving
    one and act on the words; a record with an empty mask, a plain phase,
    skips the parity.  The rest run on planes of the rows of ``touched``,
    and changed byte rows go back.
    """
    for _, ctrl, mask, _, pe, po in recs[:first]:
        sel = _word_select(words, ctrl)
        if not mask:
            _scale(amps, sel, pe)
        else:
            odd = _word_parity(words, mask)
            _scale(amps, ~odd if sel is None else sel & ~odd, pe)
            _scale(amps, odd if sel is None else sel & odd, po)
    if first == len(recs):
        return

    planes: dict[int, int] = {}
    for row in _rows(touched):
        _to_planes(words, row, planes)
    old = planes.copy()
    n = len(amps)
    full = (1 << n) - 1

    def scale(sel: int, phase: complex) -> None:
        if sel:
            _scale(amps, None if sel == full else _plane_select(sel, n), phase)

    _run_planes(recs[first:], planes, full, scale)
    for row in _rows(sum(bit for bit, plane in planes.items() if plane != old[bit])):
        _from_planes(words, row, planes)


def _eval_small(recs: list[tuple], touched: int, labels: list[int], amps: list[complex]) -> None:
    """Apply ``recs`` in place to a small map held as two lists; only changed label bits are written back."""
    planes = dict.fromkeys(_bits(touched), 0)
    for i, b in enumerate(labels):
        b &= touched
        while b:
            bit = b & -b
            planes[bit] |= 1 << i
            b ^= bit
    old = planes.copy()

    def scale(sel: int, phase: complex) -> None:
        while sel:
            low = sel & -sel
            amps[low.bit_length() - 1] *= phase
            sel ^= low

    _run_planes(recs, planes, (1 << len(amps)) - 1, scale)
    for bit, plane in planes.items():
        diff = plane ^ old[bit]
        while diff:
            low = diff & -diff
            labels[low.bit_length() - 1] ^= bit
            diff ^= low


def _label_words(keys, n: int, touched: int) -> list[np.ndarray]:
    """Labels as uint64 columns, wide enough for every stored label and every bit in ``touched``."""
    try:
        words = [np.fromiter(keys, _WORD, count=n)]
    except OverflowError:  # a stored label of 2**64 or more
        width = max(keys).bit_length()
        words = [np.fromiter((k >> s & _WORD_MASK for k in keys), _WORD, count=n) for s in range(0, width, 64)]
    while 64 * len(words) < touched.bit_length():
        words.append(np.zeros(n, _WORD))
    return words


def _labels(words: list[np.ndarray]) -> list[int]:
    labels = words[0].tolist()
    for col in range(1, len(words)):
        labels = [lo | hi << (64 * col) for lo, hi in zip(labels, words[col].tolist())]
    return labels


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
    only when the queue is longer than ``par_min_queue`` AND the state holds
    more than ``par_min_states`` entries AND more than one thread is
    budgeted; maps under 64 entries never are.  It uses at most one worker
    per CPU.  The result is identical either way.
    """
    records = queue.records
    queue.records = []
    if not records or not state.amps:
        return state

    n_states = len(state.amps)
    parallel = thread_budget > 1 and len(records) > par_min_queue and n_states > par_min_states

    if stats is not None:
        stats.queue_executions += 1
        stats.parallel_executions += parallel

    touched = _touched(records)
    if n_states < _VECTOR_MIN_STATES:
        labels, amps = list(state.amps), list(state.amps.values())
        _eval_small(records, touched, labels, amps)
        return SparseState(state.num_qubits, dict(zip(labels, amps)))

    first = next((i for i, r in enumerate(records) if r[0] != ZPARITY), len(records))
    keys = state.amps.keys()
    words = _label_words(keys, n_states, touched)
    amps = np.fromiter(state.amps.values(), dtype=np.complex128, count=n_states)
    if parallel:
        workers = min(thread_budget, os.cpu_count() or 1)
        bounds = np.linspace(0, n_states, workers + 1, dtype=int).tolist()
        chunks = [slice(bounds[i], bounds[i + 1]) for i in range(workers)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda c: _eval_planes(records, first, touched, [w[c] for w in words], amps[c]), chunks))
    else:
        _eval_planes(records, first, touched, words, amps)
    labels = _labels(words) if first < len(records) else keys
    return SparseState(state.num_qubits, dict(zip(labels, amps.tolist())))
