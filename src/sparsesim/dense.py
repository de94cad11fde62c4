"""Naive full-state reference simulator used as a brute-force test oracle.

Stores all 2^n amplitudes in a numpy vector and applies textbook matrix
actions, with the same gate and global-phase conventions as the sparse
path.  Measurements consume the same seeded uniform stream with the same
outcome rule, so measurement records are directly comparable.  Capped at
20 qubits (16 MB of amplitudes); performance is a non-goal.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from .ir import Conditional, GateOp, Program, pauli_masks, qubit_mask, validate_op
from .state import SparseState, draw_branch

DENSE_MAX_QUBITS = 20

_SQRT_HALF = math.sqrt(0.5)

_FIXED_1Q = {
    "h": ((_SQRT_HALF, _SQRT_HALF), (_SQRT_HALF, -_SQRT_HALF)),
    "x": ((0, 1), (1, 0)),
    "y": ((0, -1j), (1j, 0)),
    "z": ((1, 0), (0, -1)),
    "s": ((1, 0), (0, 1j)),
    "sdg": ((1, 0), (0, -1j)),
    "t": ((1, 0), (0, cmath.exp(0.25j * math.pi))),
    "tdg": ((1, 0), (0, cmath.exp(-0.25j * math.pi))),
}


def _matrix_1q(op: GateOp):
    if op.kind in _FIXED_1Q:
        return _FIXED_1Q[op.kind]
    theta = op.angle
    if op.kind == "r1":
        return ((1, 0), (0, cmath.exp(1j * theta)))
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    if op.kind == "rx":
        return ((c, -1j * s), (-1j * s, c))
    if op.kind == "ry":
        return ((c, -s), (s, c))
    if op.kind == "rz":
        return ((complex(c, -s), 0), (0, complex(c, s)))
    raise ValueError(f"no single-qubit matrix for {op.kind}")


class DenseState:
    """Array of 2^n complex amplitudes plus its own measurement stream."""

    def __init__(self, num_qubits: int, seed: int = 0):
        if not 1 <= num_qubits <= DENSE_MAX_QUBITS:
            raise ValueError(f"dense oracle supports 1..{DENSE_MAX_QUBITS} qubits, got {num_qubits}")
        self.num_qubits = num_qubits
        self.vec = np.zeros(1 << num_qubits, dtype=np.complex128)
        self.vec[0] = 1.0
        self.rng = random.Random(seed)
        self.measurements: list[int] = []
        self._idx = np.arange(1 << num_qubits, dtype=np.int64)

    def _control_sel(self, controls) -> np.ndarray:
        if not controls:
            return np.ones(len(self.vec), dtype=bool)
        cmask = qubit_mask(controls)
        return (self._idx & cmask) == cmask

    def _parity(self, mask: int) -> np.ndarray:
        return (np.bitwise_count(self._idx & np.int64(mask)) & 1).astype(bool)

    def apply(self, op: GateOp) -> None:
        validate_op(op, self.num_qubits)
        kind = op.kind
        if kind == "mz":
            self.measure(op.targets)
            return
        sel = self._control_sel(op.controls)
        vec = self.vec
        if kind in ("h", "rx", "ry", "x", "y", "z", "s", "sdg", "t", "tdg", "r1", "rz"):
            (m00, m01), (m10, m11) = _matrix_1q(op)
            q = op.targets[0]
            lo = self._idx[sel & ((self._idx >> q) & 1 == 0)]
            hi = lo | (1 << q)
            a, b = vec[lo], vec[hi]
            vec[lo] = m00 * a + m01 * b
            vec[hi] = m10 * a + m11 * b
            return
        if kind == "swap":
            i, j = op.targets
            differ = sel & (((self._idx >> i) & 1) != ((self._idx >> j) & 1))
            src = self._idx[differ] ^ ((1 << i) | (1 << j))
            new = vec.copy()
            new[differ] = vec[src]
            self.vec = new
            return
        if kind == "pexp":
            self._apply_pexp(op, sel)
            return
        raise ValueError(f"unsupported gate kind {kind!r}")

    def _apply_pexp(self, op: GateOp, sel: np.ndarray) -> None:
        x_mask, y_mask, z_mask = pauli_masks(op.targets, op.axes)
        theta = op.angle
        c = math.cos(0.5 * theta)
        s = math.sin(0.5 * theta)
        flip = x_mask | y_mask
        if flip == 0:
            pe = complex(c, -s)
            po = complex(c, s)
            odd = self._parity(z_mask)
            phases = np.where(odd, po, pe)
            self.vec = np.where(sel, self.vec * phases, self.vec)
            return
        # exp(-i t/2 P) = cos I - i sin P with P|b> = phi(b)|b ^ flip>.
        ny = y_mask.bit_count()
        base = 1j ** (ny & 3)
        sign_odd = self._parity(y_mask | z_mask)
        phi = np.where(sign_odd, -base, base)
        partner = self._idx ^ np.int64(flip)
        contrib = (-1j * s) * phi[partner] * self.vec[partner]
        new = np.where(sel, c * self.vec + contrib, self.vec)
        self.vec = new

    def measure(self, qubits) -> int:
        odd = self._parity(qubit_mask(qubits))
        weights = np.abs(self.vec) ** 2
        total = float(weights.sum())
        p_even = float(weights[~odd].sum())
        outcome, p_branch = draw_branch(self.rng.random(), p_even, total)  # same rule as SparseState.measure
        keep = odd if outcome else ~odd
        self.vec = np.where(keep, self.vec / math.sqrt(p_branch), 0.0)
        self.measurements.append(outcome)
        return outcome


def run_dense_program(program: Program, seed: int = 0) -> DenseState:
    dense = DenseState(program.num_qubits, seed)
    for entry in program.ops:
        if isinstance(entry, Conditional):
            if dense.measurements[entry.meas_index] == entry.value:
                dense.apply(entry.op)
        else:
            dense.apply(entry)
    return dense


def compare(dense: DenseState, sparse: SparseState) -> float:
    """Max absolute per-amplitude deviation; missing sparse entries count as 0."""
    if dense.num_qubits != sparse.num_qubits:
        raise ValueError("qubit count mismatch")
    vec = np.zeros_like(dense.vec)
    for b, amp in sparse.amps.items():
        vec[b] = amp
    return float(np.abs(dense.vec - vec).max())
