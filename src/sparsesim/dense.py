"""Naive full-state reference simulator used as a brute-force test oracle.

Stores all 2^n amplitudes in a numpy vector and applies textbook matrix
actions, with the same gate and global-phase conventions as the sparse
path.  Every gate acts in place on views of the vector reshaped to one
axis per qubit (axis n-1-q for qubit q), where the controls hold 1 and the
targets given bits; no per-gate index or mask array is built.  Measurements
consume the same seeded uniform stream with the same outcome rule, so
measurement records are directly comparable.  Capped at 20 qubits (16 MB of
amplitudes).
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from .ir import Conditional, GateOp, Program, validate_op
from .state import SparseState, draw_branch

DENSE_MAX_QUBITS = 20

_SQRT_HALF = math.sqrt(0.5)

_FIXED_1Q = {
    "h": ((_SQRT_HALF, _SQRT_HALF), (_SQRT_HALF, -_SQRT_HALF)),
    "y": ((0, -1j), (1j, 0)),
    "z": ((1, 0), (0, -1)),
    "s": ((1, 0), (0, 1j)),
    "sdg": ((1, 0), (0, -1j)),
    "t": ((1, 0), (0, cmath.exp(0.25j * math.pi))),
    "tdg": ((1, 0), (0, cmath.exp(-0.25j * math.pi))),
}

# Gates that exchange two views of the control view: X its target's 0/1 views, swap the (0,1)/(1,0) views.
_EXCHANGE = {"x": ((0,), (1,)), "swap": ((0, 1), (1, 0))}


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


def _where(tensor: np.ndarray, qubits, bits) -> np.ndarray:
    """View of ``tensor`` (axis n-1-q for qubit q) where each of ``qubits`` holds its bit; no axis is dropped."""
    index = [slice(None)] * tensor.ndim
    for q, b in zip(qubits, bits):
        index[tensor.ndim - 1 - q] = slice(b, b + 1)
    return tensor[tuple(index)]


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

    def apply(self, op: GateOp) -> None:
        validate_op(op, self.num_qubits)
        if op.kind == "mz":
            self.measure(op.targets)
            return
        tensor = self.vec.reshape((2,) * self.num_qubits)
        controls, on = op.controls, (1,) * len(op.controls)
        if op.kind in _EXCHANGE:
            lo_bits, hi_bits = _EXCHANGE[op.kind]
            lo = _where(tensor, controls + op.targets, on + lo_bits)
            hi = _where(tensor, controls + op.targets, on + hi_bits)
            lo[...], hi[...] = hi.copy(), lo.copy()
        elif op.kind == "pexp":
            # exp(-i t/2 P) = cos I - i sin P with P|b> = phi(b)|b ^ flip>, phi(b) = i^ny (-1)^|b & (y|z)|;
            # phi_v holds -i sin phi(b) v[b], and the flip moves it to b ^ flip.
            v = _where(tensor, controls, on)
            c, s = math.cos(0.5 * op.angle), math.sin(0.5 * op.angle)
            phi_v = ((-1j * s) * 1j ** (op.axes.count("Y") & 3)) * v
            for q, axis in zip(op.targets, op.axes):
                if axis != "X":
                    odd = _where(phi_v, (q,), (1,))
                    np.negative(odd, out=odd)
            flip = tuple(self.num_qubits - 1 - q for q, axis in zip(op.targets, op.axes) if axis != "Z")
            v[...] = c * v + np.flip(phi_v, flip)
        else:
            (m00, m01), (m10, m11) = _matrix_1q(op)
            a = _where(tensor, controls + op.targets, on + (0,))
            b = _where(tensor, controls + op.targets, on + (1,))
            a[...], b[...] = m00 * a + m01 * b, m10 * a + m11 * b

    def measure(self, qubits) -> int:
        odd = np.zeros((2,) * self.num_qubits, dtype=bool)
        for q in set(qubits):
            flipped = _where(odd, (q,), (1,))
            np.logical_not(flipped, out=flipped)
        odd = odd.reshape(-1)
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
