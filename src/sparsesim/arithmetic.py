"""Reversible arithmetic circuit builders used by the benchmark drivers.

Registers are little-endian tuples of qubit indices.  Builders are
generators of GateOps so drivers can stream them into a simulator without
materializing whole circuits.  The ripple-carry adder follows the
majority/unmajority construction with one carry ancilla; Fourier-basis
addition uses per-qubit phase rotations between basis-change blocks.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .ir import GateOp
from . import ops

Reg = tuple[int, ...]


def load_const(reg: Reg, value: int, controls: Iterable[int] = ()) -> Iterator[GateOp]:
    """Set |0...0> register bits to a classical value (X where bits are 1); a negative one loads its two's complement."""
    ctl = tuple(controls)
    for i, q in enumerate(reg):
        if (value >> i) & 1:
            yield ops.x(q, ctl)


def _maj(x: int, y: int, z: int) -> Iterator[GateOp]:
    yield ops.cx(z, y)
    yield ops.cx(z, x)
    yield ops.ccx(x, y, z)


def _uma(x: int, y: int, z: int) -> Iterator[GateOp]:
    yield ops.ccx(x, y, z)
    yield ops.cx(z, x)
    yield ops.cx(x, y)


def cdkm_add(a: Reg, b: Reg, carry: int, carry_out: int | None = None) -> Iterator[GateOp]:
    """Ripple-carry add: |a>|b> -> |a>|a+b mod 2^w>, a preserved.

    ``carry`` is the carry-in ancilla, returned clean.  When ``carry_out``
    is given it receives the top carry, so b plus carry_out hold the full
    (w+1)-bit sum.
    """
    w = len(a)
    if len(b) != w:
        raise ValueError("register widths differ")
    chain = [carry] + list(a[:-1])
    for i in range(w):
        yield from _maj(chain[i], b[i], a[i])
    if carry_out is not None:
        yield ops.cx(a[w - 1], carry_out)
    for i in reversed(range(w)):
        yield from _uma(chain[i], b[i], a[i])


def qft(reg: Reg) -> Iterator[GateOp]:
    """Fourier transform, most-significant qubit first, no final swaps.

    Qubit i of the input y ends as (|0> + exp(2*pi*i*y / 2^(i+1))|1>)/sqrt(2).
    """
    w = len(reg)
    for i in reversed(range(w)):
        yield ops.h(reg[i])
        for j in reversed(range(i)):
            yield ops.r1(math.pi / (1 << (i - j)), reg[i], (reg[j],))


def iqft(reg: Reg) -> Iterator[GateOp]:
    w = len(reg)
    for i in range(w):
        for j in range(i):
            yield ops.r1(-math.pi / (1 << (i - j)), reg[i], (reg[j],))
        yield ops.h(reg[i])


def phi_add_const(reg: Reg, value: int, controls: Iterable[int] = ()) -> Iterator[GateOp]:
    """Add a classical constant to a register in the Fourier basis; a negative value's angles negate those of -value."""
    ctl = tuple(controls)
    for i, q in enumerate(reg):
        theta = 2.0 * math.pi * value / (1 << (i + 1))
        theta = math.remainder(theta, 2.0 * math.pi)
        if theta != 0.0:
            yield ops.r1(theta, q, ctl)


def qft_add(reg: Reg, value: int, controls: Iterable[int] = ()) -> Iterator[GateOp]:
    """Constant addition via the Fourier basis: QFT, phase ladder, inverse QFT."""
    yield from qft(reg)
    yield from phi_add_const(reg, value, controls)
    yield from iqft(reg)


def cswap_regs(x: Reg, y: Reg, controls: Iterable[int] = ()) -> Iterator[GateOp]:
    ctl = tuple(controls)
    for qx, qy in zip(x, y):
        yield ops.swap(qx, qy, ctl)
