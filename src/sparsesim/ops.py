"""Shorthand constructors for GateOp values."""

from __future__ import annotations

from collections.abc import Iterable

from .ir import GateOp, pexp_op


def x(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("x", (q,), tuple(controls))


def y(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("y", (q,), tuple(controls))


def z(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("z", (q,), tuple(controls))


def h(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("h", (q,), tuple(controls))


def s(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("s", (q,), tuple(controls))


def r1(theta: float, q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("r1", (q,), tuple(controls), theta)


def rx(theta: float, q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("rx", (q,), tuple(controls), theta)


def ry(theta: float, q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("ry", (q,), tuple(controls), theta)


def cx(control: int, target: int) -> GateOp:
    return GateOp("x", (target,), (control,))


def ccx(c1: int, c2: int, target: int) -> GateOp:
    return GateOp("x", (target,), (c1, c2))


def swap(q1: int, q2: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("swap", (q1, q2), tuple(controls))


def pexp(theta: float, axes: str, qubits: Iterable[int], controls: Iterable[int] = ()) -> GateOp:
    return pexp_op(theta, axes.upper(), qubits, controls)


def mz(*qubits: int) -> GateOp:
    return GateOp("mz", tuple(qubits))
