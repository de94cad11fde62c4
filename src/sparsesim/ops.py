"""Shorthand constructors for GateOp values."""

from __future__ import annotations

from collections.abc import Iterable

from .ir import GateOp, pexp_op


def _c(controls: Iterable[int]) -> tuple[int, ...]:
    return tuple(controls)


def x(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("x", (q,), _c(controls))


def y(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("y", (q,), _c(controls))


def z(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("z", (q,), _c(controls))


def h(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("h", (q,), _c(controls))


def s(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("s", (q,), _c(controls))


def sdg(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("sdg", (q,), _c(controls))


def t(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("t", (q,), _c(controls))


def tdg(q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("tdg", (q,), _c(controls))


def r1(theta: float, q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("r1", (q,), _c(controls), theta)


def rx(theta: float, q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("rx", (q,), _c(controls), theta)


def ry(theta: float, q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("ry", (q,), _c(controls), theta)


def rz(theta: float, q: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("rz", (q,), _c(controls), theta)


def cx(control: int, target: int) -> GateOp:
    return GateOp("x", (target,), (control,))


def ccx(c1: int, c2: int, target: int) -> GateOp:
    return GateOp("x", (target,), (c1, c2))


def swap(q1: int, q2: int, controls: Iterable[int] = ()) -> GateOp:
    return GateOp("swap", (q1, q2), _c(controls))


def pexp(theta: float, axes: str, qubits: Iterable[int], controls: Iterable[int] = ()) -> GateOp:
    return pexp_op(theta, axes.upper(), qubits, controls)


def mz(*qubits: int) -> GateOp:
    return GateOp("mz", tuple(qubits))
