"""Gate instruction set, program representation, and the circuit text format.

The text grammar is one instruction per line: a ``qubits N`` header, then
gate lines ``<mnemonic> [angle] q0 q1 ...``.  A mnemonic takes one leading
``c`` per control (``ccx 0 1 2`` is a doubly-controlled X with controls 0
and 1); controls are the first qubits listed.  Angles are finite decimal
radians or fractions of pi (``pi``, ``pi/4``, ``-3pi/8``).  ``pexp <angle>
<XYZI-string> <q...>`` applies a Pauli exponential; ``mz <q...>`` measures
a joint Z product.  ``if c<k> == <0|1> <gate line>`` conditions a gate on
the k-th earlier measurement.  ``#`` starts a comment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

KINDS = frozenset(
    {"x", "y", "z", "h", "s", "sdg", "t", "tdg", "r1", "rx", "ry", "rz", "swap", "pexp", "mz"}
)
ANGLE_KINDS = frozenset({"r1", "rx", "ry", "rz", "pexp"})


class CircuitSyntaxError(ValueError):
    """Parse failure; carries the 1-based source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class GateOp:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None
    axes: tuple[str, ...] = ()  # pexp only; one of X, Y, Z per target


@dataclass(frozen=True)
class Conditional:
    """Apply ``op`` iff the ``meas_index``-th measurement returned ``value``."""

    meas_index: int
    value: int
    op: GateOp


@dataclass
class Program:
    num_qubits: int
    ops: list[GateOp | Conditional] = field(default_factory=list)


def validate_op(op: GateOp, num_qubits: int) -> None:
    qubits = op.targets + op.controls
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits}-qubit state")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit in {op.kind} targets/controls")
    if op.kind not in KINDS:
        raise ValueError(f"unknown gate kind {op.kind!r}")
    if op.kind == "mz" and op.controls:
        raise ValueError("measurements cannot be controlled")
    if op.kind == "swap" and len(op.targets) != 2:
        raise ValueError("swap takes exactly two targets")
    if op.kind == "pexp":
        if not op.axes:
            raise ValueError("empty Pauli string")
        if len(op.axes) != len(op.targets):
            raise ValueError("Pauli axis count must match target count")
        if not set(op.axes) <= {"X", "Y", "Z"}:
            raise ValueError(f"Pauli axes must be X, Y or Z, got {op.axes}")
    if op.kind in ANGLE_KINDS and (op.angle is None or not math.isfinite(op.angle)):
        raise ValueError(f"{op.kind} requires a finite angle, got {op.angle}")
    if not op.targets:
        raise ValueError(f"{op.kind} requires at least one qubit")
    if op.kind in {"x", "y", "z", "h", "s", "sdg", "t", "tdg", "r1", "rx", "ry", "rz"} and len(op.targets) != 1:
        raise ValueError(f"{op.kind} takes exactly one target")


def pexp_op(angle: float, letters: str, qubits, controls=()) -> GateOp:
    """A Pauli exponential from one X, Y, Z or I letter per qubit; the I axes are dropped."""
    qubits = tuple(qubits)
    if len(letters) != len(qubits):
        raise ValueError("Pauli string length must match qubit count")
    kept = [(q, ax) for q, ax in zip(qubits, letters) if ax != "I"]
    if not kept:
        raise ValueError("empty Pauli string")
    return GateOp("pexp", tuple(q for q, _ in kept), tuple(controls), angle, tuple(ax for _, ax in kept))


def qubit_mask(qubits) -> int:
    """Label bit mask with bit ``q`` set for each qubit ``q``."""
    m = 0
    for q in qubits:
        m |= 1 << q
    return m


def pauli_masks(qubits, axes) -> tuple[int, int, int]:
    """(x_mask, y_mask, z_mask) of a Pauli string given one axis per qubit."""
    return tuple(qubit_mask(q for q, a in zip(qubits, axes) if a == axis) for axis in "XYZ")


_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?\*?pi(?:/(\d+))?$")


def parse_angle(token: str) -> float:
    """A finite angle in radians; raises ValueError for anything else (``nan``, ``inf``, ``pi/0``)."""
    m = _PI_RE.match(token)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        angle = sign * num * math.pi / den if den else math.inf
    else:
        angle = float(token)
    if not math.isfinite(angle):
        raise ValueError(f"angle {token!r} is not finite")
    return angle


def _parse_gate_tokens(tokens: list[str], num_qubits: int, line_no: int) -> GateOp:
    mnemonic = tokens[0]
    n_controls = 0
    base = mnemonic
    while base and base[0] == "c" and base not in KINDS:
        base = base[1:]
        n_controls += 1
    if base not in KINDS:
        raise CircuitSyntaxError(line_no, f"unknown mnemonic {mnemonic!r}")

    rest = tokens[1:]
    angle = None
    if base in ANGLE_KINDS:
        if not rest:
            raise CircuitSyntaxError(line_no, f"{base} requires an angle")
        try:
            angle = parse_angle(rest[0])
        except ValueError:
            raise CircuitSyntaxError(line_no, f"bad angle {rest[0]!r}") from None
        rest = rest[1:]

    if base == "pexp":
        if not rest:
            raise CircuitSyntaxError(line_no, "pexp requires a Pauli string")
        letters = rest[0].upper()
        if not letters or any(ch not in "XYZI" for ch in letters):
            raise CircuitSyntaxError(line_no, f"bad Pauli string {rest[0]!r}")
        rest = rest[1:]
    try:
        qubits = [int(tok) for tok in rest]
    except ValueError:
        raise CircuitSyntaxError(line_no, f"bad qubit index in {' '.join(tokens)!r}") from None
    if len(qubits) < n_controls + 1:
        raise CircuitSyntaxError(line_no, f"{mnemonic} is missing qubit operands")
    controls = tuple(qubits[:n_controls])
    targets = tuple(qubits[n_controls:])
    try:
        op = pexp_op(angle, letters, targets, controls) if base == "pexp" else GateOp(base, targets, controls, angle)
        validate_op(op, num_qubits)
    except ValueError as exc:
        raise CircuitSyntaxError(line_no, str(exc)) from None
    return op


_IF_RE = re.compile(r"^c(\d+)$")


def parse_circuit(text: str) -> Program:
    """Parse circuit text into a Program; raises CircuitSyntaxError."""
    program: Program | None = None
    measurements_seen = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if program is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise CircuitSyntaxError(line_no, "expected 'qubits N' header")
            try:
                n = int(tokens[1])
            except ValueError:
                raise CircuitSyntaxError(line_no, f"bad qubit count {tokens[1]!r}") from None
            if n < 1:
                raise CircuitSyntaxError(line_no, "qubit count must be positive")
            program = Program(n)
            continue
        if tokens[0] == "if":
            if len(tokens) < 5 or tokens[2] != "==" or tokens[3] not in ("0", "1"):
                raise CircuitSyntaxError(line_no, "expected 'if c<k> == <0|1> <gate>'")
            m = _IF_RE.match(tokens[1])
            if not m:
                raise CircuitSyntaxError(line_no, f"bad measurement reference {tokens[1]!r}")
            idx = int(m.group(1))
            if idx >= measurements_seen:
                raise CircuitSyntaxError(line_no, f"measurement c{idx} not yet recorded")
            op = _parse_gate_tokens(tokens[4:], program.num_qubits, line_no)
            if op.kind == "mz":
                raise CircuitSyntaxError(line_no, "conditional measurements are not supported")
            program.ops.append(Conditional(idx, int(tokens[3]), op))
            continue
        op = _parse_gate_tokens(tokens, program.num_qubits, line_no)
        if op.kind == "mz":
            measurements_seen += 1
        program.ops.append(op)
    if program is None:
        raise CircuitSyntaxError(1, "empty circuit: missing 'qubits N' header")
    return program


def _format_gate(op: GateOp) -> str:
    parts = ["c" * len(op.controls) + op.kind]
    if op.kind in ANGLE_KINDS:
        parts.append(repr(op.angle))
    if op.kind == "pexp":
        parts.append("".join(op.axes))
    parts.extend(str(q) for q in op.controls + op.targets)
    return " ".join(parts)


def format_program(program: Program) -> str:
    """Render a Program back to circuit text; reparsing yields an equal Program."""
    lines = [f"qubits {program.num_qubits}"]
    for entry in program.ops:
        if isinstance(entry, Conditional):
            lines.append(f"if c{entry.meas_index} == {entry.value} {_format_gate(entry.op)}")
        else:
            lines.append(_format_gate(entry))
    return "\n".join(lines) + "\n"
