"""Random program generation shared by the unit and acceptance tests."""

import random

from hypothesis import strategies as st

from sparsesim.ir import Conditional, GateOp, Program

_SINGLE = ["x", "y", "z", "h", "s", "sdg", "t", "tdg"]
_ROT = ["r1", "rx", "ry", "rz"]


def random_gate(rng: random.Random, n: int) -> GateOp:
    roll = rng.random()
    if roll < 0.40:
        kind = rng.choice(_SINGLE)
        return GateOp(kind, (rng.randrange(n),))
    if roll < 0.60:
        kind = rng.choice(_ROT)
        return GateOp(kind, (rng.randrange(n),), angle=rng.uniform(-3.2, 3.2))
    if roll < 0.80 and n >= 2:
        # Controlled gate with 1..3 controls.
        kind = rng.choice(_SINGLE + _ROT)
        k = rng.randint(1, min(3, n - 1))
        qs = rng.sample(range(n), k + 1)
        angle = rng.uniform(-3.2, 3.2) if kind in _ROT else None
        return GateOp(kind, (qs[0],), tuple(qs[1:]), angle)
    if roll < 0.88 and n >= 2:
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.5 and n >= 3:
            c = rng.choice([q for q in range(n) if q not in (a, b)])
            return GateOp("swap", (a, b), (c,))
        return GateOp("swap", (a, b))
    if roll < 0.95:
        k = rng.randint(1, min(3, n))
        qs = rng.sample(range(n), k)
        axes = tuple(rng.choice("XYZ") for _ in qs)
        controls = ()
        free = [q for q in range(n) if q not in qs]
        if free and rng.random() < 0.3:
            controls = (rng.choice(free),)
        return GateOp("pexp", tuple(qs), controls, rng.uniform(-3.2, 3.2), axes)
    k = rng.randint(1, min(2, n))
    return GateOp("mz", tuple(rng.sample(range(n), k)))


def random_program(seed: int, max_qubits: int = 12, max_gates: int = 200) -> Program:
    rng = random.Random(seed)
    n = rng.randint(2, max_qubits)
    count = rng.randint(10, max_gates)
    return Program(n, [random_gate(rng, n) for _ in range(count)])


@st.composite
def conditional_programs(draw, max_qubits: int = 10, max_len: int = 40) -> Program:
    """Programs of ``random_gate`` entries, measurements and ``if c<k> == v`` entries.

    Hypothesis picks the entry kinds, the measurement each conditional reads
    and its value; a drawn seed picks the gates.
    """
    n = draw(st.integers(2, max_qubits))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ops: list = []
    measured = 0
    for step in draw(st.lists(st.sampled_from(("gate", "mz", "if")), min_size=1, max_size=max_len)):
        if step == "mz":
            op = GateOp("mz", tuple(rng.sample(range(n), rng.randint(1, 2))))
        else:
            op = random_gate(rng, n)
        if step == "if" and measured and op.kind != "mz":
            ops.append(Conditional(draw(st.integers(0, measured - 1)), draw(st.integers(0, 1)), op))
            continue
        measured += op.kind == "mz"
        ops.append(op)
    return Program(n, ops)
