import math

import pytest

from sparsesim import ops
from sparsesim.ir import (
    CircuitSyntaxError,
    Conditional,
    GateOp,
    Program,
    format_program,
    parse_angle,
    parse_circuit,
    validate_op,
)
from sparsesim.simulator import run_program


def test_parse_bell_program():
    prog = parse_circuit("qubits 2\nh 0\ncx 0 1\nmz 0\n")
    assert prog.num_qubits == 2
    assert prog.ops == [
        GateOp("h", (0,)),
        GateOp("x", (1,), (0,)),
        GateOp("mz", (0,)),
    ]


def test_parse_pi_fraction_angle():
    prog = parse_circuit("qubits 1\nrz pi/2 0\n")
    assert prog.ops[0] == GateOp("rz", (0,), (), math.pi / 2)


@pytest.mark.parametrize(
    "token,value",
    [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/4", math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("-3pi/8", -3 * math.pi / 8),
        ("2*pi", 2 * math.pi),
        ("0.25", 0.25),
        ("-1.5e-3", -0.0015),
    ],
)
def test_parse_angle_forms(token, value):
    assert parse_angle(token) == pytest.approx(value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "pi/0", "-3pi/0"])
def test_parse_angle_rejects_non_finite(token):
    with pytest.raises(ValueError, match="not finite"):
        parse_angle(token)
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(f"qubits 1\nrx {token} 0\n")
    assert err.value.line == 2


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_validate_op_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError, match="finite"):
        validate_op(GateOp("rz", (0,), (), angle), 1)


def test_out_of_range_qubit_is_an_error():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 1\nh 5\n")
    assert err.value.line == 2


def test_unknown_mnemonic_reports_line():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 2\n# comment\nfoo 0\n")
    assert err.value.line == 3
    assert "foo" in str(err.value)


def test_missing_header():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("h 0\n")


def test_controlled_measurement_is_a_syntax_error_with_its_line():
    with pytest.raises(CircuitSyntaxError, match="^line 2: measurements cannot be controlled$"):
        parse_circuit("qubits 2\ncmz 0 1\n")


def test_controlled_prefix_counts_controls():
    prog = parse_circuit("qubits 4\nccx 0 1 2\ncswap 0 1 2\ncrz pi 3 0\n")
    assert prog.ops[0] == GateOp("x", (2,), (0, 1))
    assert prog.ops[1] == GateOp("swap", (1, 2), (0,))
    assert prog.ops[2] == GateOp("rz", (0,), (3,), math.pi)


def test_pexp_parsing_drops_identity_axes():
    prog = parse_circuit("qubits 3\npexp pi/2 XIZ 0 1 2\n")
    assert prog.ops[0] == GateOp("pexp", (0, 2), (), math.pi / 2, ("X", "Z"))


def test_pexp_all_identity_rejected():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\npexp 0.5 II 0 1\n")


@pytest.mark.parametrize("axes,qubits", [("XYZ", [0, 1]), ("X", [0, 1])])
def test_pexp_length_mismatch_rejected_by_builder_and_parser(axes, qubits):
    # Neither a longer string nor a shorter one may be cut to fit.
    with pytest.raises(ValueError, match="Pauli string length must match qubit count"):
        ops.pexp(0.7, axes, qubits)
    text = f"qubits 3\npexp 0.7 {axes} {' '.join(map(str, qubits))}\n"
    with pytest.raises(CircuitSyntaxError, match="line 2: Pauli string length must match qubit count"):
        parse_circuit(text)


def test_pexp_builder_matches_parser():
    assert ops.pexp(0.5, "xiz", [0, 1, 2], [3]) == parse_circuit("qubits 4\ncpexp 0.5 XIZ 3 0 1 2\n").ops[0]
    with pytest.raises(ValueError, match="empty Pauli string"):
        ops.pexp(0.5, "II", [0, 1])


def test_conditional_requires_prior_measurement():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 1\nif c0 == 1 x 0\n")
    prog = parse_circuit("qubits 1\nmz 0\nif c0 == 1 x 0\n")
    assert prog.ops[1] == Conditional(0, 1, GateOp("x", (0,)))


def test_duplicate_qubits_rejected():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\ncx 0 0\n")


def test_parse_print_round_trip():
    text = (
        "qubits 4\n"
        "h 0\n"
        "ccx 0 1 2\n"
        "rz 0.7853981633974483 3\n"
        "pexp 1.2 XY 1 3\n"
        "cpexp 0.5 ZZ 0 1 3\n"
        "swap 1 2\n"
        "mz 0\n"
        "if c0 == 1 x 3\n"
    )
    prog = parse_circuit(text)
    assert prog.ops[4] == GateOp("pexp", (1, 3), (0,), 0.5, ("Z", "Z"))
    assert parse_circuit(format_program(prog)) == prog


def test_round_trip_preserves_float_angles():
    prog = Program(2, [GateOp("ry", (1,), (), 0.1234567890123456789)])
    assert parse_circuit(format_program(prog)) == prog


def test_run_program_bell_correlation():
    prog = parse_circuit("qubits 2\nh 0\ncx 0 1\nmz 0\nmz 1\n")
    for seed in range(10):
        res = run_program(prog, seed=seed)
        assert res.measurements[0] == res.measurements[1]


def test_run_program_empty_program():
    res = run_program(Program(3, []))
    assert res.dump == [(0, 1 + 0j)]
    assert res.stats.max_state_size == 1


def test_run_program_thread_budget_is_transparent():
    text = "qubits 5\n" + "\n".join(f"h {q}" for q in range(5)) + "\ncx 0 4\nmz 2\n"
    prog = parse_circuit(text)
    a = run_program(prog, seed=3, threads=1)
    b = run_program(prog, seed=3, threads=8)
    assert a.dump == b.dump
    assert a.measurements == b.measurements


def test_run_program_scheduler_toggle_matches():
    prog = parse_circuit(
        "qubits 3\nh 0\nt 1\ncx 0 1\nrz pi/3 2\nmz 0\nif c0 == 1 x 2\nmz 2\n"
    )
    on = run_program(prog, seed=11, scheduler_enabled=True)
    off = run_program(prog, seed=11, scheduler_enabled=False)
    assert on.measurements == off.measurements
    d_on, d_off = dict(on.dump), dict(off.dump)
    assert set(d_on) == set(d_off)
    for k in d_on:
        assert d_on[k] == pytest.approx(d_off[k], abs=1e-10)


def test_conditional_execution_uses_recorded_bit():
    # deterministic: qubit 0 prepared in |1>, measured, conditionally flips q1
    prog = parse_circuit("qubits 2\nx 0\nmz 0\nif c0 == 1 x 1\nif c0 == 0 h 1\n")
    res = run_program(prog, seed=0)
    assert res.measurements == [1]
    assert res.dump == [(0b11, 1 + 0j)]
