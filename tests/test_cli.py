import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparsesim.cli import main

BELL = "qubits 2\nh 0\ncx 0 1\nmz 0\nmz 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_bell_prints_correlated_bits(tmp_path, capsys):
    path = write(tmp_path, "bell.qc", BELL)
    assert main(["run", path, "--seed", "5"]) == 0
    bits = capsys.readouterr().out.split()
    assert len(bits) == 2 and bits[0] == bits[1]


def test_run_show_counters_pins_bell(tmp_path, capsys):
    path = write(tmp_path, "bell.qc", BELL)
    assert main(["run", path, "--seed", "7", "--show-counters"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "flushes=2 absorbed=1 enqueued=1 queue_executions=1 parallel_executions=0"
    )


def test_run_missing_file_exits_one(capsys):
    assert main(["run", "/nonexistent/circuit.qc"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_non_utf8_file_exits_one(tmp_path, capsys):
    path = tmp_path / "binary.qc"
    path.write_bytes(b"qubits 1\nx 0 \xff\n")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_parse_error_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.qc", "qubits 1\nfrobnicate 0\n")
    assert main(["run", path]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("qubits 1\nrx\n", 2, "rx requires an angle"),
        ("qubits 2\npexp 0.5\n", 2, "pexp requires a Pauli string"),
        ("qubits 2\npexp 0.5 XQ 0 1\n", 2, "bad Pauli string 'XQ'"),
        ("qubits 1\nx a\n", 2, "bad qubit index in 'x a'"),
        ("qubits 2\ncx 0\n", 2, "cx is missing qubit operands"),
        ("qubits two\n", 1, "bad qubit count 'two'"),
        ("qubits 0\n", 1, "qubit count must be positive"),
        ("qubits 1\nmz 0\nif c0 = 1 x 0\n", 3, "expected 'if c<k> == <0|1> <gate>'"),
        ("qubits 1\nmz 0\nif m0 == 1 x 0\n", 3, "bad measurement reference 'm0'"),
        ("qubits 2\nmz 0\nif c0 == 1 mz 1\n", 3, "conditional measurements are not supported"),
        ("# a comment and nothing else\n", 1, "empty circuit: missing 'qubits N' header"),
    ],
    ids=[
        "rx_no_angle", "pexp_no_string", "pexp_bad_letter", "bad_qubit_index", "missing_operand",
        "bad_qubit_count", "zero_qubits", "if_single_equals", "if_bad_reference", "if_mz", "comment_only",
    ],
)
def test_run_syntax_errors_exit_one_with_their_line(tmp_path, capsys, text, line, message):
    assert main(["run", write(tmp_path, "bad.qc", text)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line {line}: {message}\n"
    assert captured.out == ""


def test_run_wider_than_128_qubits_exits_two(tmp_path, capsys):
    # The header parses; the state's 128-qubit label cap rejects it, as it does an oversized instance.
    assert main(["run", write(tmp_path, "wide.qc", "qubits 129\nh 0\n")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: num_qubits must be in [1, 128], got 129\n"
    assert captured.out == ""
    assert main(["run", write(tmp_path, "edge.qc", "qubits 128\nx 127\nmz 127\n")]) == 0
    assert capsys.readouterr().out == "1\n"


def test_run_stats_schema_and_determinism(tmp_path, capsys):
    path = write(tmp_path, "bell.qc", BELL)
    stats_a = tmp_path / "a.json"
    stats_b = tmp_path / "b.json"
    main(["run", path, "--seed", "9", "--stats", str(stats_a)])
    out_a = capsys.readouterr().out
    main(["run", path, "--seed", "9", "--stats", str(stats_b)])
    out_b = capsys.readouterr().out
    assert out_a == out_b
    da = json.loads(stats_a.read_text())
    db = json.loads(stats_b.read_text())
    assert list(da) == [
        "qubits",
        "max_state_size",
        "gate_count",
        "flush_count",
        "wall_time_ms",
        "threads",
        "seed",
        "success",
    ]
    da.pop("wall_time_ms")
    db.pop("wall_time_ms")
    assert da == db


def test_run_no_queue_matches_default(tmp_path, capsys):
    text = "qubits 3\nh 0\nt 0\ncx 0 1\nrz pi/5 2\nmz 0\nmz 1\nmz 2\n"
    path = write(tmp_path, "prog.qc", text)
    main(["run", path, "--seed", "2", "--dump-final"])
    default = capsys.readouterr().out
    main(["run", path, "--seed", "2", "--dump-final", "--no-queue"])
    noqueue = capsys.readouterr().out
    assert default == noqueue


def test_run_oracle_check_reports_deviation(tmp_path, capsys):
    path = write(tmp_path, "bell.qc", BELL)
    assert main(["run", path, "--seed", "3", "--oracle-check"]) == 0
    out = capsys.readouterr().out
    assert "oracle deviation" in out
    assert "records_match: True" in out


def wide_circuit(n):
    """Every gate family on an n-qubit circuit whose top qubit is in play."""
    top = n - 1
    return (
        f"qubits {n}\nh 0\nh {top}\ncx 0 5\nccx 0 {top} 10\nrx pi/3 {top - 1}\npexp 0.7 XYZ 1 {top} 7\n"
        f"cswap 10 3 {top}\nmz 0\nif c0 == 1 x 2\nif c0 == 0 h 2\nmz {top} 2\n"
    )


def test_run_oracle_check_at_its_width_limit(tmp_path, capsys):
    path = write(tmp_path, "wide.qc", wide_circuit(20))
    assert main(["run", path, "--seed", "3", "--oracle-check"]) == 0
    out = capsys.readouterr().out.splitlines()[-1]
    assert out.endswith("records_match: True")
    assert float(out.split()[2]) <= 1e-10


def test_run_oracle_check_past_its_width_limit_exits_two(tmp_path, capsys):
    path = write(tmp_path, "wide.qc", wide_circuit(21))
    assert main(["run", path, "--seed", "3", "--oracle-check"]) == 2
    assert "oracle check limited to 20 qubits" in capsys.readouterr().err


def test_factor_fifteen(tmp_path, capsys):
    stats = tmp_path / "s.json"
    assert main(["factor", "15", "--stats", str(stats)]) == 0
    assert capsys.readouterr().out.strip() == "3 x 5"
    data = json.loads(stats.read_text())
    assert data["qubits"] == 22
    assert data["success"] is True


def test_factor_qft_adder_uses_smaller_register_file(tmp_path):
    stats = tmp_path / "s.json"
    assert main(["factor", "15", "--adder", "qft", "--stats", str(stats)]) == 0
    assert json.loads(stats.read_text())["qubits"] == 11


def test_factor_prime_power_rejected(capsys):
    assert main(["factor", "9"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["factor", "0"], "modulus must be an odd composite"),
        (["factor", "1"], "modulus must be an odd composite"),
        (["factor", "-1"], "modulus must be an odd composite"),
        (["dlog", "--prime", "0", "--exponent", "1"], "modulus must be an odd prime"),
        (["dlog", "--prime", "1", "--exponent", "1"], "modulus must be an odd prime"),
    ],
    ids=["factor_0", "factor_1", "factor_minus_1", "dlog_0", "dlog_1"],
)
def test_tiny_modulus_exits_two_with_its_own_message(capsys, argv, message):
    # Checked before the register layout, whose one-bit adder would fail with a qubit-range error.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bench", "--suite", "factoring", "--sizes", "15,x", "--reps", "1", "--out", "x.csv"], "bad --sizes '15,x'"),
        (["dlog", "--prime", "11"], "need a target value or an exponent"),
        (["dlog", "--prime", "11", "--target", "11"], "target must be a unit modulo the prime"),
    ],
    ids=["bench_bad_sizes", "dlog_no_target", "dlog_target_not_unit"],
)
def test_rejected_arguments_exit_two(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


def test_dlog_prints_exponent(capsys):
    assert main(["dlog", "--prime", "11", "--base", "2", "--target", "7"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_dlog_conflicting_target_and_exponent_exits_two(capsys):
    # 2^3 mod 11 = 8, not 7; the consistent pair still runs.
    assert main(["dlog", "--prime", "11", "--base", "2", "--target", "7", "--exponent", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: target 7 is not 2^3 mod 11\n"
    assert captured.out == ""
    assert main(["dlog", "--prime", "11", "--base", "2", "--target", "8", "--exponent", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["factor", "35", "--trials", "1", "--seed", "4"], "no factors found"),
        (["dlog", "--prime", "11", "--exponent", "3", "--trials", "1", "--seed", "1"], "no exponent recovered"),
    ],
)
def test_no_result_exits_three_and_still_writes_stats(tmp_path, capsys, argv, message):
    stats = tmp_path / "s.json"
    assert main(argv + ["--stats", str(stats)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert json.loads(stats.read_text())["success"] is False


@pytest.mark.parametrize("argv", [["factor", "15"], ["dlog", "--prime", "11", "--exponent", "3"]])
def test_zero_trials_exits_two(argv, capsys):
    assert main(argv + ["--trials", "0"]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "factor"])
def test_threads_below_one_exits_two(tmp_path, capsys, command, threads):
    argv = ["run", write(tmp_path, "bell.qc", BELL)] if command == "run" else ["factor", "15"]
    assert main(argv + ["--threads", threads]) == 2
    assert "threads must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "factor", "dlog", "bench"])
def test_unwritable_output_exits_two(tmp_path, capsys, command):
    bad = str(tmp_path / "missing" / "out")
    argv = {
        "run": ["run", write(tmp_path, "bell.qc", BELL), "--stats", bad],
        "factor": ["factor", "15", "--stats", bad],
        "dlog": ["dlog", "--prime", "11", "--exponent", "3", "--stats", bad],
        "bench": ["bench", "--suite", "factoring", "--sizes", "15", "--reps", "1", "--out", bad],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,qubits",
    [
        (["factor", "4611685975477714963"], 312),  # 2147483647 x 2147483629, 62 bits
        (["dlog", "--prime", "1152921504606847009", "--exponent", "3"], 307),
        (["bench", "--suite", "dlog", "--sizes", "1152921504606847009", "--reps", "1", "--out", "x.csv"], 307),
    ],
    ids=["factor", "dlog", "bench"],
)
def test_oversized_instance_exits_two_before_factorizing(tmp_path, argv, qubits):
    # Trial division of these moduli runs for minutes, so the register file's qubit cap must be
    # checked first.  A child process lets the timeout fail the test instead of hanging it.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "sparsesim", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: num_qubits must be in [1, 128], got {qubits}\n"


def test_bench_row_counts(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main([
        "bench", "--suite", "factoring", "--sizes", "15,35", "--reps", "3",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "instance,rep,wall_time_ms,max_state_size,success"
    assert len(lines) == 1 + 6


def test_bench_rejects_stats(tmp_path):
    # bench writes only its CSV, so --stats is an argument error rather than a file it never writes.
    csv, js = tmp_path / "b.csv", tmp_path / "s.json"
    argv = ["bench", "--suite", "factoring", "--sizes", "15", "--reps", "1", "--out", str(csv), "--stats", str(js)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not js.exists()


def test_bench_negative_reps_exits_two(tmp_path, capsys):
    out = tmp_path / "none.csv"
    assert main(["bench", "--suite", "dlog", "--sizes", "11", "--reps", "-2", "--out", str(out)]) == 2
    assert "--reps must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["qubits 2\nrz nan 0\nh 0\nmz 0\n", "qubits 3\nh 1\nr1 nan 1\nh 1\n", "qubits 1\nrx pi/0 0\n"]
)
def test_run_non_finite_angle_exits_one(tmp_path, capsys, text):
    assert main(["run", write(tmp_path, "bad.qc", text), "--dump-final"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "factor", "dlog", "bench"])
def test_vanishing_branch_exits_two(tmp_path, capsys, monkeypatch, command):
    from sparsesim.state import SparseState

    def vanish(self, qubits, rng, h=False):
        raise RuntimeError("measured branch has vanishing probability")

    monkeypatch.setattr(SparseState, "measure", vanish)
    argv = {
        "run": ["run", write(tmp_path, "bell.qc", BELL)],
        "factor": ["factor", "15"],
        "dlog": ["dlog", "--prime", "11", "--exponent", "3"],
        "bench": ["bench", "--suite", "factoring", "--sizes", "15", "--reps", "1", "--out", str(tmp_path / "b.csv")],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: measured branch has vanishing probability\n"


def test_bench_zero_reps_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["bench", "--suite", "dlog", "--sizes", "11", "--reps", "0", "--out", str(out)]) == 0
    assert out.read_text().strip() == "instance,rep,wall_time_ms,max_state_size,success"


def test_stats_max_state_size_matches_instrumented_peak():
    # Hook every state replacement and confirm the reported peak agrees.
    from sparsesim import shor
    from sparsesim.simulator import Simulator

    observed = []
    original = Simulator._set_state

    def spy(self, state, size=0):
        observed.append(max(size, len(state)))
        original(self, state, size)

    Simulator._set_state = spy
    try:
        res = shor.run_factoring(shor.FactoringInstance.build(15), seed=1, mbu=True)
    finally:
        Simulator._set_state = original
    assert res.stats.max_state_size == max(observed)
