import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsesim import ops
from sparsesim.dense import DenseState, compare, run_dense_program
from sparsesim.ir import GateOp, Program
from sparsesim.simulator import Simulator, run_program
from sparsesim.state import SparseState

sys.path.insert(0, str(Path(__file__).parent))
from progutil import conditional_programs, random_program

SQRT_HALF = math.sqrt(0.5)


def test_h_on_zero():
    d = DenseState(1)
    d.apply(GateOp("h", (0,)))
    assert d.vec[0] == pytest.approx(SQRT_HALF)
    assert d.vec[1] == pytest.approx(SQRT_HALF)


def test_x_on_zero():
    d = DenseState(1)
    d.apply(GateOp("x", (0,)))
    assert d.vec[0] == 0
    assert d.vec[1] == 1


def test_qubit_cap():
    with pytest.raises(ValueError):
        DenseState(21)


def test_rz_global_phase_convention_matches_sparse():
    # Rz on |+> must match the sparse path exactly, global phase included.
    prog = Program(1, [GateOp("h", (0,)), GateOp("rz", (0,), (), 0.9)])
    dense = run_dense_program(prog, seed=0)
    sparse_res = run_program(prog, seed=0)
    sparse = SparseState(1, dict(sparse_res.dump))
    assert compare(dense, sparse) < 1e-12


def test_measure_draw_compared_against_normalised_probability():
    # Same rule as SparseState.measure: squared norm 0.81, all of it even, draw 0.95.
    dense = DenseState(1)
    dense.vec[0] = 0.9
    dense.rng = SimpleNamespace(random=lambda: 0.95)
    assert dense.measure([0]) == 0
    assert dense.vec[0] == pytest.approx(1.0)


def test_measure_never_draws_a_vanishing_branch():
    # Even weight 1e-24 = PRUNE_EPS**2: a draw of 0.0 still selects the odd branch, unscaled.
    dense = DenseState(1)
    dense.vec[:] = [1e-12, 1.0]
    dense.rng = SimpleNamespace(random=lambda: 0.0)
    assert dense.measure([0]) == 1
    assert list(dense.vec) == [0.0, 1.0]


def test_measure_raises_when_both_branches_vanish():
    dense = DenseState(1)
    dense.vec[:] = [1e-13, 1e-13]
    dense.rng = SimpleNamespace(random=lambda: 0.5)
    with pytest.raises(RuntimeError, match="vanishing probability"):
        dense.measure([0])


@pytest.mark.parametrize("axes,qubits", [("XQ", [0, 1]), ("Q", [0])])
def test_unknown_pauli_axis_rejected_by_both_simulators(axes, qubits):
    op = ops.pexp(0.7, axes, qubits)
    for sim in (Simulator(2), DenseState(2)):
        with pytest.raises(ValueError, match="Pauli axes must be X, Y or Z"):
            sim.apply(op)


def test_compare_identical_states_is_zero():
    prog = Program(2, [GateOp("h", (0,)), GateOp("x", (1,), (0,))])
    dense = run_dense_program(prog, seed=0)
    sparse = SparseState(2, {0: SQRT_HALF + 0j, 3: SQRT_HALF + 0j})
    assert compare(dense, sparse) == pytest.approx(0.0, abs=1e-15)


def test_compare_missing_sparse_entry_counts_fully():
    dense = DenseState(2)
    dense.vec[:] = 0
    dense.vec[1] = 0.1
    sparse = SparseState(2, {})
    assert compare(dense, sparse) == pytest.approx(0.1)


def test_compare_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        compare(DenseState(2), SparseState(3, {}))


def test_random_ten_qubit_program_deviation():
    prog = random_program(987, max_qubits=10, max_gates=200)
    dense = run_dense_program(prog, seed=987)
    res = run_program(prog, seed=987)
    sparse = SparseState(prog.num_qubits, dict(res.dump))
    assert compare(dense, sparse) <= 1e-10
    assert dense.measurements == res.measurements


@settings(derandomize=True, max_examples=300, deadline=None)
@given(conditional_programs(), st.integers(0, 2**16))
def test_conditional_programs_match_dense_oracle(prog, seed):
    dense = run_dense_program(prog, seed=seed)
    res = run_program(prog, seed=seed)
    assert compare(dense, SparseState(prog.num_qubits, dict(res.dump))) <= 1e-10
    assert dense.measurements == res.measurements


# Textbook matrices, independent of the oracle's own tables.
PAULI = {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
FIXED = {
    "x": PAULI["X"],
    "y": PAULI["Y"],
    "z": PAULI["Z"],
    "h": np.array([[1, 1], [1, -1]]) * SQRT_HALF,
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, np.exp(0.25j * np.pi)]),
    "tdg": np.diag([1, np.exp(-0.25j * np.pi)]),
}
ROTATION = {
    "r1": lambda a: np.diag([1, np.exp(1j * a)]),
    "rx": lambda a: np.cos(a / 2) * np.eye(2) - 1j * np.sin(a / 2) * PAULI["X"],
    "ry": lambda a: np.cos(a / 2) * np.eye(2) - 1j * np.sin(a / 2) * PAULI["Y"],
    "rz": lambda a: np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)]),
}
PEXP_AXES = ["X", "Y", "Z", "XX", "XY", "YY", "ZZ", "XZ", "YZ", "XYZ", "YYY", "ZXY"]


def embed(factors: dict, n: int) -> np.ndarray:
    """Kronecker product over qubits n-1..0 (qubit q is label bit q) of ``factors[q]``, identity elsewhere."""
    m = np.eye(1)
    for q in reversed(range(n)):
        m = np.kron(m, factors.get(q, np.eye(2)))
    return m


def gate_matrix(kind, targets, controls, angle, axes, n) -> np.ndarray:
    if kind == "swap":
        i, j = targets
        u = (np.eye(1 << n) + sum(embed({i: p, j: p}, n) for p in PAULI.values())) / 2
    elif kind == "pexp":
        string = embed({q: PAULI[a] for q, a in zip(targets, axes)}, n)
        u = np.cos(angle / 2) * np.eye(1 << n) - 1j * np.sin(angle / 2) * string
    else:
        u = embed({targets[0]: FIXED[kind] if kind in FIXED else ROTATION[kind](angle)}, n)
    on = embed({c: np.diag([0, 1]) for c in controls}, n)
    return np.eye(1 << n) - on + on @ u


GATE_CASES = [(k, 1, None) for k in FIXED] + [(k, 1, None) for k in ROTATION] + [("swap", 2, None)]
GATE_CASES += [("pexp", len(axes), axes) for axes in PEXP_AXES]


@pytest.mark.parametrize("kind,width,axes", GATE_CASES, ids=[f"pexp-{a}" if a else k for k, _, a in GATE_CASES])
def test_every_gate_kind_matches_an_explicit_matrix(kind, width, axes):
    rng = np.random.default_rng(sum(map(ord, kind + (axes or ""))))
    for n in range(width, 5):
        for n_controls in range(min(2, n - width) + 1):
            for _ in range(3):
                qubits = [int(q) for q in rng.permutation(n)[: width + n_controls]]
                targets, controls = tuple(qubits[:width]), tuple(qubits[width:])
                angle = float(rng.uniform(-3.2, 3.2)) if kind in ROTATION or kind == "pexp" else None
                psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                psi /= np.linalg.norm(psi)
                dense = DenseState(n)
                dense.vec[:] = psi
                dense.apply(GateOp(kind, targets, controls, angle, axes or ()))
                want = gate_matrix(kind, targets, controls, angle, axes, n) @ psi
                assert np.abs(dense.vec - want).max() <= 1e-12, (n, targets, controls, angle)
