import math
import sys
from pathlib import Path
from types import SimpleNamespace

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
