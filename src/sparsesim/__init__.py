"""Sparse state-vector quantum circuit simulator."""

from .dense import DenseState, compare, run_dense_program
from .ir import (
    CircuitSyntaxError,
    Conditional,
    GateOp,
    Program,
    format_program,
    parse_circuit,
)
from .permqueue import PhasePermQueue
from .simulator import RunResult, RunStats, SimStats, Simulator, run_program
from .state import (
    MAX_QUBITS,
    PRUNE_EPS,
    MeasurementOutcome,
    PairwiseBlock,
    SparseState,
    new_wavefunction,
)

__all__ = [
    "CircuitSyntaxError",
    "Conditional",
    "DenseState",
    "GateOp",
    "MAX_QUBITS",
    "MeasurementOutcome",
    "PRUNE_EPS",
    "PairwiseBlock",
    "PhasePermQueue",
    "Program",
    "RunResult",
    "RunStats",
    "SimStats",
    "Simulator",
    "SparseState",
    "compare",
    "format_program",
    "new_wavefunction",
    "parse_circuit",
    "run_dense_program",
    "run_program",
]
