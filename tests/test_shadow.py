"""Lockstep dense shadow of the factoring and dlog drivers.

A ``Simulator`` subclass mirrors every gate the drivers send onto a dense
vector over the working qubits and measures it from the same seed, so the
paths the random-program corpus never reaches (the lowered adder's one
``extend``, MBU's H-then-measure with its phase repair, the cdkm coherent
uncompute, feed-forward ``r1`` corrections, the qft layout's basis changes,
slots pending at a measurement)
are checked against the oracle gate by gate, not only by their answers.
"""

import dataclasses

import pytest

from sparsesim import shor
from sparsesim.dense import DenseState, compare
from sparsesim.simulator import Simulator
from sparsesim.state import SparseState


def shadowed(dense_qubits: int, made: list):
    """A Simulator class whose instances mirror onto a ``dense_qubits``-qubit DenseState; each is appended to ``made``."""

    class Shadow(Simulator):
        def __init__(self, num_qubits, *, seed=0, **kwargs):
            super().__init__(num_qubits, seed=seed, **kwargs)
            self.dense = DenseState(dense_qubits, seed)
            self.mirror = True
            made.append(self)

        def apply(self, op):
            super().apply(op)
            if self.mirror and op.kind != "mz":
                self.dense.apply(op)

        def apply_lowered(self, block):
            # The parent may fall back to apply_all; mirror the block once, here.
            self.mirror = False
            try:
                super().apply_lowered(block)
            finally:
                self.mirror = True
            for op in block.ops:
                self.dense.apply(op)

        def measure(self, qubits):
            outcome = super().measure(qubits)
            assert self.dense.measure(tuple(qubits)) == outcome
            return outcome

    return Shadow


# (instance, run, mbu, seed, dense qubits): 3n+5 working qubits on cdkm (its idle workspace is
# never touched), all 2n+3 on qft.
CASES = [
    pytest.param(lambda: shor.FactoringInstance.build(15, "qft"), shor.run_factoring, False, 1, 11, id="factor15-qft"),
    pytest.param(lambda: shor.FactoringInstance.build(15, "qft"), shor.run_factoring, True, 1, 11, id="factor15-qft-mbu"),
    pytest.param(lambda: shor.DlogInstance.build(11, exponent=7, adder="qft"), shor.run_dlog, True, 1, 11, id="dlog11-qft-mbu"),
    pytest.param(lambda: shor.FactoringInstance.build(15, "cdkm"), shor.run_factoring, True, 3, 17, id="factor15-cdkm-mbu"),
    pytest.param(lambda: shor.FactoringInstance.build(15, "cdkm"), shor.run_factoring, False, 1, 17, id="factor15-cdkm"),
]


@pytest.mark.parametrize("build,run,mbu,seed,dense_qubits", CASES)
def test_driver_matches_dense_shadow(monkeypatch, build, run, mbu, seed, dense_qubits):
    instance = build()
    plain = run(instance, seed=seed, mbu=mbu)
    made = []
    monkeypatch.setattr(shor, "Simulator", shadowed(dense_qubits, made))
    res = run(instance, seed=seed, mbu=mbu)
    [sim] = made
    # The shadow only watches: the scheduling, and so every counter, is that of an unshadowed run.
    assert res.measurements == plain.measurements
    assert dataclasses.astuple(res.sim_stats) == dataclasses.astuple(plain.sim_stats)
    assert sim.dense.measurements == res.measurements
    assert not sim.queue.records and not sim.slots  # the driver flushed at the end
    assert max(sim.state.amps) >> dense_qubits == 0
    assert compare(sim.dense, SparseState(dense_qubits, sim.state.amps)) <= 1e-10
