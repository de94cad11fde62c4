"""The permutation oracle on the drivers: every modular multiplication is x -> factor * x mod N.

Beyond the dense oracle's 20 qubits this is the check that covers each
multiplication, and with MBU each flag readout inside it goes through the
measurement that applies the flag's H itself.
"""

import dataclasses

import pytest
from permutation_oracle import permutation_oracle

from sparsesim import ops, shor
from sparsesim.state import SparseState


def _answer(result):
    if isinstance(result, shor.FactoringResult):
        return result.factors, result.order, result.phase
    return result.exponent, result.phase_pair


# name: (run, checks): one check per phase bit and base.
CASES = {
    "factor143-cdkm-coherent": (lambda: shor.run_factoring(shor.FactoringInstance.build(143), seed=1), 17),
    "factor143-cdkm-mbu": (lambda: shor.run_factoring(shor.FactoringInstance.build(143), seed=1, mbu=True), 17),
    "factor35-qft-mbu": (lambda: shor.run_factoring(shor.FactoringInstance.build(35, "qft"), seed=1, mbu=True), 13),
    "dlog19-cdkm-mbu": (lambda: shor.run_dlog(shor.DlogInstance.build(19, exponent=7), seed=1, mbu=True), 22),
}


@pytest.mark.parametrize("name", CASES)
def test_every_modular_multiplication_is_the_permutation(monkeypatch, name):
    run, checks = CASES[name]
    plain = run()
    fused = []
    original = SparseState.measure

    def spy(self, qubits, rng, h=False):
        fused.append(h)
        return original(self, qubits, rng, h)

    monkeypatch.setattr(SparseState, "measure", spy)
    with permutation_oracle() as oracle:
        checked = run()
    assert oracle.checks == checks
    assert oracle.max_deviation <= 1e-10
    # Every readout, the control's and each MBU flag's, applied its pending H inside the measurement.
    assert fused == [True] * checked.sim_stats.measurement_count
    # The copies draw nothing and leave the run alone.
    assert _answer(checked) == _answer(plain)
    assert checked.measurements == plain.measurements
    assert dataclasses.astuple(checked.sim_stats) == dataclasses.astuple(plain.sim_stats)


def test_oracle_rejects_a_dropped_phase_repair(monkeypatch):
    monkeypatch.setattr(ops, "z", lambda q, controls=(): ops.r1(0.0, q, controls))  # the MBU repair, made an identity
    run = CASES["factor143-cdkm-mbu"][0]
    assert run().factors == (11, 13)  # the answer alone does not show it
    with pytest.raises(AssertionError, match="amplitude deviation"):
        with permutation_oracle():
            run()


@pytest.mark.parametrize("name", ["factor143-cdkm-coherent", "factor143-cdkm-mbu"])
def test_oracle_rejects_a_wrong_factor(name):
    real = shor.ctrl_modmul

    def negated(sim, lay, controls, factor, modulus, mbu=False):
        real(sim, lay, controls, modulus - factor, modulus, mbu)

    with pytest.raises(AssertionError, match="call 1 .*labels differ"):
        with permutation_oracle(negated):
            CASES[name][0]()
