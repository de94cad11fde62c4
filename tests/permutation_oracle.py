"""Permutation oracle: every ``shor.ctrl_modmul`` must act as x -> factor * x mod N where its controls hold.

Each modular multiplication has a known classical effect.  Every other qubit
of the layout must come back unchanged, and so must every amplitude, phase
repairs included.  Emulators use this to skip the arithmetic (Häner, Steiger,
Smelyanskiy and Troyer 2016, arXiv:1604.06460).  Here it only checks, at any
size the sparse map reaches, where the dense oracle stops at 20 qubits.

Before and after each call the wrapper copies the simulator (its state, queue
records, slots and stats), flushes the copy and compares the after-map with
the before-map relabelled by the permutation: labels exactly, amplitudes
within ``TOLERANCE``.  The copy draws no random number, so the run is left as
it would be without the oracle.  It does not check the control's H, the
``r1`` corrections or anything else between multiplications.

As a script it factors each modulus given (cdkm adder, MBU, seed 1) under the
oracle, prints the check count and the largest deviation, and exits 1 when a
check fails::

    PYTHONPATH=src python tests/permutation_oracle.py 3599 10403
"""

from __future__ import annotations

import copy
import sys
from contextlib import contextmanager

from sparsesim import shor
from sparsesim.ir import qubit_mask
from sparsesim.state import SparseState

TOLERANCE = 1e-10


def flushed_amps(sim) -> dict[int, complex]:
    """The map ``sim`` holds once its queue and slots are flushed, computed on a copy."""
    twin = copy.copy(sim)
    twin.state = SparseState(sim.num_qubits, dict(sim.state.amps))
    twin.queue = copy.deepcopy(sim.queue)
    twin.slots = copy.deepcopy(sim.slots)
    twin.stats = copy.copy(sim.stats)
    twin.rng = None  # a flush never draws; this makes sure of it
    twin.flush()
    return twin.state.amps


def permuted(amps: dict[int, complex], x_reg, controls, factor: int, modulus: int) -> dict[int, complex]:
    """``amps`` with x -> factor * x mod modulus applied to the labels on which every control is set."""
    cmask = qubit_mask(controls)
    out = {}
    for b, amp in amps.items():
        if b & cmask == cmask:
            x = sum((b >> q & 1) << i for i, q in enumerate(x_reg))
            diff = x ^ (factor * x % modulus)
            for i, q in enumerate(x_reg):
                b ^= (diff >> i & 1) << q
        out[b] = amp
    return out


class PermutationOracle:
    """Counts the checked calls and keeps the largest amplitude deviation; a failed check raises ``AssertionError``."""

    def __init__(self) -> None:
        self.checks = 0
        self.max_deviation = 0.0

    def check(self, before, after, lay, controls, factor: int, modulus: int) -> None:
        want = permuted(before, lay.x, controls, factor, modulus)
        self.checks += 1
        where = f"ctrl_modmul call {self.checks} (x -> {factor} * x mod {modulus})"
        if want.keys() != after.keys():
            missing, extra = len(want.keys() - after.keys()), len(after.keys() - want.keys())
            raise AssertionError(f"{where}: labels differ, {missing} missing and {extra} extra")
        deviation = max((abs(after[b] - a) for b, a in want.items()), default=0.0)
        self.max_deviation = max(self.max_deviation, deviation)
        if deviation > TOLERANCE:
            raise AssertionError(f"{where}: amplitude deviation {deviation:.3g} exceeds {TOLERANCE:g}")

    def wrap(self, ctrl_modmul):
        def checked(sim, lay, controls, factor, modulus, mbu=False):
            before = flushed_amps(sim)
            ctrl_modmul(sim, lay, controls, factor, modulus, mbu)
            self.check(before, flushed_amps(sim), lay, controls, factor, modulus)

        return checked


@contextmanager
def permutation_oracle(ctrl_modmul=None):
    """Check every ``shor.ctrl_modmul`` call inside the block; ``ctrl_modmul`` stands in for the real one (mutants)."""
    oracle = PermutationOracle()
    original = shor.ctrl_modmul
    shor.ctrl_modmul = oracle.wrap(ctrl_modmul or original)
    try:
        yield oracle
    finally:
        shor.ctrl_modmul = original


def main(argv: list[str]) -> int:
    failed = False
    for modulus in map(int, argv):
        instance = shor.FactoringInstance.build(modulus)
        with permutation_oracle() as oracle:
            try:
                result = shor.run_factoring(instance, seed=1, mbu=True)
                verdict = f"factors {result.factors}"
            except AssertionError as err:
                failed, verdict = True, f"FAILED: {err}"
        failed |= oracle.checks == 0
        print(
            f"factor {modulus} cdkm mbu seed 1 ({instance.layout.num_qubits} qubits): {oracle.checks} checks, "
            f"largest deviation {oracle.max_deviation:.2e}; {verdict}"
        )
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
