"""Workloads of the sparsesim benchmark: inputs from a seed, runs, output checks.

A workload is a list of driver instances (factoring or discrete log) or one
generated circuit.  One repetition ("rep") runs every instance once:

* a driver instance is run attempt by attempt through ``shor.run_factoring``
  or ``shor.run_dlog`` with seeds ``seed, seed+1, ...``, stopping at the first
  success or after ``TRIALS`` attempts, exactly as ``factor_with_retries`` and
  ``dlog_with_retries`` do.  Driving the attempts here lets the benchmark sum
  gates and time over every attempt; the retry wrappers report only the last.
* the circuit is parsed with ``parse_circuit`` and run with ``run_program``.

The timed region of an attempt is the simulate call alone.  Checks run
outside it.  An attempt fails when it raises, when a returned answer is wrong,
when the register count or peak state size differs from the published table,
or when its measurement record differs from the first rep of the same seed.
An attempt that returns no answer fails only when its phase readout holds the
answer (see ``readout_has_answer``), so answers may not come later than the
readouts allow.  Otherwise it is not a failure: the algorithms succeed with a
probability below one per attempt (about 1/3 for the discrete log modulo 19),
which is why the drivers retry.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from dataclasses import dataclass, field

from sparsesim import ir, shor, simulator

TRIALS = 5
CIRCUIT_THREADS = 2
DUMP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DriverInstance:
    """One driver call as the CLI would make it (``factor N`` / ``dlog``)."""

    label: str
    kind: str  # "factor" or "dlog"
    modulus: int
    adder: str
    mbu: bool
    answer: object  # sorted factor pair, or the discrete-log exponent
    peak: int | None  # published max_state_size; None when no table row exists

    @property
    def qubits(self) -> int:
        n = self.modulus.bit_length()
        return 2 * n + 3 if self.adder == "qft" else 5 * n + 2

    def build_source(self) -> str:
        """Python source that builds the instance, for the set-up probe."""
        if self.kind == "factor":
            return f"shor.FactoringInstance.build({self.modulus}, {self.adder!r})"
        return f"shor.DlogInstance.build({self.modulus}, exponent={self.answer}, adder={self.adder!r})"

    def build(self):
        if self.kind == "factor":
            return shor.FactoringInstance.build(self.modulus, self.adder)
        return shor.DlogInstance.build(self.modulus, exponent=self.answer, adder=self.adder)

    def attempt(self, built, seed: int):
        if self.kind == "factor":
            return shor.run_factoring(built, seed=seed, mbu=self.mbu)
        return shor.run_dlog(built, seed=seed, mbu=self.mbu)

    def answer_of(self, result):
        return result.factors if self.kind == "factor" else result.exponent

    def readout_has_answer(self, built, result) -> bool:
        """Whether the attempt's phase readout determines the answer.

        A readout does when it is the nearest ``phase_bits``-bit phase to
        s/r for an s coprime to the order r (for the discrete log, with the
        second readout nearest to s*d/r).  Then rounding the readout to a
        multiple of 1/r gives s/r exactly, it is a continued-fraction
        convergent of the readout, and for factoring an even r with
        g^(r/2) != -1 splits the modulus.  Readouts off the nearest phase may
        hold the answer too; they are not counted.
        """
        bits = built.phase_bits
        if self.kind == "factor":
            g, n = built.generator, built.modulus
            r = _order(g, n)
            if r % 2 or pow(g, r // 2, n) == n - 1:
                return False
            s = _phase_numerator(result.phase, r, bits)
            return s is not None and math.gcd(s, r) == 1
        r = _order(built.base, built.prime)
        j, k = result.phase_pair
        s = _phase_numerator(j, r, bits)
        return s is not None and math.gcd(s, r) == 1 and _nearest_phase(s * self.answer % r, r, bits) == k


@dataclass(frozen=True)
class CircuitInstance:
    """A generated circuit whose final state is exactly |0...0>."""

    label: str
    num_qubits: int
    blocks: int
    width: int
    measured: int
    run_len: int

    def text(self, seed: int) -> str:
        return wide_circuit_text(seed, self.num_qubits, self.blocks, self.width, self.measured, self.run_len)


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple


def _order(g: int, n: int) -> int:
    r, x = 1, g % n
    while x != 1:
        r, x = r + 1, x * g % n
    return r


def _nearest_phase(s: int, r: int, bits: int) -> int:
    """round(s * 2^bits / r) modulo 2^bits."""
    return (((s << (bits + 1)) + r) // (2 * r)) % (1 << bits)


def _phase_numerator(j: int, r: int, bits: int) -> int | None:
    """The s in [0, r) whose nearest phase is j, if any."""
    s = (j * r + (1 << (bits - 1))) >> bits
    return s % r if _nearest_phase(s % r, r, bits) == j else None


def _factor(modulus, adder, mbu, answer, peak):
    mode = "MBU" if mbu else "coherent"
    return DriverInstance(f"factor {modulus} {adder} {mode}", "factor", modulus, adder, mbu, answer, peak)


def _dlog(prime, exponent, mbu, peak):
    mode = "MBU" if mbu else "coherent"
    return DriverInstance(f"dlog {prime}^{exponent} cdkm {mode}", "dlog", prime, "cdkm", mbu, exponent, peak)


# Full-size workloads.  The peaks are the rows of the paper's state-size table.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "shor_small",
            (
                _factor(143, "cdkm", False, (11, 13), 120),
                _factor(143, "cdkm", True, (11, 13), 120),
                _dlog(19, 7, False, 36),
                _dlog(19, 7, True, 72),
            ),
        ),
        Workload("factor3599_mbu", (_factor(3599, "cdkm", True, (59, 61), 3480),)),
        Workload("factor35_qft", (_factor(35, "qft", False, (5, 7), 1536),)),
        Workload("factor5183_mbu", (_factor(5183, "cdkm", True, (71, 73), 5040),)),
        Workload("circuit_wide", (CircuitInstance("circuit 40q", 40, 3, 15, 2, 70),)),
    )
}

# Reduced sizes for the self-test: same code paths, a fraction of the time.
REDUCED = {
    "shor_small": Workload(
        "shor_small",
        (
            _factor(15, "cdkm", False, (3, 5), None),
            _factor(15, "cdkm", True, (3, 5), None),
            _dlog(11, 3, False, None),
            _dlog(11, 3, True, None),
        ),
    ),
    "factor3599_mbu": Workload("factor3599_mbu", (_factor(143, "cdkm", True, (11, 13), 120),)),
    "factor35_qft": Workload("factor35_qft", (_factor(15, "qft", False, (3, 5), None),)),
    "factor5183_mbu": Workload("factor5183_mbu", (_factor(21, "cdkm", True, (3, 7), None),)),
    "circuit_wide": Workload("circuit_wide", (CircuitInstance("circuit 20q", 20, 2, 8, 2, 70),)),
}


# -- circuit generation ------------------------------------------------------


def wide_circuit_text(seed: int, num_qubits: int, blocks: int, width: int, measured: int, run_len: int) -> str:
    """Circuit text that returns to |0...0> with amplitude 1.

    Each block puts ``width`` random qubits S in superposition, runs a
    phase/permutation sequence R (cx, ccx, swap, ct, rz, cr1, plus one rx and
    one ry on a qubit outside S), measures ``measured`` qubits M of S, then
    applies R^-1 and H on S minus M, resets M with ``if c<k> == 1 x q`` and
    measures the joint Z parity of the rest, which is 0 with certainty.  R
    only reads M (as a control or a phase), so the projection commutes with
    R and R^-1 undoes R exactly.  The joint measurement forces every pending
    slot of the block out, so each block starts from the one-entry state.
    """
    rng = random.Random(seed)
    lines = [f"qubits {num_qubits}"]
    n_meas = 0
    for _ in range(blocks):
        chosen = rng.sample(range(num_qubits), width + 1)
        sup, rot = chosen[:width], chosen[width]
        meas = set(sup[:measured])
        writable = [q for q in range(num_qubits) if q not in meas]

        def angle():
            return round(rng.uniform(-math.pi, math.pi), 6)

        def gate():
            pick = rng.randrange(6)
            if pick == 0:
                t = rng.choice(writable)
                c = rng.choice([q for q in range(num_qubits) if q != t])
                return f"cx {c} {t}", f"cx {c} {t}"
            if pick == 1:
                t = rng.choice(writable)
                c1, c2 = rng.sample([q for q in range(num_qubits) if q != t], 2)
                return f"ccx {c1} {c2} {t}", f"ccx {c1} {c2} {t}"
            if pick == 2:
                a, b = rng.sample(writable, 2)
                return f"swap {a} {b}", f"swap {a} {b}"
            if pick == 3:
                c, t = rng.sample(range(num_qubits), 2)
                return f"ct {c} {t}", f"ctdg {c} {t}"
            if pick == 4:
                q, th = rng.randrange(num_qubits), angle()
                return f"rz {th!r} {q}", f"rz {-th!r} {q}"
            c, t = rng.sample(range(num_qubits), 2)
            th = angle()
            return f"cr1 {th!r} {c} {t}", f"cr1 {-th!r} {c} {t}"

        pairs = []
        for q in sup:  # touching each H'd qubit flushes its slot: the map grows to 2^width
            th = angle()
            pairs.append((f"rz {th!r} {q}", f"rz {-th!r} {q}"))
        pairs.extend(gate() for _ in range(run_len))
        th = angle()
        pairs.append((f"rx {th!r} {rot}", f"rx {-th!r} {rot}"))
        t = rng.choice([q for q in writable if q != rot])
        pairs.append((f"cx {rot} {t}", f"cx {rot} {t}"))  # flushes the rx: 2^(width+1) entries
        pairs.extend(gate() for _ in range(run_len))
        th = angle()
        pairs.append((f"ry {th!r} {rot}", f"ry {-th!r} {rot}"))

        lines.extend(f"h {q}" for q in sup)
        lines.extend(fwd for fwd, _ in pairs)
        first = n_meas
        lines.extend(f"mz {q}" for q in sup[:measured])
        n_meas += measured
        lines.extend(inv for _, inv in reversed(pairs))
        lines.extend(f"h {q}" for q in sup[measured:])
        lines.extend(f"if c{first + i} == 1 x {q}" for i, q in enumerate(sup[:measured]))
        lines.append("mz " + " ".join(str(q) for q in sup[measured:] + [rot]))
        n_meas += 1
    return "\n".join(lines) + "\n"


# -- running and checking ----------------------------------------------------


@dataclass
class Attempt:
    seconds: float
    gates: int
    peak: int
    record: tuple  # what must repeat exactly for one seed
    sim_stats: object
    error: str | None = None
    success: bool = True


@dataclass
class InstanceRun:
    label: str
    attempts: list[Attempt] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(a.seconds for a in self.attempts)


def _check_driver(inst: DriverInstance, built, result) -> str | None:
    got = inst.answer_of(result)
    if got is not None and got != inst.answer:
        return f"{inst.label}: answer {got!r}, expected {inst.answer!r}"
    if got is None and inst.readout_has_answer(built, result):
        return f"{inst.label}: no answer, although the phase readout determines it"
    if result.stats.qubits != inst.qubits:
        return f"{inst.label}: {result.stats.qubits} qubits, budget is {inst.qubits}"
    if inst.peak is not None and result.stats.max_state_size != inst.peak:
        return f"{inst.label}: peak {result.stats.max_state_size} entries, table says {inst.peak}"
    return None


def _check_circuit(inst: CircuitInstance, result) -> str | None:
    if result.stats.qubits != inst.num_qubits:
        return f"{inst.label}: {result.stats.qubits} qubits, expected {inst.num_qubits}"
    dump = result.dump
    if len(dump) != 1 or dump[0][0] != 0 or abs(dump[0][1] - 1) > DUMP_TOLERANCE:
        head = dump[:3]
        return f"{inst.label}: final state {head}{'...' if len(dump) > 3 else ''} is not |0...0> with amplitude 1"
    return None


def _run_driver(inst: DriverInstance, built, seed: int) -> InstanceRun:
    run = InstanceRun(inst.label)
    for a in range(TRIALS):
        try:
            t0 = time.perf_counter()
            result = inst.attempt(built, seed + a)
            dt = time.perf_counter() - t0
        except Exception:  # a crash counts as a failed attempt; keep measuring
            run.attempts.append(Attempt(0.0, 0, 0, (), None, traceback.format_exc(), False))
            return run
        record = (tuple(result.measurements), result.stats.max_state_size, result.stats.gate_count)
        run.attempts.append(
            Attempt(
                dt,
                result.stats.gate_count,
                result.stats.max_state_size,
                record,
                result.sim_stats,
                _check_driver(inst, built, result),
                result.success,
            )
        )
        if result.success:
            break
    return run


def _run_circuit(inst: CircuitInstance, text: str, seed: int) -> InstanceRun:
    run = InstanceRun(inst.label)
    try:
        t0 = time.perf_counter()
        program = ir.parse_circuit(text)
        result = simulator.run_program(program, seed=seed, threads=CIRCUIT_THREADS)
        dt = time.perf_counter() - t0
    except Exception:
        run.attempts.append(Attempt(0.0, 0, 0, (), None, traceback.format_exc(), False))
        return run
    record = (tuple(result.measurements), result.stats.max_state_size, result.stats.gate_count)
    run.attempts.append(
        Attempt(dt, result.stats.gate_count, result.stats.max_state_size, record, result.sim_stats, _check_circuit(inst, result))
    )
    return run


class WorkloadRunner:
    """Builds a workload's inputs once, then runs and checks reps of it."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs = [
            inst.text(seed) if isinstance(inst, CircuitInstance) else inst.build() for inst in workload.instances
        ]
        self.reference: list[list[tuple]] | None = None

    def rep(self) -> list[InstanceRun]:
        runs = []
        for inst, inp in zip(self.workload.instances, self.inputs):
            if isinstance(inst, CircuitInstance):
                runs.append(_run_circuit(inst, inp, self.seed))
            else:
                runs.append(_run_driver(inst, inp, self.seed))
        records = [[a.record for a in r.attempts] for r in runs]
        if self.reference is None:
            self.reference = records
        elif records != self.reference:
            for r, got, want in zip(runs, records, self.reference):
                if got != want:
                    for a in r.attempts:
                        a.error = a.error or f"{r.label}: measurement record or peak differs from the first rep"
        return runs
