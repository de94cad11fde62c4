"""Order finding and discrete-log drivers built on the sparse simulator.

Phase estimation reuses a single control qubit: for each phase bit the
driver applies H, a controlled modular multiplication, a classically
conditioned phase correction derived from the bits already measured, a
second H, and a measure-and-reset.  Modular addition keeps the running
value in [0, N) with an add / compare / conditional-subtract sequence; the
comparison flag is uncomputed either coherently (default) or by measuring
it in the X basis and repairing the phase.  The measurement applies the
flag's H itself, so the doubled map it needs is counted in the peak but
never stored.  With the Fourier-basis adder, y is in the Fourier
basis inside each loop of modular additions (Beauregard's schedule) and in
the computational basis between the loops.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import ops, state
from .arithmetic import Reg, cdkm_add, cswap_regs, iqft, load_const, phi_add_const, qft
from .scheduler import Lowered, lower
from .simulator import RunStats, SimStats, Simulator

# -- classical number theory helpers ------------------------------------


def factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def is_prime_power(n: int) -> bool:
    return len(factorize(n)) == 1


def carmichael(n: int) -> int:
    """Largest multiplicative order attainable modulo n."""
    lam = 1
    for p, k in factorize(n).items():
        if p == 2 and k >= 3:
            block = 1 << (k - 2)
        else:
            block = (p - 1) * p ** (k - 1)
        lam = lam * block // math.gcd(lam, block)
    return lam


def _reduce_to_order(x: int, g: int, n: int) -> int:
    """Smallest divisor d of x with g^d = 1 (mod n); x must satisfy g^x = 1."""
    for p in factorize(x):
        while x % p == 0 and pow(g, x // p, n) == 1:
            x //= p
    return x


def multiplicative_order(g: int, n: int) -> int:
    if math.gcd(g, n) != 1:
        raise ValueError(f"{g} is not a unit modulo {n}")
    return _reduce_to_order(carmichael(n), g, n)


def max_order_generator(n: int) -> int:
    """Smallest unit modulo n whose order equals the group exponent."""
    lam = carmichael(n)
    for g in range(2, n):
        if math.gcd(g, n) == 1 and _reduce_to_order(lam, g, n) == lam:
            return g
    raise ValueError(f"no generator of maximal order modulo {n}")


def _convergent_denominators(j: int, phase_bits: int, bound: int) -> list[int]:
    """Denominators of the convergents of j / 2^phase_bits below ``bound``."""
    num, den = j, 1 << phase_bits
    out: list[int] = []
    # k_i = a_i * k_{i-1} + k_{i-2} with k_{-2}=1, k_{-1}=0.
    k_prev, k = 1, 0
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        k_prev, k = k, a * k + k_prev
        if k >= bound:
            break
        if k > 0:
            out.append(k)
    return out


MAX_MULTIPLE = 128  # largest multiple of a convergent denominator that order_from_phase tests


def order_from_phase(j: int, phase_bits: int, g: int, n: int) -> int | None:
    """Order from the convergents of j / 2^phase_bits, or None (j = 0 included).

    When the sampled eigenvalue index shares a factor with the order, a
    convergent denominator is only a divisor of it, so small multiples of the
    denominators are tested too.  Any multiple of the order reduces to the
    order itself, so the first one found gives the answer.
    """
    if j == 0:
        return None
    for k in _convergent_denominators(j, phase_bits, n):
        for t in range(1, MAX_MULTIPLE + 1):
            if k * t >= n:
                break
            if pow(g, k * t, n) == 1:
                return _reduce_to_order(k * t, g, n)
    return None


# -- instances -----------------------------------------------------------


@dataclass(frozen=True)
class FactoringInstance:
    modulus: int
    generator: int
    order: int
    phase_bits: int
    layout: Layout

    @classmethod
    def build(cls, modulus: int, adder: str = "cdkm", generator: int | None = None) -> "FactoringInstance":
        if modulus < 9 or modulus % 2 == 0:  # before the layout, whose adder needs n >= 2
            raise ValueError("modulus must be an odd composite")
        layout = Layout.for_instance(modulus.bit_length(), adder)  # before trial division: bad adder or too many qubits
        if is_prime_power(modulus):
            raise ValueError("modulus must have at least two distinct prime factors")
        if generator is None:
            generator = max_order_generator(modulus)
        if math.gcd(generator, modulus) != 1:
            raise ValueError("generator must be a unit modulo the modulus")
        return cls(modulus, generator, multiplicative_order(generator, modulus), 2 * len(layout.x) + 1, layout)


@dataclass(frozen=True)
class DlogInstance:
    prime: int
    base: int
    target: int
    order: int
    phase_bits: int
    layout: Layout

    @classmethod
    def build(
        cls,
        prime: int,
        base: int | None = None,
        target: int | None = None,
        exponent: int | None = None,
        adder: str = "cdkm",
    ) -> "DlogInstance":
        if prime < 3:  # before the layout, whose adder needs n >= 2
            raise ValueError("modulus must be an odd prime")
        layout = Layout.for_instance(prime.bit_length(), adder)  # before trial division: bad adder or too many qubits
        if not is_prime(prime):
            raise ValueError("modulus must be an odd prime")
        order = prime - 1
        if base is None:
            base = max_order_generator(prime)
        elif multiplicative_order(base, prime) != order:
            raise ValueError(f"{base} does not generate the full group modulo {prime}")
        if target is None:
            if exponent is None:
                raise ValueError("need a target value or an exponent")
            target = pow(base, exponent, prime)
        elif exponent is not None and pow(base, exponent, prime) != target:
            raise ValueError(f"target {target} is not {base}^{exponent} mod {prime}")
        if not 1 <= target < prime or math.gcd(target, prime) != 1:
            raise ValueError("target must be a unit modulo the prime")
        return cls(prime, base, target, order, 2 * len(layout.x) + 1, layout)


# -- register file -------------------------------------------------------


@dataclass(frozen=True)
class Layout:
    """Qubit assignment for the modular-exponentiation drivers, the adder it is built for, and that adder lowered.

    The published register budgets are 5n+2 qubits for the ripple-carry
    ("cdkm") configuration and 2n+3 for the Fourier-basis ("qft") one.  Our
    ripple-carry circuit needs 3n+5 working qubits; the remainder is
    allocated as idle workspace so reported totals match the budget.
    ``adder_block`` is cdkm's y += a lowered once (None on qft): it does not
    depend on the constant, and each instance keeps its layout for every attempt.
    """

    num_qubits: int
    ctrl: int
    x: Reg
    y: Reg
    a: Reg | None
    f: int
    z: int | None
    adder: str
    adder_block: Lowered | None = field(repr=False, compare=False)

    @classmethod
    def for_instance(cls, n: int, adder: str) -> "Layout":
        ctrl = 0
        x = tuple(range(1, n + 1))
        y = tuple(range(n + 1, 2 * n + 2))
        num_qubits = 2 * n + 3 if adder == "qft" else 5 * n + 2
        if num_qubits > state.MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {state.MAX_QUBITS}], got {num_qubits}")
        if adder == "qft":
            return cls(num_qubits, ctrl, x, y, None, 2 * n + 2, None, adder, None)
        if adder != "cdkm":
            raise ValueError(f"unknown adder {adder!r}")
        a, z = tuple(range(2 * n + 2, 3 * n + 3)), 3 * n + 4
        return cls(num_qubits, ctrl, x, y, a, 3 * n + 3, z, adder, lower(cdkm_add(a, y, z), num_qubits))


# -- modular arithmetic on the register file ------------------------------


def _add_const(sim: Simulator, lay: Layout, value: int, controls: tuple[int, ...]) -> None:
    """y += value (mod 2^w), gated on ``controls``, with the layout's adder; a negative value subtracts.

    The Fourier adder needs y in the Fourier basis.  The ripple-carry one runs
    ``lay.adder_block`` between two controlled loads of the operand register;
    with the controls unsatisfied the operand stays zero: the identity.
    """
    if lay.adder == "qft":
        sim.apply_all(phi_add_const(lay.y, value, controls))
        return
    sim.apply_all(load_const(lay.a, value, controls))
    sim.apply_lowered(lay.adder_block)
    sim.apply_all(load_const(lay.a, value, controls))


def _fourier(sim: Simulator, lay: Layout, transform) -> None:
    """Apply ``transform`` (qft or iqft) to y on the qft layout; cdkm's y never leaves the computational basis."""
    if lay.adder == "qft":
        sim.apply_all(transform(lay.y))


def mod_add_const(
    sim: Simulator,
    lay: Layout,
    value: int,
    modulus: int,
    controls: tuple[int, ...],
    mbu: bool = False,
) -> None:
    """y <- (y + value) mod modulus, gated on ``controls``; the layout picks the adder.

    Requires y < modulus on every supported basis state; the top qubit of
    y is borrow headroom.  The comparison flag is cleared coherently or,
    with ``mbu``, by an X-basis measurement plus a conditional phase repair
    keyed off the borrow bit.  On the qft layout y comes and goes in the Fourier
    basis; it leaves it only to copy its top bit, to repair and to measure the flag.
    """
    w = len(lay.y)
    top = lay.y[w - 1]
    a = value % modulus
    wrap = (1 << w) - modulus  # two's complement of the modulus

    _add_const(sim, lay, a, controls)
    _add_const(sim, lay, wrap, controls)
    # Borrow bit: set iff y_old + a < modulus (no reduction was needed).
    _fourier(sim, lay, iqft)
    sim.apply(ops.cx(top, lay.f))
    _fourier(sim, lay, qft)
    _add_const(sim, lay, modulus, (lay.f,))

    if mbu:
        _fourier(sim, lay, iqft)
        sim.apply(ops.h(lay.f))
        flag = sim.measure((lay.f,))
        _fourier(sim, lay, qft)
        if not flag:
            return
        sim.apply(ops.x(lay.f))
        # Phase repair (-1)^[y_new >= a] on the controlled branches.
        repair = ops.z(top, controls)
    else:
        # Coherent uncompute: the borrow of y_new - a reproduces the flag.
        repair = ops.x(lay.f, controls + (top,))
    _add_const(sim, lay, -a, controls)
    _fourier(sim, lay, iqft)
    sim.apply(ops.x(top))
    sim.apply(repair)
    sim.apply(ops.x(top))
    _fourier(sim, lay, qft)
    _add_const(sim, lay, a, controls)


def ctrl_modmul(
    sim: Simulator,
    lay: Layout,
    controls: tuple[int, ...],
    factor: int,
    modulus: int,
    mbu: bool = False,
) -> None:
    """In-place |x> -> |factor * x mod modulus> when the controls are set; the layout picks the adder.

    Multiply-accumulate into the helper register y, swap it in, then add -factor^-1 * x to
    clear y.  On qft each loop of additions runs in the Fourier basis; the swap needs y out of it.
    """
    if math.gcd(factor, modulus) != 1:
        raise ValueError("multiplier must be invertible modulo the modulus")
    n = len(lay.x)
    for loop, c in enumerate((factor, modulus - pow(factor, -1, modulus))):
        if loop:
            sim.apply_all(cswap_regs(lay.x, lay.y[:n], controls))
        _fourier(sim, lay, qft)
        for i in range(n):
            mod_add_const(sim, lay, (c << i) % modulus, modulus, controls + (lay.x[i],), mbu)
        _fourier(sim, lay, iqft)


# -- semiclassical phase estimation ---------------------------------------


def _phase_estimate(
    sim: Simulator,
    lay: Layout,
    multipliers: list[int],
    modulus: int,
    mbu: bool,
) -> int:
    """One reused control qubit; returns the measured phase integer."""
    j = 0
    for p, mult in enumerate(multipliers):
        sim.apply(ops.h(lay.ctrl))
        ctrl_modmul(sim, lay, (lay.ctrl,), mult, modulus, mbu)
        if j:
            sim.apply(ops.r1(-2.0 * math.pi * j / (1 << (p + 1)), lay.ctrl))
        sim.apply(ops.h(lay.ctrl))
        if sim.measure((lay.ctrl,)):
            sim.apply(ops.x(lay.ctrl))
            j |= 1 << p
    return j


def _estimate_phases(
    instance: FactoringInstance | DlogInstance, modulus: int, bases: list[int], seed: int, threads: int, mbu: bool
) -> tuple[list[int], Simulator]:
    """Shared driver body: from |1> in the work register, one phase estimation per base, then a flush."""
    m, lay = instance.phase_bits, instance.layout
    sim = Simulator(lay.num_qubits, seed=seed, threads=threads)
    sim.apply(ops.x(lay.x[0]))
    phases = [
        _phase_estimate(sim, lay, [pow(b, 1 << (m - 1 - p), modulus) for p in range(m)], modulus, mbu)
        for b in bases
    ]
    sim.flush()
    return phases, sim


@dataclass
class FactoringResult:
    phase: int
    order: int | None
    factors: tuple[int, int] | None
    stats: RunStats
    measurements: list[int]
    sim_stats: SimStats

    @property
    def success(self) -> bool:
        return self.factors is not None


@dataclass
class DlogResult:
    phase_pair: tuple[int, int]
    exponent: int | None
    stats: RunStats
    measurements: list[int]
    sim_stats: SimStats

    @property
    def success(self) -> bool:
        return self.exponent is not None


def run_factoring(
    instance: FactoringInstance,
    seed: int = 1,
    threads: int = 1,
    mbu: bool = False,
) -> FactoringResult:
    start = time.perf_counter()
    N, g, m = instance.modulus, instance.generator, instance.phase_bits
    [j], sim = _estimate_phases(instance, N, [g], seed, threads, mbu)
    order = order_from_phase(j, m, g, N)
    factors = None
    if order is not None and order % 2 == 0:
        half = pow(g, order // 2, N)
        if half != N - 1:
            for cand in (math.gcd(half - 1, N), math.gcd(half + 1, N)):
                if 1 < cand < N:
                    factors = tuple(sorted((cand, N // cand)))
                    break
    stats = RunStats.of(sim, start, factors is not None)
    return FactoringResult(j, order, factors, stats, sim.measurements, sim.stats)


def solve_dlog_pair(j: int, k: int, phase_bits: int, order: int, base: int, target: int, prime: int) -> int | None:
    """Recover the exponent from the two phase readouts.

    Rounds j and k to multiples of order/2^m and solves the resulting
    congruence over the known group order, trying the small candidate set
    of sign/inversion combinations and validating against the target.
    """
    m = 1 << phase_bits
    cg = round(Fraction(j * order, m)) % order
    ch = round(Fraction(k * order, m)) % order
    candidates = []
    for u, v in ((cg, ch), (ch, cg)):
        if math.gcd(u, order) == 1:
            inv = pow(u, -1, order)
            candidates.extend(((v * inv) % order, (-v * inv) % order))
    if ch == 0:
        candidates.append(0)
    for d in candidates:
        if pow(base, d, prime) == target:
            return d
    return None


def run_dlog(
    instance: DlogInstance,
    seed: int = 1,
    threads: int = 1,
    mbu: bool = False,
) -> DlogResult:
    start = time.perf_counter()
    p, g, h, m = instance.prime, instance.base, instance.target, instance.phase_bits
    [j, k], sim = _estimate_phases(instance, p, [g, h], seed, threads, mbu)
    d = solve_dlog_pair(j, k, m, instance.order, g, h, p)
    return DlogResult((j, k), d, RunStats.of(sim, start, d is not None), sim.measurements, sim.stats)


def _with_retries(run, instance, seed: int, trials: int, threads: int, mbu: bool):
    """Run up to ``trials`` seeded attempts, stopping at the first success; peak stats are merged."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    peak = 0
    for attempt in range(trials):
        result = run(instance, seed=seed + attempt, threads=threads, mbu=mbu)
        peak = max(peak, result.stats.max_state_size)
        if result.success:
            break
    result.stats.max_state_size = peak
    return result


def factor_with_retries(
    modulus: int,
    adder: str = "cdkm",
    seed: int = 1,
    trials: int = 5,
    threads: int = 1,
    mbu: bool = False,
    generator: int | None = None,
) -> FactoringResult:
    """Factor ``modulus`` in up to ``trials`` seeded attempts; peak stats are merged."""
    return _with_retries(run_factoring, FactoringInstance.build(modulus, adder, generator), seed, trials, threads, mbu)


def dlog_with_retries(
    prime: int,
    base: int | None = None,
    target: int | None = None,
    exponent: int | None = None,
    seed: int = 1,
    trials: int = 5,
    threads: int = 1,
    mbu: bool = False,
    adder: str = "cdkm",
) -> DlogResult:
    """Discrete log modulo ``prime`` in up to ``trials`` seeded attempts; peak stats are merged."""
    return _with_retries(run_dlog, DlogInstance.build(prime, base, target, exponent, adder), seed, trials, threads, mbu)
