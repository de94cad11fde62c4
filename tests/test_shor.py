import dataclasses
import math
import random

import numpy as np
import pytest

from sparsesim import arithmetic as ar
from sparsesim import shor
from sparsesim.dense import DenseState, compare
from sparsesim.ir import GateOp
from sparsesim.simulator import Simulator
from sparsesim.state import SparseState


def test_classical_helpers():
    assert shor.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert shor.is_prime(19) and not shor.is_prime(21)
    assert shor.is_prime_power(9) and not shor.is_prime_power(15)
    assert shor.carmichael(15) == 4
    assert shor.carmichael(35) == 12
    assert shor.multiplicative_order(2, 15) == 4
    assert shor.max_order_generator(15) == 2


def test_factoring_instance_validation():
    inst = shor.FactoringInstance.build(15)
    assert (inst.generator, inst.order, inst.phase_bits) == (2, 4, 9)
    with pytest.raises(ValueError):
        shor.FactoringInstance.build(9)  # prime power
    with pytest.raises(ValueError):
        shor.FactoringInstance.build(21, generator=7)  # shares a factor


def test_dlog_instance_validation():
    inst = shor.DlogInstance.build(11, base=2, exponent=7)
    assert inst.target == 7  # 2^7 mod 11
    assert inst.order == 10
    with pytest.raises(ValueError):
        shor.DlogInstance.build(15)
    with pytest.raises(ValueError):
        shor.DlogInstance.build(11, base=3)  # order 5, not maximal


@pytest.mark.parametrize(
    "build",
    [
        lambda: shor.FactoringInstance.build(35, "bogus"),
        lambda: shor.DlogInstance.build(19, exponent=7, adder="bogus"),
        lambda: shor.dlog_with_retries(19, exponent=7, adder="bogus"),
        lambda: shor.Layout.for_instance(5, "bogus"),
    ],
    ids=["factoring", "dlog", "dlog_with_retries", "layout"],
)
def test_unknown_adder_rejected_by_every_builder(build):
    with pytest.raises(ValueError, match="unknown adder 'bogus'"):
        build()


def test_layout_qubit_budgets():
    for n in (4, 6, 8, 12):
        assert shor.Layout.for_instance(n, "cdkm").num_qubits == 5 * n + 2
        assert shor.Layout.for_instance(n, "qft").num_qubits == 2 * n + 3
    assert shor.Layout.for_instance(4, "cdkm").adder == "cdkm"
    assert shor.Layout.for_instance(4, "qft").adder == "qft"


def decode(sim, lay):
    d = sim.dump()
    assert len(d) == 1
    label = d[0][0]
    x = sum(((label >> q) & 1) << i for i, q in enumerate(lay.x))
    rest = label
    for q in lay.x:
        rest &= ~(1 << q)
    return x, rest


@pytest.mark.parametrize("adder", ["cdkm", "qft"])
def test_ctrl_modmul_example_values(adder):
    lay = shor.Layout.for_instance(4, adder)
    for x0, expect in ((1, 7), (2, 14), (4, 13)):
        sim = Simulator(lay.num_qubits)
        sim.apply(GateOp("x", (lay.ctrl,)))
        sim.apply_all(ar.load_const(lay.x, x0))
        shor.ctrl_modmul(sim, lay, (lay.ctrl,), 7, 15)
        x, rest = decode(sim, lay)
        assert x == expect
        assert rest == 1 << lay.ctrl  # every helper returned clean


def test_ctrl_modmul_identity_constant():
    lay = shor.Layout.for_instance(4, "cdkm")
    for x0 in range(1, 15):
        sim = Simulator(lay.num_qubits)
        sim.apply(GateOp("x", (lay.ctrl,)))
        sim.apply_all(ar.load_const(lay.x, x0))
        shor.ctrl_modmul(sim, lay, (lay.ctrl,), 1, 15)
        x, rest = decode(sim, lay)
        assert (x, rest) == (x0, 1 << lay.ctrl)


def test_ctrl_modmul_respects_control():
    lay = shor.Layout.for_instance(4, "cdkm")
    sim = Simulator(lay.num_qubits)
    sim.apply_all(ar.load_const(lay.x, 6))
    shor.ctrl_modmul(sim, lay, (lay.ctrl,), 7, 15)
    x, rest = decode(sim, lay)
    assert (x, rest) == (6, 0)


def test_ctrl_modmul_rejects_noninvertible():
    lay = shor.Layout.for_instance(4, "cdkm")
    sim = Simulator(lay.num_qubits)
    with pytest.raises(ValueError):
        shor.ctrl_modmul(sim, lay, (lay.ctrl,), 5, 15)


@pytest.mark.parametrize("modulus,c", [(15, 7), (21, 5), (31, 12)])
@pytest.mark.parametrize("mbu", [False, True], ids=["coherent", "mbu"])
@pytest.mark.parametrize("adder", ["cdkm", "qft"])
def test_ctrl_modmul_exhaustive_sparse(adder, mbu, modulus, c):
    # On qft, y stays in the Fourier basis through each loop of additions and must come back clean.
    n = modulus.bit_length()
    lay = shor.Layout.for_instance(n, adder)
    flags = set()
    for x0 in range(1, modulus):
        sim = Simulator(lay.num_qubits, seed=x0)
        sim.apply(GateOp("x", (lay.ctrl,)))
        sim.apply_all(ar.load_const(lay.x, x0))
        shor.ctrl_modmul(sim, lay, (lay.ctrl,), c, modulus, mbu)
        x, rest = decode(sim, lay)
        assert x == (c * x0) % modulus
        assert rest == 1 << lay.ctrl
        assert len(sim.measurements) == (2 * n if mbu else 0)  # one flag readout per modular addition
        flags.update(sim.measurements)
    # Under MBU both flag outcomes occur, the early return on 0 included.
    assert flags == ({0, 1} if mbu else set())


@pytest.mark.parametrize("modulus,c", [(15, 7), (31, 12)])
def test_ctrl_modmul_exhaustive_dense(modulus, c):
    # The Fourier-basis layout fits the oracle cap, so run both paths.
    n = modulus.bit_length()
    lay = shor.Layout.for_instance(n, "qft")
    for x0 in range(1, modulus, 3):
        sim = Simulator(lay.num_qubits)
        dense = DenseState(lay.num_qubits)
        recorder = []
        orig_apply = sim.apply
        sim.apply = lambda op: (recorder.append(op), orig_apply(op))[1]
        sim.apply(GateOp("x", (lay.ctrl,)))
        sim.apply_all(ar.load_const(lay.x, x0))
        shor.ctrl_modmul(sim, lay, (lay.ctrl,), c, modulus)
        for op in recorder:
            dense.apply(op)
        assert compare(dense, SparseState(lay.num_qubits, dict(sim.dump()))) < 1e-9


def test_mbu_mode_same_function_and_doubles_state():
    lay = shor.Layout.for_instance(4, "cdkm")
    sim = Simulator(lay.num_qubits, seed=5)
    sim.apply(GateOp("x", (lay.ctrl,)))
    sim.apply(GateOp("x", (lay.x[0],)))
    sim.apply(GateOp("h", (lay.x[1],)))  # superposition of x in {1, 3}
    sim.flush()
    baseline = len(sim.state)
    shor.ctrl_modmul(sim, lay, (lay.ctrl,), 7, 15, mbu=True)
    sim.flush()
    d = dict(sim.dump())
    got = sorted(
        sum(((label >> q) & 1) << i for i, q in enumerate(lay.x)) for label in d
    )
    assert got == sorted(((7 * 1) % 15, (7 * 3) % 15))
    assert sim.stats.max_state_size == 2 * baseline  # comparator measurement doubling


def test_continued_fraction_exact_quarter():
    m = 9
    assert shor.order_from_phase((1 << m) // 4, m, 2, 15) == 4


def test_continued_fraction_zero_phase_fails():
    assert shor.order_from_phase(0, 9, 2, 15) is None


def test_continued_fraction_returns_smallest_working_denominator():
    # 192/512 = 3/8: convergent denominators are 1, 2, 3, 8; the first with
    # 2^k = 1 (mod 15) is 8, even though the true order 4 never appears.
    # The driver-level recovery reduces such multiples back to the order.
    assert shor.order_from_phase(192, 9, 2, 15) == 4


def sample_phase_outcome(rng, order: int, phase_bits: int) -> int:
    """One draw from the exact order-finding measurement distribution.

    Picks an eigenvalue index uniformly, then samples the phase register
    outcome j with probability |(1/2^m) sum_a exp(2 pi i a (s/r - j/2^m))|^2.
    """
    m = phase_bits
    dim = 1 << m
    s = rng.randrange(order)
    j = np.arange(dim)
    delta = s / order - j / dim
    num = np.sin(np.pi * dim * delta) ** 2
    den = np.sin(np.pi * delta) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.where(den < 1e-300, 1.0, num / (dim * dim * np.where(den < 1e-300, 1.0, den)))
    probs = probs / probs.sum()
    u = rng.random()
    return int(np.searchsorted(np.cumsum(probs), u))


def test_order_recovery_rate_against_classical_sampler():
    # Draws from the exact readout distribution must recover the order at
    # least as often as the coprime-fraction lower bound 4/pi^2 * phi(r)/r.
    rng = random.Random(123)
    order, m, g, n = 4, 9, 7, 15
    hits = 0
    draws = 1000
    for _ in range(draws):
        j = sample_phase_outcome(rng, order, m)
        if shor.order_from_phase(j, m, g, n) == order:
            hits += 1
    phi = sum(1 for k in range(1, order) if math.gcd(k, order) == 1)
    bound = 4 / math.pi**2 * phi / order
    assert hits / draws >= bound


SIM_STATS_FIELDS = (
    "gate_count", "flush_count", "gates_absorbed", "gates_enqueued",
    "queue_executions", "parallel_executions", "measurement_count", "max_state_size",
)


@pytest.mark.parametrize(
    "mbu,values",
    [(False, (86947, 34, 34, 86913, 27, 0, 17, 120)), (True, (69548, 307, 306, 69242, 301, 0, 289, 120))],
    ids=["coherent", "mbu"],
)
def test_factor_143_seed1_sim_stats(mbu, values):
    # Every counter of one seed-1 attempt, in field order: the lowered adder must count as the gate path does.
    res = shor.run_factoring(shor.FactoringInstance.build(143, "cdkm"), seed=1, mbu=mbu)
    assert res.factors == (11, 13)
    assert list(dataclasses.asdict(res.sim_stats).items()) == list(zip(SIM_STATS_FIELDS, values))


@pytest.mark.parametrize(
    "mbu,readout,record,gates",
    [
        (False, 5462, "0110101010101", 24712),
        (
            True,
            3413,
            "0110001100101001011001100000000000001110110011101100111100100111101110000111001111101110011011111110"
            "011010001110000111110110001000000100100000100110110001011101110101010",
            28021,
        ),
    ],
    ids=["coherent", "mbu"],
)
def test_factor_35_qft_seed1_fingerprint(mbu, readout, record, gates):
    # One seeded run pinned whole.  The peak is 1536 on both paths: measuring the MBU flag
    # while y is spread over the Fourier basis would double it to 3072.
    res = shor.run_factoring(shor.FactoringInstance.build(35, "qft"), seed=1, mbu=mbu)
    assert res.factors == (5, 7)
    assert res.phase == readout
    assert "".join(map(str, res.measurements)) == record
    assert res.sim_stats.max_state_size == 1536
    assert res.sim_stats.gate_count == gates


@pytest.mark.parametrize(
    "build,run,mbu",
    [
        (lambda: shor.FactoringInstance.build(15, "cdkm"), shor.run_factoring, False),
        (lambda: shor.FactoringInstance.build(15, "qft"), shor.run_factoring, True),
        (lambda: shor.DlogInstance.build(11, base=2, exponent=7), shor.run_dlog, False),
    ],
    ids=["factor15-cdkm", "factor15-qft-mbu", "dlog11-cdkm"],
)
def test_attempts_reuse_the_instance_layout(monkeypatch, build, run, mbu):
    # The register file and its lowered adder are built once, by the instance; attempts only read them.
    inst = build()
    want = run(inst, seed=3, mbu=mbu)

    def rebuild(*args):
        raise AssertionError("an attempt rebuilt the register layout")

    blocks = []
    apply_lowered = Simulator.apply_lowered

    def spy(sim, block):
        blocks.append(block)
        apply_lowered(sim, block)

    monkeypatch.setattr(shor.Layout, "for_instance", rebuild)
    monkeypatch.setattr(Simulator, "apply_lowered", spy)
    got = run(inst, seed=3, mbu=mbu)
    assert got.measurements == want.measurements
    assert got.sim_stats == want.sim_stats
    assert got.success == want.success
    if inst.layout.adder == "cdkm":
        assert blocks and all(b is inst.layout.adder_block for b in blocks)
    else:
        assert inst.layout.adder_block is None and not blocks


def test_factoring_n15_table_row():
    res = shor.factor_with_retries(15, seed=1, trials=5, mbu=True)
    assert res.factors == (3, 5)
    assert res.stats.qubits == 22
    assert res.stats.max_state_size == 8


def test_factoring_n35_table_row():
    res = shor.factor_with_retries(35, seed=1, trials=5, mbu=True)
    assert res.factors == (5, 7)
    assert res.stats.qubits == 32
    assert res.stats.max_state_size == 24


def test_factoring_qft_adder_n15():
    res = shor.factor_with_retries(15, adder="qft", seed=1, trials=5)
    assert res.factors == (3, 5)
    assert res.stats.qubits == 11


def test_factoring_n589_ten_bit_row():
    res = shor.factor_with_retries(589, seed=1, trials=5, mbu=True)
    assert res.factors == (19, 31)
    assert res.stats.qubits == 52
    assert res.stats.max_state_size == 180  # 2x the group order 90


def test_dlog_p59_six_bit_row():
    res = shor.dlog_with_retries(59, exponent=7, seed=1, trials=5, mbu=True)
    assert res.exponent == 7
    assert res.stats.qubits == 32
    assert res.stats.max_state_size == 232  # 4x the group order 58


def test_dlog_p11_recovers_seven():
    res = shor.dlog_with_retries(11, base=2, target=7, seed=1, trials=5, mbu=True)
    assert res.exponent == 7
    assert res.stats.qubits == 22
    assert res.stats.max_state_size == 40


def test_dlog_identity_target_gives_zero():
    res = shor.dlog_with_retries(11, base=2, target=1, seed=1, trials=5)
    assert res.exponent == 0


def test_solve_dlog_pair_needs_invertible_rounding():
    # j rounding to 0 with k rounding to 0 recovers nothing unless target is 1
    assert shor.solve_dlog_pair(0, 0, 9, 10, 2, 7, 11) is None
    assert shor.solve_dlog_pair(0, 0, 9, 10, 2, 1, 11) == 0


def _brute_order(g: int, n: int) -> int:
    r, x = 1, g % n
    while x != 1:
        r, x = r + 1, x * g % n
    return r


@pytest.mark.parametrize("n", [15, 21, 33, 35])
def test_order_from_phase_exhaustive_small_moduli(n):
    # Every readout j at FactoringInstance's phase width, for every unit g <= 9: the
    # order is recovered exactly when some multiple k*t < n (t <= 128) of a
    # convergent denominator k is a multiple of it; otherwise None.
    m = 2 * n.bit_length() + 1
    orders = {g: _brute_order(g, n) for g in range(2, 10) if math.gcd(g, n) == 1}
    for j in range(1 << m):
        convergents = shor._convergent_denominators(j, m, n)
        for g, r in orders.items():
            # The least multiple of k that r divides is k * r / gcd(k, r).
            hit = j != 0 and any(r // math.gcd(k, r) <= min(128, (n - 1) // k) for k in convergents)
            assert shor.order_from_phase(j, m, g, n) == (r if hit else None), (n, g, j)


def test_multiplicative_order_matches_brute_force():
    for n in range(2, 36):
        for g in range(1, n):
            if math.gcd(g, n) == 1:
                assert shor.multiplicative_order(g, n) == _brute_order(g, n), (g, n)
