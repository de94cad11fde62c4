import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sparsesim import ops
from sparsesim.simulator import Simulator
from sparsesim.state import (
    MAX_QUBITS,
    PRUNE_EPS,
    SparseState,
    h_block,
    new_wavefunction,
    pauli_exp_block,
    rx_block,
    ry_block,
)

SQRT_HALF = 0.7071067811865476


class FixedRng:
    """Deterministic uniform stream for measurement tests."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def amps(state):
    return dict(state.dump())


def test_new_wavefunction_initial_state():
    s = new_wavefunction(3)
    assert s.dump() == [(0, 1 + 0j)]
    assert new_wavefunction(1).dump() == [(0, 1 + 0j)]


def test_new_wavefunction_capacity_bounds():
    with pytest.raises(ValueError):
        new_wavefunction(MAX_QUBITS + 1)
    with pytest.raises(ValueError):
        new_wavefunction(0)
    assert len(new_wavefunction(MAX_QUBITS)) == 1


def test_hadamard_on_zero():
    s = new_wavefunction(1).apply_block(h_block(0))
    d = amps(s)
    assert d[0] == pytest.approx(SQRT_HALF)
    assert d[1] == pytest.approx(SQRT_HALF)


def test_hadamard_interference_prunes_entry():
    s = SparseState(1, {0: SQRT_HALF + 0j, 1: -SQRT_HALF + 0j})
    out = s.apply_block(h_block(0))
    assert set(out.amps) == {1}
    assert out.amps[1] == pytest.approx(1.0)


def test_rx_pi_is_minus_i_x():
    s = new_wavefunction(1).apply_block(rx_block(0, math.pi))
    d = amps(s)
    assert set(d) == {1}
    assert d[1] == pytest.approx(-1j)


def test_controlled_hadamard_semantics():
    # control q1, target q0
    s = SparseState(2, {0b10: 1 + 0j}).apply_block(h_block(0), control_mask=0b10)
    d = amps(s)
    assert d[0b10] == pytest.approx(SQRT_HALF)
    assert d[0b11] == pytest.approx(SQRT_HALF)
    untouched = SparseState(2, {0b00: 1 + 0j}).apply_block(h_block(0), control_mask=0b10)
    assert amps(untouched) == {0: 1 + 0j}


def pexp_run(start, theta, axes, qubits):
    """Apply one Pauli exponential to ``start`` through the simulator and dump the result."""
    sim = Simulator(start.num_qubits)
    sim.state = start
    sim.apply(ops.pexp(theta, axes, qubits))
    return dict(sim.dump())


def test_pauli_exp_diagonal_z():
    d = pexp_run(new_wavefunction(1), math.pi / 2, "Z", [0])
    expect = complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))
    assert d[0] == pytest.approx(expect)


def test_pauli_exp_xx_pi():
    d = pexp_run(new_wavefunction(2), math.pi, "XX", [0, 1])
    assert set(d) == {0b11}
    assert d[0b11] == pytest.approx(-1j)


def test_pauli_exp_zero_angle_is_identity():
    start = SparseState(2, {0: 0.6 + 0j, 3: 0.8j})
    out = pexp_run(start, 0.0, "YZ", [0, 1])
    assert out == amps(start)


def test_pauli_exp_rejects_empty_string():
    with pytest.raises(ValueError):
        pexp_run(new_wavefunction(1), 0.3, "", [])


def test_measure_deterministic_state():
    out, post = new_wavefunction(1).measure([0], FixedRng(0.5))
    assert out.result == 0
    assert out.probability == pytest.approx(1.0)
    assert amps(post) == {0: 1 + 0j}


def test_measure_bell_projection():
    bell = SparseState(2, {0b00: SQRT_HALF + 0j, 0b11: SQRT_HALF + 0j})
    out, post = bell.measure([0], FixedRng(0.9))
    assert out.result == 1
    assert out.probability == pytest.approx(0.5)
    assert set(post.amps) == {0b11}
    assert post.amps[0b11] == pytest.approx(1.0)


def test_measure_probability_convention():
    s = SparseState(1, {0: 0.6 + 0j, 1: 0.8 + 0j})
    out, _ = s.measure([0], FixedRng(0.99))
    assert out.result == 1
    assert out.probability == pytest.approx(0.64)
    # The probability is the branch's share of the squared norm, even for an unnormalised map.
    out, _ = SparseState(1, {0: 0.9 + 0j}).measure([0], FixedRng(0.5))
    assert out.result == 0
    assert out.probability == pytest.approx(1.0)


def test_measure_draw_compared_against_normalised_probability():
    # Squared norm 0.81, all of it even: a draw of 0.95 still selects the even branch.
    out, post = SparseState(1, {0: 0.9 + 0j}).measure([0], FixedRng(0.95))
    assert out.result == 0
    assert amps(post) == {0: pytest.approx(1.0)}


@pytest.mark.parametrize("u", [0.0, 0.5, 0.999])
def test_measure_never_draws_a_vanishing_branch(u):
    # The even branch weighs PRUNE_EPS**2: no draw selects it, so nothing is scaled by 1e12.
    s = SparseState(1, {0: complex(PRUNE_EPS), 1: 1 + 0j})
    out, post = s.measure([0], FixedRng(u))
    assert out.result == 1
    assert amps(post) == {1: 1 + 0j}
    out, post = SparseState(1, {0: 1 + 0j, 1: complex(PRUNE_EPS)}).measure([0], FixedRng(u))
    assert out.result == 0
    assert amps(post) == {0: 1 + 0j}


@pytest.mark.parametrize("entries", [{}, {0: 1e-13 + 0j, 1: 1e-13 + 0j}])
def test_measure_raises_when_both_branches_vanish(entries):
    with pytest.raises(RuntimeError, match="vanishing probability"):
        SparseState(1, entries).measure([0], FixedRng(0.5))


def test_norm_and_size_bookkeeping():
    s = new_wavefunction(2)
    assert s.norm_sq() == pytest.approx(1.0)
    assert len(s) == 1
    s = s.apply_block(h_block(0))
    assert s.norm_sq() == pytest.approx(1.0)
    assert len(s) == 2


def test_dump_is_sorted():
    s = SparseState(1, {1: 0.2 + 0j, 0: 0.3 + 0j})
    assert [lbl for lbl, _ in s.dump()] == [0, 1]


def test_dump_after_double_hadamard_has_four_entries():
    s = new_wavefunction(2).apply_block(h_block(0)).apply_block(h_block(1))
    d = s.dump()
    assert [lbl for lbl, _ in d] == [0, 1, 2, 3]
    for _, amp in d:
        assert amp == pytest.approx(0.5)


GATE_BLOCKS = [
    ("h", lambda: h_block(2)),
    ("rx", lambda: rx_block(2, 0.7)),
    ("ry", lambda: ry_block(2, -1.3)),
    ("pexp_xy", lambda: pauli_exp_block(0b100, 0b010, 0b001, 0.9)),
    ("pexp_y", lambda: pauli_exp_block(0, 0b100, 0, 2.1)),
    ("pexp_yy", lambda: pauli_exp_block(0, 0b110, 0, 0.4)),
]


def random_state(rng, n, size):
    labels = rng.sample(range(1 << n), size)
    raw = {b: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for b in labels}
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    return SparseState(n, {b: a / norm for b, a in raw.items()})


@pytest.mark.parametrize("name,make", GATE_BLOCKS)
def test_unitarity_round_trip(name, make):
    rng = random.Random(hash(name) & 0xFFFF)
    state = random_state(rng, 4, 9)
    block = make()
    inverse = {
        "h": lambda: h_block(2),
        "rx": lambda: rx_block(2, -0.7),
        "ry": lambda: ry_block(2, 1.3),
        "pexp_xy": lambda: pauli_exp_block(0b100, 0b010, 0b001, -0.9),
        "pexp_y": lambda: pauli_exp_block(0, 0b100, 0, -2.1),
        "pexp_yy": lambda: pauli_exp_block(0, 0b110, 0, -0.4),
    }[name]()
    out = state.apply_block(block).apply_block(inverse)
    for b, a in state.amps.items():
        assert out.amps[b] == pytest.approx(a, abs=1e-9)
    assert len(out) == len(state)


def test_pairwise_at_most_doubles_support():
    rng = random.Random(11)
    for _ in range(20):
        state = random_state(rng, 5, rng.randint(1, 12))
        out = state.apply_block(h_block(rng.randrange(5)))
        assert len(out) <= 2 * len(state)


def test_pair_processing_matches_with_or_without_partner():
    # single entry vs the same entry with a zero-amplitude partner present
    a = 0.6 + 0.8j
    lone = SparseState(1, {0: a}).apply_block(rx_block(0, 0.9))
    tiny = 1e-30
    paired = SparseState(1, {0: a, 1: complex(tiny)}).apply_block(rx_block(0, 0.9))
    for b in lone.amps:
        assert paired.amps[b] == pytest.approx(lone.amps[b], abs=1e-12)


def test_no_entry_at_or_below_prune_threshold():
    rng = random.Random(5)
    state = random_state(rng, 4, 8)
    for _ in range(50):
        q = rng.randrange(4)
        state = state.apply_block(h_block(q))
        assert all(abs(a) > PRUNE_EPS for a in state.amps.values())


def test_norm_conserved_over_long_random_evolution():
    rng = random.Random(17)
    state = new_wavefunction(6)
    for step in range(10_000):
        q = rng.randrange(6)
        kind = rng.randrange(3)
        if kind == 0:
            state = state.apply_block(h_block(q))
        elif kind == 1:
            state = state.apply_block(rx_block(q, rng.uniform(-3, 3)))
        else:
            state = state.apply_block(ry_block(q, rng.uniform(-3, 3)))
        if step % 50 == 0:
            assert abs(state.norm_sq() - 1.0) <= 1e-6
    assert abs(state.norm_sq() - 1.0) <= 1e-6


# -- H applied inside the measurement ------------------------------------------


def doubled_weights(state, q):
    """``apply_block(h_block(q))`` of ``state``, with its ``p_even`` and ``total`` summed in ``measure``'s order."""
    doubled = state.apply_block(h_block(q))
    p_even = total = 0.0
    for b, a in doubled.amps.items():  # not sum(), which may compensate
        w = abs(a) ** 2
        total += w
        if not b >> q & 1:
            p_even += w
    return doubled, p_even, total


def fused_region(state, q, u):
    """Check the fused H-and-measure of qubit ``q`` against ``apply_block(h_block(q))`` then ``measure``.

    Both draw from the fixed uniform ``u``.  Returns the region of ``draw_branch`` that ``u`` fell in.
    """
    before = list(state.amps.items())
    doubled, p_even, total = doubled_weights(state, q)
    tiny = PRUNE_EPS**2
    try:
        ref, ref_post = doubled.measure([q], FixedRng(u))
    except RuntimeError:
        with pytest.raises(RuntimeError, match="vanishing probability"):
            state.measure([q], FixedRng(u), h=True)
        assert max(p_even, total - p_even) <= tiny
        return "both vanish"
    out, post = state.measure([q], FixedRng(u), h=True)
    assert out == ref  # result, probability and size, under ==
    assert out.size == len(doubled)
    assert list(post.amps.items()) == list(ref_post.amps.items())
    assert list(state.amps.items()) == before
    if p_even <= tiny:
        return "even vanishes"
    if total - p_even <= tiny:
        return "odd vanishes"
    return "below" if u * total < p_even else "at" if u * total == p_even else "above"


def boundary_u(state, q):
    """A uniform ``u`` with ``u * total == p_even`` for the doubled map, when one lies within a few ulps of the ratio."""
    _, p_even, total = doubled_weights(state, q)
    if not total:
        return 0.5
    u = p_even / total
    for _ in range(4):
        if u * total == p_even:
            break
        u = math.nextafter(u, 2.0 if u * total < p_even else -1.0)
    return min(max(u, 0.0), math.nextafter(1.0, 0.0))


A = complex(0.6, 0.8)


@pytest.mark.parametrize(
    "n,q,entries,u,region",
    [
        (1, 0, {0: 1 + 0j}, 0.25, "below"),
        (1, 0, {0: 1 + 0j}, 0.5, "at"),
        (1, 0, {0: 1 + 0j}, 0.75, "above"),
        (2, 0, {0b10: A, 0b11: -A}, 0.0, "even vanishes"),
        (2, 1, {0b01: A, 0b11: A}, 0.999, "odd vanishes"),
        (128, 127, {(1 << 127) | 5: A, 5: 0.3j, 1 << 126: 0.1 + 0j}, 0.9, "above"),
        (128, 0, {(1 << 127) | 4: A, (1 << 127) | 5: 0.2 + 0j}, 0.1, "below"),
        (1, 0, {}, 0.5, "both vanish"),
        (3, 2, {0: complex(1e-13), 0b101: 1e-13j}, 0.5, "both vanish"),
    ],
)
def test_fused_h_measure_reaches_each_draw_region(n, q, entries, u, region):
    assert fused_region(SparseState(n, dict(entries)), q, u) == region


AMPS = st.builds(
    complex, st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
) | st.sampled_from([complex(PRUNE_EPS), complex(1.5e-12), 1.4142e-12j, complex(1e-13)])


@st.composite
def h_measure_cases(draw):
    """A map over up to 128 qubits whose labels come alone or with partners across the measured qubit ``q``."""
    n = draw(st.integers(1, MAX_QUBITS))
    q = draw(st.integers(0, n - 1))
    bit = 1 << q
    items = {}
    for label in draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10)):
        lo, a = label & ~bit, draw(AMPS)
        partner = draw(st.sampled_from(["lo", "hi", "free", "same", "negated"]))
        if partner != "hi":
            items[lo] = a
        if partner != "lo":
            items[lo | bit] = {"hi": a, "free": draw(AMPS), "same": a, "negated": -a}[partner]
    state = SparseState(n, dict(draw(st.permutations(list(items.items())))))
    u = draw(st.floats(0, 1, exclude_max=True) | st.just(None))
    return state, q, boundary_u(state, q) if u is None else u


@settings(derandomize=True, max_examples=400, deadline=None)
@given(h_measure_cases())
def test_fused_h_measure_matches_apply_block_then_measure(case):
    fused_region(*case)


@pytest.mark.parametrize("qubits", [[0, 1], []], ids=["two", "none"])
def test_fused_measure_needs_one_measured_qubit(qubits):
    with pytest.raises(ValueError, match="exactly one measured qubit"):
        SparseState(2, {0: 1 + 0j}).measure(qubits, FixedRng(0.5), h=True)
