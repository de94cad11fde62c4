import pytest

from sparsesim import arithmetic as ar
from sparsesim.dense import DenseState, compare
from sparsesim.simulator import Simulator
from sparsesim.state import SparseState


def basis_run(num_qubits, op_gen):
    """Stream ops into a fresh simulator and decode the single output label."""
    sim = Simulator(num_qubits)
    sim.apply_all(op_gen)
    d = sim.dump()
    assert len(d) == 1
    assert d[0][1] == pytest.approx(1.0)
    return d[0][0]


def field(label, reg):
    return sum(((label >> q) & 1) << i for i, q in enumerate(reg))


def test_cdkm_add_four_bit_example():
    w = 4
    a, b = tuple(range(w)), tuple(range(w, 2 * w))
    cin = 2 * w

    def circuit():
        yield from ar.load_const(a, 3)
        yield from ar.load_const(b, 5)
        yield from ar.cdkm_add(a, b, cin)

    label = basis_run(2 * w + 1, circuit())
    assert field(label, a) == 3
    assert field(label, b) == 8
    assert (label >> cin) & 1 == 0  # ancilla clean


def test_cdkm_add_zero_is_identity():
    w = 4
    a, b = tuple(range(w)), tuple(range(w, 2 * w))
    cin = 2 * w
    for x in range(16):
        def circuit():
            yield from ar.load_const(b, x)
            yield from ar.cdkm_add(a, b, cin)

        label = basis_run(2 * w + 1, circuit())
        assert field(label, b) == x
        assert field(label, a) == 0


def test_cdkm_add_exhaustive_three_bit_with_carry():
    w = 3
    a, b = tuple(range(w)), tuple(range(w, 2 * w))
    cin, cout = 2 * w, 2 * w + 1
    for av in range(8):
        for bv in range(8):
            def circuit():
                yield from ar.load_const(a, av)
                yield from ar.load_const(b, bv)
                yield from ar.cdkm_add(a, b, cin, cout)

            label = basis_run(2 * w + 2, circuit())
            total = field(label, b) | (((label >> cout) & 1) << w)
            assert total == (av + bv) % 16
            assert field(label, a) == av
            assert (label >> cin) & 1 == 0


def test_cdkm_add_matches_dense_oracle():
    # same circuit through the sparse path and the brute-force oracle
    w = 3
    a, b = tuple(range(w)), tuple(range(w, 2 * w))
    cin, cout = 2 * w, 2 * w + 1
    n = 2 * w + 2
    for av, bv in ((5, 6), (7, 7), (0, 3), (4, 4)):
        circuit = (
            list(ar.load_const(a, av))
            + list(ar.load_const(b, bv))
            + list(ar.cdkm_add(a, b, cin, cout))
        )
        sim = Simulator(n)
        sim.apply_all(iter(circuit))
        dense = DenseState(n)
        for op in circuit:
            dense.apply(op)
        assert compare(dense, SparseState(n, dict(sim.dump()))) < 1e-12


def test_qft_add_round_trip_example():
    reg = (0, 1, 2, 3)

    def circuit():
        yield from ar.load_const(reg, 2)
        yield from ar.qft_add(reg, 3)

    assert field(basis_run(4, circuit()), reg) == 5


def test_qft_add_zero_is_identity():
    reg = (0, 1, 2)
    for x in range(8):
        def circuit():
            yield from ar.load_const(reg, x)
            yield from ar.qft_add(reg, 0)

        assert field(basis_run(3, circuit()), reg) == x


def test_qft_add_exhaustive_three_bit_constants():
    reg = (0, 1, 2)
    for start in range(8):
        for const in range(8):
            def circuit():
                yield from ar.load_const(reg, start)
                yield from ar.qft_add(reg, const)

            assert field(basis_run(3, circuit()), reg) == (start + const) % 8


def test_qft_add_subtraction():
    reg = (0, 1, 2)
    for start in range(8):
        for const in range(8):
            def circuit():
                yield from ar.load_const(reg, start)
                yield from ar.qft_add(reg, -const)

            assert field(basis_run(3, circuit()), reg) == (start - const) % 8


def test_signed_constants_are_exact():
    # A negative constant loads its two's complement and negates every phase angle, bit for bit.
    for w in range(1, 10):
        reg, ctl = tuple(range(w)), (w,)
        for v in range(1 << w):
            assert list(ar.load_const(reg, -v, ctl)) == list(ar.load_const(reg, (2**w - v) % 2**w, ctl))
            neg = [(op.targets, op.angle) for op in ar.phi_add_const(reg, -v, ctl)]
            pos = [(op.targets, -op.angle) for op in ar.phi_add_const(reg, v, ctl)]
            assert neg == pos, (w, v)


def test_register_width_mismatch_rejected():
    with pytest.raises(ValueError):
        list(ar.cdkm_add((0, 1), (2, 3, 4), 5))
