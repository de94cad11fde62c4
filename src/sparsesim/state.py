"""Sparse wavefunction storage and direct application of pairwise gates.

A state over ``n`` qubits is a mapping from basis labels to complex
amplitudes; qubit ``k`` lives at bit ``k`` of the label and only entries
with magnitude above the pruning threshold are stored.  Gates whose matrix
couples two basis states per application (H, Rx, Ry, Pauli exponentials
with X/Y support) are applied here in a single pass over the map; gates
with one nonzero entry per row belong to the permutation queue instead.
``measure(qubits, rng, h=True)`` first applies an H to its one measured
qubit: the map the H would double is counted, not stored, and the outcome's
``size`` is that doubled length (the stored map's length otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .ir import qubit_mask

MAX_QUBITS = 128

# Entries at or below this magnitude are dropped without renormalizing;
# each drop perturbs the norm by at most eps^2 = 1e-24.
PRUNE_EPS = 1e-12

_SQRT_HALF = math.sqrt(0.5)

Coeffs = tuple[complex, complex, complex, complex]


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of a joint Z-product measurement.

    ``result`` is 0 for the even-parity (+1 eigenvalue) branch and 1 for
    the odd-parity branch; ``probability`` is the probability of the
    branch that was observed; ``size`` is the length of the measured map,
    counted rather than stored when an H was applied inside the measurement.
    """

    result: int
    probability: float
    size: int


@dataclass(frozen=True)
class PairwiseBlock:
    """A gate acting on pairs of basis labels ``(lo, hi)`` with ``hi = lo ^ flip_mask``.

    ``lo`` has a 0 at the lowest set bit of ``flip_mask``.  The 2x2 action
    ``(a00, a01, a10, a11)`` on the ordered pair is ``even`` when
    ``lo & sign_mask`` has even parity and ``odd`` otherwise; both must be
    unitary.
    """

    flip_mask: int
    sign_mask: int
    even: Coeffs
    odd: Coeffs


def h_block(qubit: int) -> PairwiseBlock:
    a = _SQRT_HALF
    c: Coeffs = (a, a, a, -a)
    return PairwiseBlock(1 << qubit, 0, c, c)


def rx_block(qubit: int, theta: float) -> PairwiseBlock:
    return pauli_exp_block(1 << qubit, 0, 0, theta)


def ry_block(qubit: int, theta: float) -> PairwiseBlock:
    return pauli_exp_block(0, 1 << qubit, 0, theta)


def pauli_exp_block(x_mask: int, y_mask: int, z_mask: int, theta: float) -> PairwiseBlock:
    """exp(-i*theta/2 * P) for a Pauli string with X or Y support.

    P maps |b> to phi(b)|b ^ m> with m the X|Y flip mask and
    phi(b) = i^{#Y} * (-1)^{parity(b & (y_mask | z_mask))}, so
    phi(hi) = phi(lo) * (-1)^{parity(m & sign_mask)}.
    """
    m = x_mask | y_mask
    if m == 0:
        raise ValueError("pauli_exp_block requires X or Y support; use a phase record for pure-Z strings")
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    base = (-1j * s, s, 1j * s, -s)[y_mask.bit_count() & 3]  # i^{#Y} * (-i*s)
    sign_mask = y_mask | z_mask
    base_hi = -base if (m & sign_mask).bit_count() & 1 else base
    return PairwiseBlock(m, sign_mask, (c, base_hi, base, c), (c, -base_hi, -base, c))


def draw_branch(u: float, p_even: float, total: float) -> tuple[int, float]:
    """Outcome drawn by the uniform ``u`` (even iff ``u < p_even / total``) and its branch's squared norm.

    A branch of squared norm at most ``PRUNE_EPS**2`` is never drawn; if both are, ``RuntimeError``.
    """
    p_odd = total - p_even
    tiny = PRUNE_EPS**2
    if max(p_even, p_odd) <= tiny:
        raise RuntimeError("measured branch has vanishing probability")
    outcome = int(p_even <= tiny or (p_odd > tiny and u * total >= p_even))
    return outcome, p_odd if outcome else p_even


class SparseState:
    """Associative-map wavefunction: label -> amplitude, plus qubit count."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: dict[int, complex]):
        self.num_qubits = num_qubits
        self.amps = amps

    def __len__(self) -> int:
        return len(self.amps)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.values())

    def dump(self) -> list[tuple[int, complex]]:
        """Entries sorted ascending by label; deterministic across runs."""
        return sorted(self.amps.items())

    def apply_block(self, block: PairwiseBlock, control_mask: int = 0) -> "SparseState":
        """Apply a pairwise gate in one pass, producing a new map.

        Labels failing the control condition copy through unchanged.  A
        pair with both partners present is processed once, at the entry
        carrying a 1 at the lowest differing bit; a lone entry produces up
        to two outputs.  At most one partner lookup happens per entry.
        """
        m = block.flip_mask
        dbit = m & -m
        sign_mask = block.sign_mask
        coeffs = (block.even, block.odd)
        eps = PRUNE_EPS
        src = self.amps
        out: dict[int, complex] = {}
        for b, amp in src.items():
            if b & control_mask != control_mask:
                out[b] = amp
                continue
            partner = b ^ m
            if b & dbit:
                lo = partner
                other = src.get(partner)
                a00, a01, a10, a11 = coeffs[(lo & sign_mask).bit_count() & 1]
                if other is not None:
                    v0 = a00 * other + a01 * amp
                    v1 = a10 * other + a11 * amp
                else:
                    v0 = a01 * amp
                    v1 = a11 * amp
                if abs(v0) > eps:
                    out[lo] = v0
                if abs(v1) > eps:
                    out[b] = v1
            else:
                if partner in src:
                    continue  # handled when the iteration reaches the partner
                a00, a01, a10, a11 = coeffs[(b & sign_mask).bit_count() & 1]
                v0 = a00 * amp
                v1 = a10 * amp
                if abs(v0) > eps:
                    out[b] = v0
                if abs(v1) > eps:
                    out[partner] = v1
        return SparseState(self.num_qubits, out)

    def measure(self, qubits: Iterable[int], rng, h: bool = False) -> tuple[MeasurementOutcome, "SparseState"]:
        """Joint Z-product measurement over ``qubits``; one uniform from ``rng`` picks the branch by ``draw_branch``.

        The surviving branch is renormalized.  Deterministic given the seed stream.  With ``h``, an H on the one
        measured qubit is applied first, bit-identically to ``apply_block(h_block(q))``, and the map it doubles is
        counted, not stored: pass 1 weighs and counts H's outputs in the order a plain measurement of the doubled
        map adds them, pass 2 builds only the drawn branch.  The outcome's ``size`` is the measured map's length.
        """
        m = qubit_mask(qubits)
        if h and m.bit_count() != 1:
            raise ValueError("an H applied inside a measurement needs exactly one measured qubit")
        a = _SQRT_HALF  # H's coefficients are (a, a, a, -a), as in h_block
        eps = PRUNE_EPS
        src = self.amps
        p_even = total = 0.0
        size = 0 if h else len(src)
        if not h:
            for b, amp in src.items():
                w = abs(amp) ** 2
                total += w
                if not (b & m).bit_count() & 1:
                    p_even += w
        else:
            for b, amp in src.items():
                if b & m:
                    other = src.get(b ^ m)
                    if other is not None:
                        r = abs(a * other + a * amp)
                        if r > eps:
                            w = r**2
                            total += w
                            p_even += w
                            size += 1
                        r = abs(a * other + -a * amp)
                        if r > eps:
                            total += r**2
                            size += 1
                        continue
                elif (b | m) in src:
                    continue  # the pair is taken at its hi entry, as in apply_block
                # A lone entry's two outputs are +-a * amp: one weight, twice.
                r = abs(a * amp)
                if r > eps:
                    w = r**2
                    total += w
                    p_even += w
                    total += w
                    size += 2
        outcome, p_branch = draw_branch(rng.random(), p_even, total)
        scale = 1.0 / math.sqrt(p_branch)
        if not h:
            out = {b: amp * scale for b, amp in src.items() if ((b & m).bit_count() & 1) == outcome}
        else:
            # The odd branch is the hi outputs, the even one the lo outputs: flip the label of the other side.
            c1, to_lo, to_hi = (-a, m, 0) if outcome else (a, 0, m)
            out = {}
            for b, amp in src.items():
                if b & m:
                    other = src.get(b ^ m)
                    v = c1 * amp if other is None else a * other + c1 * amp
                    if abs(v) > eps:
                        out[b ^ to_hi] = v * scale
                elif (b | m) not in src:
                    v = a * amp
                    if abs(v) > eps:
                        out[b ^ to_lo] = v * scale
        return MeasurementOutcome(outcome, p_branch / total, size), SparseState(self.num_qubits, out)


def new_wavefunction(num_qubits: int) -> SparseState:
    """The all-zeros computational basis state |0...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    return SparseState(num_qubits, {0: 1 + 0j})

