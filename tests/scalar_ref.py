"""Scalar reference semantics of a permutation-queue pass, for differential tests."""

from sparsesim.permqueue import FLIP, PAULIY, ZPARITY


def eval_items(records, items):
    """Apply ``records`` to each ``(label, amp)`` of ``items`` in turn; the entry order is kept."""
    out = []
    for b, amp in items:
        for kind, ctrl, mask, mask2, pe, po in records:
            if b & ctrl != ctrl:
                continue
            if kind == FLIP:
                b = b ^ mask
            elif kind == ZPARITY:
                amp = amp * (po if (b & mask).bit_count() & 1 else pe)
            elif kind == PAULIY:
                amp = amp * (po if b & mask else pe)
                b = b ^ mask
            else:  # BITSWAP
                if bool(b & mask) != bool(b & mask2):
                    b = b ^ (mask | mask2)
        out.append((b, amp))
    return out
