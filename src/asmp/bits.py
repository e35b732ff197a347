"""Integer bitmask helpers for sets of state ids.

State sets on the hot paths (belief supports, win/recurrence maps, fixpoint
frontiers) are plain ints: bit i set means state i is in. Masks hash and
compare fast, and subset tests are single `&` operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def mask_of(ids: Iterable[int]) -> int:
    """Pack state ids into a bitmask."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, including 0 and ``mask`` itself.

    Order is decreasing; the standard (sub - 1) & mask walk.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def supermasks_within(mask: int, universe: int) -> Iterator[int]:
    """Yield every mask m with ``mask <= m <= universe`` (as sets).

    Enumerates submasks of the free bits and ors them in; order follows
    decreasing free-bit submasks, so ``universe`` itself comes first.
    """
    free = universe & ~mask
    for extra in submasks(free):
        yield mask | extra
