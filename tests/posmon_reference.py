"""The positive monoid's normal form as ``orecert.groups.thompson`` computed
it before it read words left to right, kept as the oracle for
differential tests: ``pos_normalize`` must return the same normal form
on every positive word."""

from __future__ import annotations

from orecert.words import Word


def prepend_generator(nf: list[int], q: int) -> None:
    """Left-multiply the normal form ``nf`` by x_q, in place: x_q moves
    past every p below its index by x_q x_p = x_p x_(q+1), rising by one
    each time, and stops before the first p at or above it."""
    j = 0
    for p in nf:
        if p >= q:
            break
        q += 1
        j += 1
    nf.insert(j, q)


def pos_normalize(w: Word) -> tuple[int, ...]:
    """Normal form of a positive word, read right to left, each letter
    multiplied on the left."""
    nf: list[int] = []
    for gen, _ in reversed(w):
        prepend_generator(nf, gen.index)
    return tuple(nf)
