"""Shared word-building utilities for the test suite."""

from __future__ import annotations

import itertools
import random

from orecert.words import Generator, Word, concat, invert_word


def letters(names: str) -> list:
    """All +/-1 letters over the given named generators."""
    out = []
    for n in names:
        out.append((Generator(n), 1))
        out.append((Generator(n), -1))
    return out


def indexed_letters(max_index: int) -> list:
    out = []
    for i in range(max_index + 1):
        out.append((Generator("x", i), 1))
        out.append((Generator("x", i), -1))
    return out


def random_word(rng, alphabet_letters, max_len: int) -> Word:
    return tuple(
        rng.choice(alphabet_letters) for _ in range(rng.randrange(0, max_len + 1))
    )


def commutator(u: Word, v: Word) -> Word:
    return concat(u, v, invert_word(u), invert_word(v))


def conjugate(u: Word, by: Word) -> Word:
    return concat(invert_word(by), u, by)


def alternating_words(k: int):
    """All alternating words of length 2k over x0^(+/-1), x1^(+/-1)."""
    x0 = [(Generator("x", 0), 1), (Generator("x", 0), -1)]
    x1 = [(Generator("x", 1), 1), (Generator("x", 1), -1)]
    slots = [x0, x1] * k
    for combo in itertools.product(*slots):
        yield tuple(combo)


def ab_alternating_words(k: int):
    """All words a^(+/-1) b^(+/-1) ... of length 2k over named a, b."""
    a = [(Generator("a"), 1), (Generator("a"), -1)]
    b = [(Generator("b"), 1), (Generator("b"), -1)]
    slots = [a, b] * k
    for combo in itertools.product(*slots):
        yield tuple(combo)


def rewrite_normalize(w: Word, strategy: str, rng: random.Random | None = None) -> tuple:
    """Normal form of a positive word over x0, x1, ... by repeatedly
    rewriting one adjacent violation x_j x_i -> x_i x_{j+1} (i < j): the
    ``leftmost``, the ``rightmost`` or a ``random`` one.  Every strategy
    agrees with ``pos_normalize`` because the rewriting system is
    confluent."""
    seq = [gen.index for gen, _ in w]
    while True:
        spots = [i for i in range(len(seq) - 1) if seq[i] > seq[i + 1]]
        if not spots:
            return tuple(seq)
        if strategy == "leftmost":
            i = spots[0]
        elif strategy == "rightmost":
            i = spots[-1]
        elif strategy == "random":
            i = (rng or random).choice(spots)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        j, k = seq[i], seq[i + 1]
        seq[i], seq[i + 1] = k, j + 1
