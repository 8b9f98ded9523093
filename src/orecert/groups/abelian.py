"""Free abelian groups Z^m: elements are exponent-sum vectors.

The ball of radius L over the generators and their inverses is the set of
vectors of l1 norm at most L, so it is counted and decided without being
built.  A vector with exactly k nonzero coordinates and norm at most L is
a choice of those k coordinates, of their signs, and of k positive
absolute values with sum at most L, that is of k distinct numbers in
1..L (the partial sums).  So the ball has sum_k 2^k C(m, k) C(L, k)
elements.
"""

from __future__ import annotations

from math import comb
from operator import add

from ..errors import BackendMismatchError
from ..words import Alphabet, Word
from .base import Backend, vector_from_str, vector_str


class ZmBackend(Backend):
    is_group = True

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.name = f"zm:{rank}"
        self.alphabet = Alphabet.named(rank)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def from_word(self, w: Word) -> tuple[int, ...]:
        t = [0] * self.rank
        for gen, exp in w:
            t[self.alphabet.position(gen)] += exp
        return tuple(t)

    def multiply(self, x, y):
        if len(x) != len(y):
            raise BackendMismatchError("rank mismatch")
        return tuple(map(add, x, y))

    def inverse(self, x):
        return tuple(-a for a in x)

    # The element is its own key; kept per class so bench/tracer.py can wrap it.
    def canonical_key(self, x):
        return x

    def canonical_str(self, x) -> str:
        return vector_str(x)

    def ball_size(self, length: int, max_index: int | None = None) -> int:
        return sum(2**k * comb(self.rank, k) * comb(length, k) for k in range(self.rank + 1))

    def in_ball(self, x, length: int, max_index: int | None = None) -> bool:
        return sum(map(abs, x)) <= length

    def element_from_str(self, s: str):
        t = vector_from_str(s)
        if len(t) != self.rank:
            raise BackendMismatchError(f"expected rank {self.rank}, got {len(t)}")
        return t
