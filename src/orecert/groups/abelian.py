"""Free abelian groups Z^m: elements are exponent-sum vectors."""

from __future__ import annotations

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

    def generator_element(self, gen) -> tuple[int, ...]:
        i = self.alphabet.position(gen)
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def from_word(self, w: Word) -> tuple[int, ...]:
        t = [0] * self.rank
        for gen, exp in w:
            t[self.alphabet.position(gen)] += exp
        return tuple(t)

    def multiply(self, x, y):
        if len(x) != len(y):
            raise BackendMismatchError("rank mismatch")
        return tuple(a + b for a, b in zip(x, y))

    def inverse(self, x):
        return tuple(-a for a in x)

    def is_identity(self, x) -> bool:
        return not any(x)

    # The element is its own key; kept per class so bench/tracer.py can wrap it.
    def canonical_key(self, x):
        return x

    def canonical_str(self, x) -> str:
        return vector_str(x)

    def element_from_str(self, s: str):
        t = vector_from_str(s)
        if len(t) != self.rank:
            raise BackendMismatchError(f"expected rank {self.rank}, got {len(t)}")
        return t

    def generators(self, max_index=None):
        return [
            (self.alphabet.names[i], self.generator_element(self.alphabet.generator(i)))
            for i in range(self.rank)
        ]
