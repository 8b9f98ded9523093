"""Common backend contract for monoid and group element arithmetic.

A backend turns words into elements and multiplies them.  ``from_word``
is a monoid homomorphism from words under concatenation, and it is the one
place a backend states its generators: each is the element of its
one-letter word.  Group backends additionally provide ``inverse``.
Elements are immutable values that can be shared freely, and each element
is its own canonical key: ``==`` on elements is equality in the monoid,
``hash`` agrees with it, and ``<`` is a total order that fixes every
deterministic ordering (pools, search ranks, certificate listings).  So
sets, dict keys and ``sorted`` take elements directly, and one
``is_identity`` (``== identity``) and one ``generators`` (every letter of
a named alphabet, or x0 .. x_K of the indexed one, x0, x1 when K is None)
serve every backend.
"""

from __future__ import annotations

from ..errors import UnsupportedOperationError
from ..words import Alphabet, Word, parse_int, parse_word


class Backend:
    name: str
    alphabet: Alphabet
    is_group: bool

    # -- construction ----------------------------------------------------

    @property
    def identity(self):
        raise NotImplementedError

    def from_word(self, w: Word):
        raise NotImplementedError

    def from_text(self, text: str):
        return self.from_word(self.parse(text))

    def parse(self, text: str) -> Word:
        return parse_word(text, self.alphabet)

    # -- arithmetic -------------------------------------------------------

    def multiply(self, x, y):
        raise NotImplementedError

    def right_multiplier(self, y):
        """The map x -> x*y.  ``y`` is recognised once, here, where
        ``multiply`` recognises it at every call; the map checks nothing,
        so every x it is given must be an element of this backend."""
        return lambda x: self.multiply(x, y)

    def inverse(self, x):
        raise UnsupportedOperationError(f"{self.name} has no inverses")

    # -- identity and equality --------------------------------------------

    def is_identity(self, x) -> bool:
        return x == self.identity

    def canonical_key(self, x):
        """The element itself: elements are their own keys."""
        return x

    def canonical_str(self, x) -> str:
        """Bit-exact text form used in certificates."""
        raise NotImplementedError

    def element_from_str(self, s: str):
        """Inverse of canonical_str: x for the text ``canonical_str(x)``.
        Any other text raises, a ValueError unless a rank or word-syntax
        error comes first, so a certificate names each element one way.
        Used when re-verifying certificates."""
        raise NotImplementedError

    # -- standard generators ------------------------------------------------

    def generators(self, max_index: int | None = None) -> list:
        """Standard generating elements, as (label, element) pairs: every
        letter of a named alphabet, or x0 .. x_K of the indexed one for
        K = ``max_index`` (x0, x1 when it is None), each the element of its
        one-letter word."""
        if self.alphabet.kind == "named":
            count = len(self.alphabet.names)
        else:
            count = 2 if max_index is None else max_index + 1
        gens = [self.alphabet.generator(i) for i in range(count)]
        return [(str(g), self.from_word(((g, 1),))) for g in gens]

    def ball_size(self, length: int, max_index: int | None = None) -> int | None:
        """Number of elements of the ball ``ore.enumerate_pool`` builds for
        these bounds, counted without building it, or None when the backend
        has no count."""
        return None

    def in_ball(self, x, length: int, max_index: int | None = None) -> bool | None:
        """Whether ``x`` lies in that ball, decided without building it, or
        None when the backend cannot decide it."""
        return None

    # -- group envelope -----------------------------------------------------

    def envelope(self) -> "Backend":
        """Group in which relations over this backend are evaluated."""
        if self.is_group:
            return self
        raise UnsupportedOperationError(f"{self.name} has no group envelope")

    def embed_to_envelope(self, x):
        if self.is_group:
            return x
        raise UnsupportedOperationError(f"{self.name} has no group envelope")

    def __eq__(self, other):
        return isinstance(other, Backend) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<backend {self.name}>"


def vector_str(t: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in t) + ")"


def vector_from_str(s: str) -> tuple[int, ...]:
    """The vector ``vector_str`` writes as ``s``; any other text raises
    ValueError."""
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not a vector: {s!r}")
    t = tuple(map(parse_int, s[1:-1].split(","))) if len(s) > 2 else ()
    if vector_str(t) != s:
        raise ValueError(f"not a canonical vector: {s!r}")
    return t
