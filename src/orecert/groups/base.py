"""Common backend contract for monoid and group element arithmetic.

A backend turns words into elements and multiplies them.
``from_word`` is a monoid homomorphism from words under concatenation;
group backends additionally provide ``inverse``.  Elements are immutable
values that can be shared freely, and each element is its own canonical
key: ``==`` on elements is equality in the monoid, ``hash`` agrees with it,
and ``<`` is a total order that fixes every deterministic ordering (pools,
search ranks, certificate listings).  So sets, dict keys and ``sorted``
take elements directly, and one ``is_identity`` (``== identity``) and one
``generators`` (every letter of a named alphabet, or x0 .. x_K of the
indexed one, x0, x1 when K is None) serve every backend.
"""

from __future__ import annotations

from ..errors import UnsupportedOperationError
from ..words import Alphabet, Word, parse_word


class Backend:
    name: str
    alphabet: Alphabet
    is_group: bool

    # -- construction ----------------------------------------------------

    @property
    def identity(self):
        raise NotImplementedError

    def from_word(self, w: Word):
        # Neighbours multiply pairwise, level by level, so the operands of a
        # product grow with its level rather than with its place in the word.
        xs = [self.letter_element(letter) for letter in w] or [self.identity]
        while len(xs) > 1:
            pairs = [self.multiply(x, y) for x, y in zip(xs[::2], xs[1::2])]
            xs = pairs + xs[-1:] if len(xs) % 2 else pairs
        return xs[0]

    def letter_element(self, letter):
        gen, exp = letter
        g = self.generator_element(gen)
        return g if exp > 0 else self.inverse(g)

    def generator_element(self, gen):
        raise NotImplementedError

    def from_text(self, text: str):
        return self.from_word(self.parse(text))

    def parse(self, text: str) -> Word:
        return parse_word(text, self.alphabet)

    # -- arithmetic -------------------------------------------------------

    def multiply(self, x, y):
        raise NotImplementedError

    def inverse(self, x):
        raise UnsupportedOperationError(f"{self.name} has no inverses")

    # -- identity and equality --------------------------------------------

    def is_identity(self, x) -> bool:
        return x == self.identity

    def equals(self, x, y) -> bool:
        return x == y

    def canonical_key(self, x):
        """The element itself: elements are their own keys."""
        return x

    def canonical_str(self, x) -> str:
        """Bit-exact text form used in certificates."""
        raise NotImplementedError

    def element_from_str(self, s: str):
        """Inverse of canonical_str; used when re-verifying certificates."""
        raise NotImplementedError

    # -- standard generators ------------------------------------------------

    def generators(self, max_index: int | None = None) -> list:
        """Standard generating elements, as (label, element) pairs: every
        letter of a named alphabet, or x0 .. x_K of the indexed one for
        K = ``max_index`` (x0, x1 when it is None)."""
        if self.alphabet.kind == "named":
            count = len(self.alphabet.names)
        else:
            count = 2 if max_index is None else max_index + 1
        gens = [self.alphabet.generator(i) for i in range(count)]
        return [(str(g), self.generator_element(g)) for g in gens]

    def ball_size(self, length: int, max_index: int | None = None) -> int | None:
        """Number of elements of the ball ``ore.enumerate_pool`` builds for
        these bounds, counted without building it, or None when the backend
        has no count."""
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
    body = s.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a vector: {s!r}")
    inner = body[1:-1]
    if not inner:
        return ()
    return tuple(int(c) for c in inner.split(","))
