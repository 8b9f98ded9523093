"""Generator alphabets and words with +/-1 exponents.

A word is a tuple of (Generator, exponent) pairs with exponents exactly +1
or -1; powers in the input syntax are expanded at parse time so the
representation invariant stays trivial.  Two alphabet styles exist:

* named: single lowercase letters (``a``, ``b``, ...), where an uppercase
  letter is accepted as a synonym for the inverse (``A`` means ``a^-1``);
* indexed: the family ``x0, x1, x2, ...`` with nonnegative subscripts.

Word grammar::

    WORD   := (LETTER SEP?)*
    LETTER := NAME ("^" SIGN? DIGITS)?
    NAME   := [a-z] | [A-Z] | "x" DIGITS
    SEP    := whitespace | "*"

The letter ``x`` is reserved for the indexed family and is therefore not a
valid named generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownGeneratorError, WordSyntaxError


@dataclass(frozen=True, order=True)
class Generator:
    """A single generator; named alphabets use index 0 with distinct names."""

    name: str
    index: int = 0

    def __str__(self) -> str:
        if self.name == "x":
            return f"x{self.index}"
        return self.name


Letter = tuple[Generator, int]
Word = tuple[Letter, ...]

_NAMED_POOL = "abcdefghijklmnopqrstuvw"  # 'x' reserved for the indexed family


class Alphabet:
    """Declares which generators a word may use."""

    def __init__(self, kind: str, names: tuple[str, ...] = ()):
        if kind not in ("named", "indexed"):
            raise ValueError(f"unknown alphabet kind {kind!r}")
        if kind == "named":
            if not names:
                raise ValueError("named alphabet needs at least one letter")
            for n in names:
                if len(n) != 1 or not n.islower() or n == "x":
                    raise ValueError(f"invalid named generator {n!r}")
            if len(set(names)) != len(names):
                raise ValueError("duplicate generator names")
        self.kind = kind
        self.names = names
        self._positions = {n: i for i, n in enumerate(names)}

    @staticmethod
    def named(letters) -> "Alphabet":
        if isinstance(letters, int):
            letters = _NAMED_POOL[:letters]
        return Alphabet("named", tuple(letters))

    @staticmethod
    def indexed() -> "Alphabet":
        return Alphabet("indexed")

    def __contains__(self, gen: Generator) -> bool:
        if self.kind == "indexed":
            return gen.name == "x" and gen.index >= 0
        return gen.name in self._positions and gen.index == 0

    def position(self, gen: Generator) -> int:
        """Coordinate of a named generator (defines vector components)."""
        if gen not in self:
            raise UnknownGeneratorError(f"generator {gen} not in alphabet")
        if self.kind == "indexed":
            return gen.index
        return self._positions[gen.name]

    def generator(self, i: int) -> Generator:
        if self.kind == "indexed":
            return Generator("x", i)
        return Generator(self.names[i])

    def __repr__(self) -> str:
        if self.kind == "indexed":
            return "Alphabet.indexed()"
        return f"Alphabet.named({''.join(self.names)!r})"


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse ``text`` into a word over ``alphabet``.

    Runs of whitespace and ``*`` act as separators.  Powers are expanded:
    ``a^3`` becomes three letters, ``a^-2`` two inverse letters, ``a^0``
    nothing.  Raises WordSyntaxError (with position) or
    UnknownGeneratorError.
    """
    letters: list[Letter] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
            continue
        start = i
        sign = 1
        if ch == "x" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            gen = Generator("x", int(text[i + 1 : j]))
            i = j
        elif ch.isalpha() and ch.isascii():
            if alphabet.kind == "indexed":
                # A bare letter here would alias x0; only "x" DIGITS is valid.
                raise UnknownGeneratorError(
                    f"generator {ch!r} not in alphabet (at position {start})"
                )
            if ch.isupper():
                gen = Generator(ch.lower())
                sign = -1
            else:
                gen = Generator(ch)
            i += 1
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", start)
        if gen not in alphabet:
            raise UnknownGeneratorError(
                f"generator {gen} not in alphabet (at position {start})"
            )
        power = 1
        if i < n and text[i] == "^":
            i += 1
            psign = 1
            if i < n and text[i] in "+-":
                psign = -1 if text[i] == "-" else 1
                i += 1
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j == i:
                raise WordSyntaxError("expected digits after '^'", i)
            power = psign * int(text[i:j])
            i = j
        total = sign * power
        unit = 1 if total > 0 else -1
        letters.extend((gen, unit) for _ in range(abs(total)))
    return tuple(letters)


def print_word(w: Word) -> str:
    """Canonical text form; inverse of parse_word on canonical strings."""
    return " ".join(str(g) + ("^-1" if e < 0 else "") for g, e in w)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent g g^-1 pairs until none remain."""
    out: list[Letter] = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def cyclic_shift(w: Word, offset: int) -> Word:
    """Rotate left by ``offset``: the first ``offset`` letters move to the end."""
    if not w:
        return w
    k = offset % len(w)
    return w[k:] + w[:k]


def concat(*ws: Word) -> Word:
    out: list[Letter] = []
    for w in ws:
        out.extend(w)
    return tuple(out)


def exponent_sums(w: Word) -> dict[Generator, int]:
    sums: dict[Generator, int] = {}
    for g, e in w:
        sums[g] = sums.get(g, 0) + e
        if sums[g] == 0:
            del sums[g]
    return sums


def _indexed_only(w: Word) -> bool:
    return all(g.name == "x" for g, _ in w)


def is_alternating(w: Word, cyclic: bool = False) -> bool:
    """True if subscripts alternate even, odd, even, odd along the word.

    The linear form (default) requires an even subscript first; with
    ``cyclic=True`` any rotation with that property is accepted, which for
    even-length words means all cyclically adjacent subscripts differ in
    parity.  Words containing non-indexed generators are never alternating.
    """
    n = len(w)
    if n < 2 or n % 2 != 0 or not _indexed_only(w):
        return False
    if cyclic:
        return all(w[i][0].index % 2 != w[(i + 1) % n][0].index % 2 for i in range(n))
    return all(w[i][0].index % 2 == i % 2 for i in range(n))


def shift_word(w: Word, alpha: int) -> Word:
    """Add ``alpha`` to every subscript; subscripts must stay nonnegative."""
    if not _indexed_only(w):
        raise UnknownGeneratorError("index shift needs a word over x0, x1, ...")
    shifted = []
    for g, e in w:
        i = g.index + alpha
        if i < 0:
            raise ValueError(f"shift by {alpha} makes subscript of {g} negative")
        shifted.append((Generator("x", i), e))
    return tuple(shifted)
