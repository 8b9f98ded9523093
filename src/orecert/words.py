"""Generator alphabets and words with +/-1 exponents.

A word is a tuple of letters ``(Generator, e)`` with e exactly +1 or -1;
powers in the input syntax are expanded at parse time so the
representation invariant stays trivial.  ``Generator`` is a NamedTuple, so
generators and letters compare, order and hash as plain tuples, by
``(name, index)``.  Two alphabet styles exist:

* named: single lowercase letters (``a``, ``b``, ...), where an uppercase
  letter is accepted as a synonym for the inverse (``A`` means ``a^-1``);
* indexed: the family ``x0, x1, x2, ...`` with nonnegative subscripts.

Word grammar::

    WORD   := (LETTER SEP?)*
    LETTER := NAME ("^" SIGN? DIGITS)?
    NAME   := [a-z] | [A-Z] | "x" DIGITS
    DIGITS := [0-9]+
    SEP    := whitespace | "*"

Digits are the ASCII ones only: other Unicode digits (``²``, ``٣``) are
not digits here.

``parse_word`` reads each distinct whitespace-separated chunk of the text
once and repeats its letters for every copy; ``print_word`` formats each
distinct letter once.

The letter ``x`` is reserved for the indexed family and is therefore not a
valid named generator.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .errors import UnknownGeneratorError, WordSyntaxError


class Generator(NamedTuple):
    """A single generator; named alphabets use index 0 with distinct names.
    As a tuple it compares, orders and hashes as ``(name, index)``."""

    name: str
    index: int = 0

    def __str__(self) -> str:
        if self.name == "x":
            return f"x{self.index}"
        return self.name


Letter = tuple[Generator, int]
Word = tuple[Letter, ...]

_NAMED_POOL = "abcdefghijklmnopqrstuvw"  # 'x' reserved for the indexed family
_DIGITS = frozenset("0123456789")  # str.isdigit would take any Unicode digit


def parse_int(text: str) -> int:
    """``text``, an optional ``-`` and ASCII digits, as an int.  ``int()``
    alone would also take other Unicode digits, ``_``, a ``+`` and
    surrounding whitespace."""
    digits = text[1:] if text[:1] == "-" else text
    if not digits or not _DIGITS.issuperset(digits):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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
            if letters > len(_NAMED_POOL):
                raise ValueError(f"at most {len(_NAMED_POOL)} named generators, got {letters}")
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
    nothing.  Raises WordSyntaxError (with position), also for a power too
    large to expand, or UnknownGeneratorError.
    """
    chunks = text.split()
    seen: dict[str, tuple[Generator, int]] = {}  # name as written -> (generator, sign)
    # Each distinct chunk is read once; a repeat reuses its letters.
    letters: list[Letter] = []
    read: dict[str, list[Letter]] = {}
    for k, chunk in enumerate(chunks):
        got = read.get(chunk)
        if got is None:
            try:
                got = read[chunk] = _scan(chunk, 0, len(chunk), alphabet, seen)
            except (WordSyntaxError, UnknownGeneratorError):
                # Read the chunk again where it stands in ``text``, so the
                # error carries its position there.
                start = 0
                for before in chunks[:k]:
                    start = text.index(before, start) + len(before)
                start = text.index(chunk, start)
                got = read[chunk] = _scan(text, start, start + len(chunk), alphabet, seen)
        letters += got
    return tuple(letters)


def _scan(text: str, i: int, n: int, alphabet: Alphabet, seen: dict) -> list[Letter]:
    """The letters of ``text[i:n]``; errors give positions in ``text``."""
    letters: list[Letter] = []
    digits = _DIGITS
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
            continue
        start = i
        if ch == "x" and i + 1 < n and text[i + 1] in digits:
            i += 1
            while i < n and text[i] in digits:
                i += 1
        elif ch.isalpha() and ch.isascii():
            i += 1
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", start)
        name = text[start:i]
        known = seen.get(name)
        if known is None:
            known = seen[name] = _parse_generator(name, alphabet, start)
        gen, sign = known
        power = 1
        if i < n and text[i] == "^":
            i += 1
            psign = 1
            if i < n and text[i] in "+-":
                psign = -1 if text[i] == "-" else 1
                i += 1
            j = i
            while j < n and text[j] in digits:
                j += 1
            if j == i:
                raise WordSyntaxError("expected digits after '^'", i)
            power = psign * int(text[i:j])
            i = j
        total = sign * power
        if total == 1 or total == -1:
            letters.append((gen, total))
        elif total:
            try:
                letters += [(gen, 1 if total > 0 else -1)] * abs(total)
            except (OverflowError, MemoryError):
                raise WordSyntaxError(f"power of {name} too large to expand", start) from None
    return letters


def _parse_generator(name: str, alphabet: Alphabet, start: int) -> tuple[Generator, int]:
    """The generator a letter's name denotes, and +1, or -1 for an
    uppercase inverse."""
    sign = 1
    if name[0] == "x" and len(name) > 1:
        gen = Generator("x", int(name[1:]))
    elif alphabet.kind == "indexed":
        # A bare letter here would alias x0; only "x" DIGITS is valid.
        raise UnknownGeneratorError(
            f"generator {name!r} not in alphabet (at position {start})"
        )
    elif name.isupper():
        gen = Generator(name.lower())
        sign = -1
    else:
        gen = Generator(name)
    if gen not in alphabet:
        raise UnknownGeneratorError(
            f"generator {gen} not in alphabet (at position {start})"
        )
    return gen, sign


def print_word(w: Word) -> str:
    """Canonical text form; inverse of parse_word on canonical strings.
    Each distinct letter is formatted once."""
    text: dict[Letter, str] = {}
    out = []
    for letter in w:
        t = text.get(letter)
        if t is None:
            g, e = letter
            t = text[letter] = f"{g}^-1" if e < 0 else str(g)
        out.append(t)
    return " ".join(out)


def cyclic_shift(w: Word, offset: int) -> Word:
    """Rotate left by ``offset``: the first ``offset`` letters move to the end."""
    if not w:
        return w
    k = offset % len(w)
    return w[k:] + w[:k]


def _indexed_only(w: Iterable[Letter]) -> bool:
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
    """Add ``alpha`` to every subscript; subscripts must stay nonnegative.
    Each distinct letter is translated once, in the order it first occurs,
    so an error names the first offending letter of the word."""
    shifted: dict[Letter, Letter] = dict.fromkeys(w)
    if not _indexed_only(shifted):
        raise UnknownGeneratorError("index shift needs a word over x0, x1, ...")
    for letter in shifted:
        g, e = letter
        i = g.index + alpha
        if i < 0:
            raise ValueError(f"shift by {alpha} makes subscript of {g} negative")
        shifted[letter] = (Generator("x", i), e)
    return tuple(map(shifted.__getitem__, w))
