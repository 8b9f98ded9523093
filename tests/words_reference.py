"""The word parser as it was before it built each generator once per
parse, kept verbatim as the oracle for differential tests: the parser
must return the same words, and raise the same errors at the same
positions, on every text."""

from __future__ import annotations

from orecert.errors import UnknownGeneratorError, WordSyntaxError
from orecert.words import Alphabet, Generator, Letter, Word


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
