import random

import pytest

import words_reference

from orecert.errors import UnknownGeneratorError, WordSyntaxError
from orecert.words import (
    Alphabet,
    Generator,
    cyclic_shift,
    free_reduce,
    invert_word,
    is_alternating,
    parse_word,
    print_word,
    shift_word,
)

AB = Alphabet.named("ab")
X = Alphabet.indexed()


def lw(text, alphabet=X):
    return parse_word(text, alphabet)


def test_parse_named():
    assert parse_word("a b^-1 a", AB) == (
        (Generator("a"), 1),
        (Generator("b"), -1),
        (Generator("a"), 1),
    )


def test_parse_indexed():
    assert parse_word("x0 x1^-1", X) == (
        (Generator("x", 0), 1),
        (Generator("x", 1), -1),
    )


def test_parse_empty_is_identity():
    assert parse_word("", AB) == ()
    assert parse_word("   ", AB) == ()


def test_parse_powers_expand():
    assert parse_word("a^3", AB) == ((Generator("a"), 1),) * 3
    assert parse_word("a^-2", AB) == ((Generator("a"), -1),) * 2
    assert parse_word("a^0", AB) == ()


def test_parse_uppercase_inverse():
    assert parse_word("A", AB) == ((Generator("a"), -1),)
    assert parse_word("A^2", AB) == ((Generator("a"), -1),) * 2


def test_parse_separators_and_adjacency():
    assert parse_word("a*b", AB) == parse_word("a b", AB) == parse_word("ab", AB)
    assert parse_word("x0x1", X) == parse_word("x0 x1", X)


def test_parse_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        parse_word("c", AB)
    with pytest.raises(UnknownGeneratorError):
        parse_word("a", X)
    with pytest.raises(UnknownGeneratorError):
        parse_word("x", X)  # bare x would alias x0
    with pytest.raises(UnknownGeneratorError):
        parse_word("X0", AB)


def test_parse_syntax_error_has_position():
    with pytest.raises(WordSyntaxError) as info:
        parse_word("a ^", AB)
    assert info.value.position == 2
    with pytest.raises(WordSyntaxError):
        parse_word("a^", AB)


def test_print_parse_roundtrip_random():
    rng = random.Random(2024)
    gens = [Generator("a"), Generator("b"), Generator("x", 0), Generator("x", 12)]
    alphabet = None
    for _ in range(500):
        named = rng.random() < 0.5
        pool = gens[:2] if named else gens[2:]
        alphabet = AB if named else X
        w = tuple((rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randrange(0, 12)))
        assert parse_word(print_word(w), alphabet) == w


def test_free_reduce_examples():
    assert free_reduce(lw("a a^-1", AB)) == ()
    assert free_reduce(lw("a b b^-1 a", AB)) == lw("a a", AB)
    w = lw("x0^-1 x1 x0")
    assert free_reduce(w) == w


def test_free_reduce_idempotent_and_shorter():
    rng = random.Random(99)
    pool = [Generator("a"), Generator("b")]
    for _ in range(300):
        w = tuple((rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randrange(0, 16)))
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert len(r) <= len(w)


def test_invert_involution_and_shift_identity():
    w = lw("x0 x1^-1 x2")
    assert invert_word(invert_word(w)) == w
    assert cyclic_shift(w, 0) == w
    assert cyclic_shift(w, len(w)) == w


def test_cyclic_shift_example():
    w = lw("a b a^-1", AB)
    assert print_word(cyclic_shift(w, 1)) == "b a^-1 a"


def test_invert_example():
    assert print_word(invert_word(lw("a b^-1", AB))) == "b a^-1"


def test_is_alternating():
    assert is_alternating(lw("x0 x1 x0^-1 x1^-1"))
    assert not is_alternating(lw("x0 x2"))
    assert is_alternating(lw("x2 x1 x0^-1 x3^-1"))
    assert not is_alternating(())
    assert not is_alternating(lw("x0"))
    assert not is_alternating(lw("x1 x0"))  # odd first
    assert is_alternating(lw("x1 x0"), cyclic=True)
    assert not is_alternating(lw("a b", AB))


def test_alternating_words_are_freely_reduced():
    rng = random.Random(5)
    for _ in range(200):
        w = tuple(
            (Generator("x", 2 * rng.randrange(3) + (i % 2)), rng.choice((1, -1)))
            for i in range(2 * rng.randrange(1, 6))
        )
        if is_alternating(w):
            assert free_reduce(w) == w


def test_shift_word():
    assert print_word(shift_word(lw("x0 x1^-1"), 2)) == "x2 x3^-1"
    w = lw("x1 x4^-1")
    assert shift_word(w, 0) == w
    assert shift_word(shift_word(w, 3), -3) == w
    with pytest.raises(ValueError):
        shift_word(w, -2)


def test_named_alphabet_rejects_x():
    with pytest.raises(ValueError):
        Alphabet.named("ax")


def test_named_alphabet_holds_at_most_23_letters():
    assert Alphabet.named(23).names[-1] == "w"
    with pytest.raises(ValueError, match="at most 23 named generators, got 24"):
        Alphabet.named(24)


# Only exponents that fail before any allocation: 10**23 does not fit an
# index, and a list of 2**62 letters is refused by its size alone.
@pytest.mark.parametrize("exponent", [2**62, 10**23])
@pytest.mark.parametrize("text,alphabet,start", [
    ("a b^{}", AB, 2), ("a B^-{}", AB, 2), ("x0 x12^{}", X, 3), ("x1^-{}", X, 0),
])
def test_oversized_power_is_a_syntax_error(exponent, text, alphabet, start):
    name = text.split()[-1].split("^")[0]
    with pytest.raises(WordSyntaxError, match=rf"power of {name} too large to expand") as info:
        parse_word(text.format(exponent), alphabet)
    assert info.value.position == start


# -- differential against the previous parser -----------------------------------

INDEXED_TOKENS = ["x0", "x1", "x3", "x12", "x007", "x2^3", "x1^-2", "x0^+1", "x4^0", "x5^-10"]
NAMED_TOKENS = ["a", "b", "A", "B^2", "a^-3", "b^0", "A^-2", "b^+4"]
# unknown generators, separators without letters, and syntax errors
JUNK = ["c", "X", "x", "x^2", "y", "*", "**", "\t", "^", "^-", "x3^", "x3^+", "a^-",
        "7", "é", "?", "-", "x1^x2"]


def _outcome(parse, text, alphabet):
    try:
        return "word", parse(text, alphabet)
    except (WordSyntaxError, UnknownGeneratorError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parser_agrees_with_the_previous_parser():
    rng = random.Random(1729)
    cases = [(X, INDEXED_TOKENS), (AB, NAMED_TOKENS), (Alphabet.named(3), NAMED_TOKENS)]
    kinds = set()
    for _ in range(4000):
        for alphabet, tokens in cases:
            pieces = [
                rng.choice(JUNK if rng.random() < 0.05 else tokens)
                for _ in range(rng.randrange(0, 14))
            ]
            text = "".join(p + rng.choice((" ", " ", "*", "")) for p in pieces)
            expected = _outcome(words_reference.parse_word, text, alphabet)
            assert _outcome(parse_word, text, alphabet) == expected, (text, alphabet)
            kinds.add(expected[0])
    assert kinds == {"word", WordSyntaxError, UnknownGeneratorError}


def test_parser_agrees_on_long_powers_and_words():
    rng = random.Random(800)
    for length in (0, 1, 50, 800):
        text = " ".join(
            f"x{rng.randrange(6)}^{rng.choice((1, -1, 2, -3, 17))}" for _ in range(length)
        )
        assert parse_word(text, X) == words_reference.parse_word(text, X)
    upper = "a^5 * B^-7 A b^12*a^-1"
    assert parse_word(upper, AB) == words_reference.parse_word(upper, AB)
