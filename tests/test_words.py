import random
from dataclasses import dataclass

import pytest

import words_reference
from helpers import free_reduce, invert_word

from orecert.errors import UnknownGeneratorError, WordSyntaxError
from orecert.words import (
    Alphabet,
    Generator,
    cyclic_shift,
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


@pytest.mark.parametrize("text,alphabet,error,position", [
    ("x\u00b2", X, UnknownGeneratorError, 0),  # superscript two
    ("x0^\u00b2", X, WordSyntaxError, 3),
    ("x1 x\u0663", X, UnknownGeneratorError, 3),  # Arabic-Indic three
    ("x0^-\u0663", X, WordSyntaxError, 4),
    ("a^\u00b2", AB, WordSyntaxError, 2),
    ("b x\u0663", AB, UnknownGeneratorError, 2),
])
def test_only_ascii_digits_are_digits(text, alphabet, error, position):
    with pytest.raises(error) as info:
        parse_word(text, alphabet)
    assert str(info.value).endswith(f"(at position {position})")


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
    # each distinct letter is translated once, every copy keeps its place,
    # and an error names the first offending letter of the word
    assert print_word(shift_word(lw("x2 x1 x2 x1^-1 x2"), -1)) == "x1 x0 x1 x0^-1 x1"
    with pytest.raises(ValueError, match="subscript of x1 negative"):
        shift_word(lw("x3 x1 x0 x1"), -2)
    with pytest.raises(UnknownGeneratorError):
        shift_word(((Generator("x", 0), 1), (Generator("a"), 1)), -1)


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


# -- reading each distinct chunk once -------------------------------------------

SEPARATORS = [" ", "\t", "\n", "\u00a0", "\u3000", "*", ""]


def test_parser_agrees_across_separators_and_repeated_chunks():
    # few distinct pieces and many copies, so most chunks are repeats
    rng = random.Random(4242)
    cases = [(X, INDEXED_TOKENS), (AB, NAMED_TOKENS)]
    kinds = set()
    for _ in range(1500):
        for alphabet, tokens in cases:
            distinct = [rng.choice(JUNK if rng.random() < 0.03 else tokens)
                        for _ in range(rng.randrange(1, 4))]
            text = "".join(rng.choice(distinct) + rng.choice(SEPARATORS)
                           for _ in range(rng.randrange(0, 30)))
            expected = _outcome(words_reference.parse_word, text, alphabet)
            assert _outcome(parse_word, text, alphabet) == expected, (text, alphabet)
            kinds.add(expected[0])
    assert kinds == {"word", WordSyntaxError, UnknownGeneratorError}


@pytest.mark.parametrize("text,alphabet,error,position", [
    ("x1 x1 x1^", X, WordSyntaxError, 9),  # after two cached chunks
    ("x1^ x1^", X, WordSyntaxError, 3),  # the first copy of a bad chunk
    ("x1^2 x1^", X, WordSyntaxError, 8),  # the bad chunk also starts the first one
    ("x1\u00a0x1\u3000x1^-", X, WordSyntaxError, 10),
    ("x0 x1 x0 x1 x0y x1", X, UnknownGeneratorError, 14),
    ("a b a b c", AB, UnknownGeneratorError, 8),
    ("c c", AB, UnknownGeneratorError, 0),
    ("x2\tx2 \n a x2", X, UnknownGeneratorError, 8),
])
def test_an_error_after_cached_chunks_has_its_position_in_the_text(text, alphabet, error,
                                                                   position):
    assert _outcome(parse_word, text, alphabet) == _outcome(
        words_reference.parse_word, text, alphabet)
    with pytest.raises(error) as info:
        parse_word(text, alphabet)
    assert str(info.value).endswith(f"(at position {position})")


def test_repeated_powers_expand_each_copy():
    for text in ("x0^300 x0^300", "x1^-2 x0^300 x1^-2 x0^300\tx1^-2", "a^7 A^7 a^7 B^0 B^0"):
        alphabet = AB if text[0] == "a" else X
        assert parse_word(text, alphabet) == words_reference.parse_word(text, alphabet)
    assert len(parse_word("x0^300 x0^300", X)) == 600


def _print_letter_by_letter(w):
    """print_word as it was before it formatted each distinct letter once."""
    return " ".join(str(g) + ("^-1" if e < 0 else "") for g, e in w)


def test_print_word_equals_the_per_letter_formula_and_parses_back():
    rng = random.Random(2026)
    named = [Generator("a"), Generator("b")]
    indexed = [Generator("x", i) for i in (0, 1, 7, 123)]
    for _ in range(500):
        pool, alphabet = rng.choice(((named, AB), (indexed, X)))
        w = tuple((rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randrange(0, 60)))
        assert print_word(w) == _print_letter_by_letter(w)
        assert parse_word(print_word(w), alphabet) == w


@dataclass(frozen=True, order=True)
class _DataclassGenerator:
    """Generator as it was before it became a NamedTuple."""

    name: str
    index: int = 0


def test_generator_compares_hashes_and_prints_as_the_dataclass_did():
    pairs = [(name, index) for name in ("a", "b", "w", "x") for index in (0, 1, 2, 10, 123)]
    new = [Generator(*p) for p in pairs]
    old = [_DataclassGenerator(*p) for p in pairs]
    rng = random.Random(11)
    for _ in range(20):
        order = list(range(len(pairs)))
        rng.shuffle(order)
        assert sorted(new[i] for i in order) == sorted((new[i] for i in order),
                                                       key=lambda g: (g.name, g.index))
        assert [(g.name, g.index) for g in sorted(new[i] for i in order)] == [
            (g.name, g.index) for g in sorted(old[i] for i in order)]
    for g, d in zip(new, old):
        assert hash(g) == hash(d)
        assert [g == h for h in new] == [d == h for h in old]
        assert [g < h for h in new] == [d < h for h in old]
    assert str(Generator("a")) == "a" and str(Generator("x", 12)) == "x12"
    assert Generator("a").index == 0 and Generator("a") == Generator("a", 0)
