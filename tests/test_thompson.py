import io
import itertools
import json
import random

import pytest

import f_reference
from helpers import indexed_letters, random_word, rewrite_normalize

from orecert.cli import main
from orecert.errors import NegativeExponentError, UnknownGeneratorError
from orecert.groups import (
    FBackend,
    PosMonoidBackend,
    pos_normalize,
    thompson,
    tree_from_str,
    tree_leaves,
)
from orecert.groups.thompson import _fold, _times_letter
from orecert.words import Generator, free_reduce, invert_word

FB = FBackend()
PM = PosMonoidBackend()


def fw(text):
    return FB.from_word(FB.parse(text))


def test_generator_zero_shape():
    x0 = FB.generator_pair(0)
    assert FB.canonical_str(x0) == "CCLLL/CLCLL"


def test_generator_spine():
    x2 = FB.generator_pair(2)
    assert FB.canonical_str(x2) == "CLCLCCLLL/CLCLCLCLL"
    assert tree_leaves(x2.domain) == tree_leaves(x2.range) == 5


def test_tree_string_roundtrip():
    for s in ("L", "CLL", "CCLLL", "CLCLCCLLL"):
        assert tree_from_str(s) == s
    with pytest.raises(ValueError):
        tree_from_str("CL")
    with pytest.raises(ValueError):
        tree_from_str("CLLL")


def test_inverse_and_identity():
    x0 = FB.generator_pair(0)
    assert FB.is_identity(FB.multiply(x0, FB.inverse(x0)))
    assert FB.is_identity(FB.multiply(FB.inverse(x0), x0))
    assert FB.multiply(x0, FB.identity) == x0


def test_defining_relations_exhaustive():
    for i in range(6):
        for j in range(i + 1, 6):
            lhs = FB.multiply(FB.generator_pair(j), FB.generator_pair(i))
            rhs = FB.multiply(FB.generator_pair(i), FB.generator_pair(j + 1))
            assert lhs == rhs, (i, j)


def test_relation_as_word_is_trivial():
    w = FB.parse("x1 x0 x2^-1 x0^-1")
    assert FB.is_identity(FB.from_word(w))


def test_alternating_commutator_is_nontrivial():
    assert not FB.is_identity(fw("x0 x1 x0^-1 x1^-1"))


def test_conjugation_raises_indices():
    for i in range(3):
        for j in range(i + 1, 5):
            w = f"x{i}^-1 x{j} x{i}"
            assert fw(w) == FB.generator_pair(j + 1), (i, j)


def test_homomorphism_random_words():
    rng = random.Random(271)
    pool = indexed_letters(3)
    for _ in range(1000):
        u = random_word(rng, pool, 20)
        v = random_word(rng, pool, 20)
        assert FB.from_word(u + v) == FB.multiply(FB.from_word(u), FB.from_word(v))


def test_agrees_with_nested_tuple_reference():
    ref = f_reference.FBackend()
    rng = random.Random(2024)
    pool = indexed_letters(3)
    for _ in range(2000):
        w = random_word(rng, pool, 60)
        text = FB.canonical_str(FB.from_word(w))
        assert text == ref.canonical_str(ref.from_word(w)), w
        assert FB.canonical_str(FB.element_from_str(text)) == text


def _ref(x):
    return f_reference.FBackend().element_from_str(FB.canonical_str(x))


def test_times_letter_agrees_with_the_reference_on_every_prefix():
    ref = f_reference.FBackend()
    rng = random.Random(16)
    pool = indexed_letters(5)
    steps = cascades = 0
    for t in range(2000):
        w = random_word(rng, pool, 30)
        if t % 2:
            # w w^-1 ends in the identity, so its second half contracts
            # whole subtrees back down
            w += invert_word(w)
        x, r = FB.identity, ref.identity
        for letter in w:
            y = _times_letter(x, letter[0].index, letter[1])
            r = ref.multiply(r, ref.letter_element(letter))
            assert FB.canonical_str(y) == ref.canonical_str(r), (w, letter)
            steps += 1
            # two or more contractions in one step
            cascades += tree_leaves(y.domain) <= tree_leaves(x.domain) - 2
            x = y
        assert (t % 2 == 0) or FB.is_identity(x)
    assert steps > 40000 and cascades > 1000


def test_multiply_with_a_letter_on_either_side_is_the_general_product():
    ref = f_reference.FBackend()
    rng = random.Random(61)
    pool = indexed_letters(5)
    for _ in range(500):
        x = FB.from_word(random_word(rng, pool, 40))
        letter = rng.choice(pool)
        g = FB.from_word((letter,))
        rx, rg = _ref(x), ref.letter_element(letter)
        assert FB.canonical_str(FB.multiply(x, g)) == ref.canonical_str(ref.multiply(rx, rg))
        assert FB.canonical_str(FB.multiply(g, x)) == ref.canonical_str(ref.multiply(rg, rx))
    for i in range(6):
        for e in (1, -1):
            g = FB.from_word(((Generator("x", i), e),))
            for j in range(6):
                h = FB.generator_pair(j)
                for y in (h, FB.inverse(h), FB.identity):
                    expected = ref.multiply(_ref(g), _ref(y))
                    assert FB.canonical_str(FB.multiply(g, y)) == ref.canonical_str(expected)


BLOCK = thompson._BLOCK


@pytest.mark.parametrize(
    "length", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK + 1]
)
def test_from_word_at_block_edges_equals_the_left_fold(length):
    ref = f_reference.FBackend()
    rng = random.Random(length)
    pool = indexed_letters(4)
    for _ in range(20):
        w = tuple(rng.choice(pool) for _ in range(length))
        assert FB.canonical_str(FB.from_word(w)) == ref.canonical_str(ref.from_word(w)), w


def test_from_word_work_grows_as_n_log_n(monkeypatch):
    # A letter step of the fold copies at most its trees' characters, and
    # each block's result stands in for that bound: its letters times its
    # trees' size.  So one fold over a whole word whose trees keep growing
    # counts n^2 characters, and so does a fold of the block results.
    # Blocks multiplied pairwise hand n log n characters to the folds and
    # general products together: on these words, four times the letters
    # take about 4 times the work, a fold of the letters 16 times, and a
    # fold of the block results about 8 times on the powers.
    handed = [0]
    fold, refine = thompson._fold, thompson._refine

    def counted_fold(letters):
        x = fold(letters)
        handed[0] += len(letters) * (len(x.domain) + len(x.range))
        return x

    def counted_refine(a, b):
        handed[0] += len(a) + len(b)
        return refine(a, b)

    monkeypatch.setattr(thompson, "_fold", counted_fold)
    monkeypatch.setattr(thompson, "_refine", counted_refine)
    rng = random.Random(8)
    pool = indexed_letters(3)
    for make in (
        lambda n: ((Generator("x", 0), 1),) * n,
        lambda n: ((Generator("x", 3), -1),) * n,
        lambda n: tuple(rng.choice(pool) for _ in range(n)),
    ):
        work = []
        for n in (128 * BLOCK, 512 * BLOCK):
            handed[0] = 0
            FB.from_word(make(n))
            work.append(handed[0])
        assert work[1] < 6 * work[0], work


def _codes(w):
    return [g.index if e > 0 else ~g.index for g, e in w]


def _letter_steps(w):
    x = FB.identity
    for g, e in w:
        x = _times_letter(x, g.index, e)
    return x


def test_fold_equals_the_letter_steps_and_the_reference():
    # Indices up to 6 reach past the spine of most short prefixes, and
    # w w^-1 contracts whole subtrees back down to the identity.
    ref = f_reference.FBackend()
    rng = random.Random(21)
    pool = indexed_letters(6)
    identities = 0
    for t in range(300):
        w = random_word(rng, pool, 40)
        if t % 2:
            w += invert_word(w)
        codes = _codes(w)
        x = FB.identity
        for n, (g, e) in enumerate(w, 1):
            x = _times_letter(x, g.index, e)
            if t < 100 or n == len(w):
                assert _fold(codes[:n]) == x, w[:n]
        assert _fold(_codes(free_reduce(w))) == x, w
        assert FB.canonical_str(x) == ref.canonical_str(ref.from_word(w)), w
        identities += x == FB.identity
    assert identities >= 150


@pytest.mark.parametrize("k", range(5))
def test_fold_of_a_power_and_its_inverse_is_the_identity(k):
    ref = f_reference.FBackend()
    for n in (1, 2, 3, 10, 127, 300):
        for e in (1, -1):
            power = ((Generator("x", k), e),) * n
            x = _fold(_codes(power))
            assert x == _letter_steps(power)
            if n <= 127:
                assert FB.canonical_str(x) == ref.canonical_str(ref.from_word(power))
            w = power + invert_word(power)
            assert _fold(_codes(w)) == FB.identity
            assert _fold(_codes(free_reduce(w))) == FB.identity  # the empty word


def test_from_word_folds_the_freely_reduced_word(monkeypatch):
    handed = []
    fold = thompson._fold

    def recorded(letters):
        handed.append(list(letters))
        return fold(letters)

    monkeypatch.setattr(thompson, "_fold", recorded)
    w = FB.parse("x0 x1 x1^-1 x2 x2^-1 x0^-1 x3 x4^-1 x4 x0^-1")
    assert FB.from_word(w) == _letter_steps(w)
    assert handed == [[3, ~0]]
    handed.clear()
    assert FB.from_word(FB.parse("x2^300 x2^-300")) == FB.identity
    assert handed == [[]]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_deep_trees_in_the_cli(tmp_path):
    # Both words nest carets thousands deep.
    assert run("wp", "--backend", "f", "x0^1200") == (0, "nontrivial\n", "")
    code, out, _ = run("canon", "--backend", "f", "x0^3000 x1^-2000", "--format", "json")
    assert code == 0
    path = tmp_path / "canon.json"
    path.write_text(out)
    assert run("verify", str(path)) == (0, "verified: ok\n", "")
    assert json.loads(out)["element"].count("C") > 5000


def test_from_word_rejects_a_letter_outside_the_alphabet():
    with pytest.raises(UnknownGeneratorError):
        FB.from_word(((Generator("a"), 1),))
    with pytest.raises(UnknownGeneratorError):
        FB.from_word(((Generator("x", 0), 1), (Generator("a"), -1)))


def test_word_inverse_random():
    rng = random.Random(9)
    pool = indexed_letters(3)
    for _ in range(300):
        w = random_word(rng, pool, 12)
        assert FB.is_identity(FB.from_word(w + invert_word(w)))


# -- positive monoid ---------------------------------------------------------


def test_pos_normalize_examples():
    assert PM.from_word(PM.parse("x1 x0")) == (0, 2)
    assert PM.from_word(PM.parse("x0 x1")) == (0, 1)
    assert PM.from_word(PM.parse("x2 x1 x0")) == (0, 2, 4)
    assert PM.canonical_str(PM.from_word(PM.parse("x2 x1 x0"))) == "x0 x2 x4"


def test_pos_normalize_rejects_inverses():
    with pytest.raises(NegativeExponentError):
        PM.from_word(PM.parse("x0^-1"))


def test_normal_forms_are_nondecreasing():
    rng = random.Random(55)
    for _ in range(500):
        w = tuple(
            (Generator("x", rng.randrange(5)), 1) for _ in range(rng.randrange(0, 11))
        )
        nf = PM.from_word(w)
        assert all(nf[i] <= nf[i + 1] for i in range(len(nf) - 1))
        assert len(nf) == len(w)


def test_confluence_strategies_agree():
    rng = random.Random(300)
    for _ in range(1000):
        w = tuple(
            (Generator("x", rng.randrange(5)), 1) for _ in range(rng.randrange(0, 11))
        )
        fold = pos_normalize(w)
        assert rewrite_normalize(w, "leftmost") == fold
        assert rewrite_normalize(w, "rightmost") == fold
        assert rewrite_normalize(w, "random", rng) == fold
        # Rewriting must not move the element of F.
        assert FB.from_word(w) == PM.embed_to_envelope(fold)


def test_left_insertion_equals_the_multiply_fold():
    # Words of the f-words benchmark's shape: up to 400 letters over
    # x0..x5.  PM.multiply appends on the right, so the fold reads each
    # word left to right where pos_normalize reads it right to left.
    rng = random.Random(18)
    for t in range(200):
        w = tuple((Generator("x", rng.randrange(6)), 1) for _ in range(rng.randrange(0, 401)))
        fold = PM.identity
        for gen, _ in w:
            fold = PM.multiply(fold, PM.generator_element(gen))
        nf = pos_normalize(w)
        assert nf == fold, w
        if t % 20 == 0:
            assert PM.embed_to_envelope(nf) == FB.from_word(w)


def test_monoid_homomorphism():
    rng = random.Random(41)
    for _ in range(500):
        u = tuple((Generator("x", rng.randrange(4)), 1) for _ in range(rng.randrange(0, 9)))
        v = tuple((Generator("x", rng.randrange(4)), 1) for _ in range(rng.randrange(0, 9)))
        assert PM.from_word(u + v) == PM.multiply(PM.from_word(u), PM.from_word(v))


def test_embedding_agrees_with_tree_pairs():
    # Equal normal forms iff equal in F, across all positive words of
    # length <= 5 over x0..x2.
    by_normal_form = {}
    by_tree_key = {}
    for length in range(6):
        for combo in itertools.product(range(3), repeat=length):
            w = tuple((Generator("x", i), 1) for i in combo)
            nf = PM.from_word(w)
            key = FB.canonical_key(PM.embed_to_envelope(nf))
            assert by_normal_form.setdefault(nf, key) == key
            assert by_tree_key.setdefault(key, nf) == nf


def test_identity_str_is_one():
    assert PM.canonical_str(()) == "1"
    assert PM.element_from_str("1") == ()
    assert PM.element_from_str("x0 x2") == (0, 2)
