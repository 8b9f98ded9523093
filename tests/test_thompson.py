import io
import itertools
import json
import random

import pytest

import f_reference
from helpers import indexed_letters, random_word

from orecert.cli import main
from orecert.errors import NegativeExponentError
from orecert.groups import (
    FBackend,
    PosMonoidBackend,
    pos_normalize,
    tree_from_str,
    tree_leaves,
)
from orecert.words import Generator, invert_word

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
            assert FB.equals(lhs, rhs), (i, j)


def test_relation_as_word_is_trivial():
    w = FB.parse("x1 x0 x2^-1 x0^-1")
    assert FB.is_identity(FB.from_word(w))


def test_alternating_commutator_is_nontrivial():
    assert not FB.is_identity(fw("x0 x1 x0^-1 x1^-1"))


def test_conjugation_raises_indices():
    for i in range(3):
        for j in range(i + 1, 5):
            w = f"x{i}^-1 x{j} x{i}"
            assert FB.equals(fw(w), FB.generator_pair(j + 1)), (i, j)


def test_homomorphism_random_words():
    rng = random.Random(271)
    pool = indexed_letters(3)
    for _ in range(1000):
        u = random_word(rng, pool, 20)
        v = random_word(rng, pool, 20)
        assert FB.equals(
            FB.from_word(u + v), FB.multiply(FB.from_word(u), FB.from_word(v))
        )


def test_agrees_with_nested_tuple_reference():
    ref = f_reference.FBackend()
    rng = random.Random(2024)
    pool = indexed_letters(3)
    for _ in range(2000):
        w = random_word(rng, pool, 60)
        text = FB.canonical_str(FB.from_word(w))
        assert text == ref.canonical_str(ref.from_word(w)), w
        assert FB.canonical_str(FB.element_from_str(text)) == text


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
        assert pos_normalize(w, "leftmost") == fold
        assert pos_normalize(w, "rightmost") == fold
        assert pos_normalize(w, "random", rng) == fold
        # Rewriting must not move the element of F.
        assert FB.equals(FB.from_word(w), PM.embed_to_envelope(fold))


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
