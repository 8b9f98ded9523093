import random

import pytest

from fox import fox_trivial
from helpers import commutator, conjugate, free_reduce, invert_word, letters, random_word

from orecert.errors import UnknownGeneratorError
from orecert.groups import MbBackend, ZmBackend, boundary_defect

ZM = ZmBackend(2)
MB = MbBackend(2)


def test_zm_from_word_examples():
    assert ZM.from_text("a b A B") == (0, 0)
    assert ZM.from_text("a a b^-1") == (2, -1)
    assert ZM.from_text("") == (0, 0)


def test_zm_rejects_foreign_generator():
    with pytest.raises(UnknownGeneratorError):
        ZM.from_text("c")


def test_zm_canonical_str_roundtrip():
    x = ZM.from_text("a^3 b^-2")
    assert ZM.canonical_str(x) == "(3,-2)"
    assert ZM.element_from_str("(3,-2)") == x


def test_mb_single_letter_flow():
    x = MB.from_text("a")
    assert x.t == (1, 0)
    assert x.flow == ((((0, 0), 0), 1),)


def test_mb_square_path_flow():
    x = MB.from_text("a b A B")
    assert x.t == (0, 0)
    assert dict(x.flow) == {
        ((0, 0), 0): 1,
        ((1, 0), 1): 1,
        ((0, 1), 0): -1,
        ((0, 0), 1): -1,
    }
    assert not MB.is_identity(x)


def test_mb_backtracking_path_is_identity():
    assert MB.is_identity(MB.from_text("a a^-1"))


def test_mb_multiply_matches_concatenation():
    left = MB.multiply(MB.from_text("a"), MB.from_text("b"))
    assert left == MB.from_text("a b")
    assert left.t == (1, 1)
    assert dict(left.flow) == {((0, 0), 0): 1, ((1, 0), 1): 1}


def test_mb_group_laws():
    x = MB.from_text("a b a^-1 b b")
    assert MB.multiply(x, MB.identity) == x
    assert MB.is_identity(MB.multiply(x, MB.inverse(x)))
    assert MB.is_identity(MB.multiply(MB.inverse(x), x))


def test_mb_word_inverse_pairs_random():
    rng = random.Random(31)
    ab = letters("ab")
    for _ in range(200):
        w = random_word(rng, ab, 14)
        assert MB.is_identity(MB.from_word(w + invert_word(w)))


def test_metabelian_law_collapses_derived_commutators():
    # [[a,b], a^-1 [a,b] a] is freely nontrivial but trivial in MB2.
    a = (letters("a")[0],)
    b = (letters("b")[0],)
    base = commutator(a, b)
    w = commutator(base, conjugate(base, a))
    assert len(free_reduce(w)) > 0
    assert MB.is_identity(MB.from_word(w))
    assert fox_trivial(w, 2)


def test_free_group_separation():
    a = (letters("a")[0],)
    b = (letters("b")[0],)
    base = commutator(a, b)
    w = commutator(base, conjugate(base, a))
    reduced = free_reduce(w)
    assert reduced and MB.is_identity(MB.from_word(reduced))


def test_mb_agrees_with_fox_on_random_words():
    rng = random.Random(801)
    ab = letters("ab")
    for _ in range(2000):
        w = random_word(rng, ab, 20)
        assert MB.is_identity(MB.from_word(w)) == fox_trivial(w, 2)


def test_mb_rank_three():
    mb3 = MbBackend(3)
    w = mb3.parse("a b c A B C")
    x = mb3.from_word(w)
    assert x.t == (0, 0, 0)
    assert not mb3.is_identity(x)
    assert not boundary_defect(x)


def test_boundary_condition_random():
    rng = random.Random(7)
    ab = letters("ab")
    for _ in range(300):
        x = MB.from_word(random_word(rng, ab, 18))
        assert boundary_defect(x) == {}
        y = MB.from_word(random_word(rng, ab, 18))
        assert boundary_defect(MB.multiply(x, y)) == {}
        assert boundary_defect(MB.inverse(x)) == {}


def test_homomorphism_property_bulk():
    rng = random.Random(17)
    ab = letters("ab")
    for backend in (ZM, MB):
        for _ in range(3000):
            u = random_word(rng, ab, 20)
            v = random_word(rng, ab, 20)
            assert backend.from_word(u + v) == backend.multiply(
                backend.from_word(u), backend.from_word(v)
            )


def test_mb_canonical_str_roundtrip():
    x = MB.from_text("a b a^-1 b^-1 a")
    s = MB.canonical_str(x)
    assert MB.element_from_str(s) == x
    assert MB.canonical_str(MB.identity) == "t=(0,0); flow={}"
    assert MB.element_from_str("t=(0,0); flow={}") == MB.identity
