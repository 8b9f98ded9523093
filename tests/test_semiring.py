import random

import pytest

from helpers import indexed_letters, letters, random_word, sr_left_factor

from orecert.errors import ModeMismatchError
from orecert.groups import FBackend, MbBackend, PosMonoidBackend, ZmBackend
from orecert.semiring import (
    SemiringElement,
    sr_add,
    sr_as_multiset,
    sr_equals,
    sr_mul,
    sr_scale,
    sr_text,
)

ZM = ZmBackend(2)
PM = PosMonoidBackend()


def mono(backend, text, coeff=1):
    return SemiringElement.monomial(backend, backend.from_text(text), coeff)


def test_one_plus_a_times_one_plus_b():
    one_a = sr_add(SemiringElement.one(ZM), mono(ZM, "a"))
    one_b = sr_add(SemiringElement.one(ZM), mono(ZM, "b"))
    product = sr_mul(one_a, one_b)
    assert sr_text(product) == "1*(0,0) + 1*(0,1) + 1*(1,0) + 1*(1,1)"


def test_supports_merge_through_normal_forms():
    x = sr_add(mono(PM, "x1 x0"), mono(PM, "x0 x2"))
    assert sr_text(x) == "2*x0 x2"


def test_units():
    x = sr_add(mono(ZM, "a", 2), mono(ZM, "b^-1"))
    assert sr_equals(sr_add(x, SemiringElement.zero(ZM)), x)
    assert sr_equals(sr_mul(x, SemiringElement.one(ZM)), x)
    assert sr_equals(sr_mul(SemiringElement.one(ZM), x), x)


def test_left_factor_examples():
    one_b = sr_add(SemiringElement.one(ZM), mono(ZM, "b"))
    lifted = sr_left_factor(ZM.from_text("a"), one_b)
    assert sr_text(lifted) == "1*(0,0) + 1*(0,1) + 1*(1,0) + 1*(1,1)"

    x = sr_add(mono(ZM, "a"), mono(ZM, "b"))
    doubled = sr_left_factor(ZM.identity, x)
    assert sr_text(doubled) == "2*(0,1) + 2*(1,0)"

    one_x1 = sr_add(SemiringElement.one(PM), mono(PM, "x1"))
    lifted_pm = sr_left_factor(PM.from_text("x0"), one_x1)
    assert sr_text(lifted_pm) == "1*1 + 1*x0 + 1*x0 x1 + 1*x1"


def test_left_factor_support_bound():
    rng = random.Random(10)
    ab = letters("ab")
    for _ in range(100):
        x = SemiringElement.from_terms(
            ZM, [(1, ZM.from_word(random_word(rng, ab, 4))) for _ in range(3)]
        )
        c = ZM.from_word(random_word(rng, ab, 3))
        assert len(sr_left_factor(c, x).coeffs) <= 2 * len(x.coeffs)


def test_multiset_view():
    x = sr_add(SemiringElement.one(ZM), mono(ZM, "a", 2))
    ms = sr_as_multiset(x)
    assert [ZM.canonical_str(e) for e in ms] == ["(0,0)", "(1,0)", "(1,0)"]
    assert sr_as_multiset(SemiringElement.zero(ZM)) == []


def test_multiset_view_rejects_nonpositive_coefficients():
    # the multiset view is where Z+[M] positivity is read, so it is checked there
    a = ZM.from_text("a")
    for coeffs in ({a: 0}, {a: -1}, {ZM.identity: 2, a: -1}):
        with pytest.raises(ModeMismatchError, match="only defined in Z"):
            sr_as_multiset(SemiringElement(ZM, coeffs))


def test_mode_and_backend_guards():
    from orecert.errors import BackendMismatchError

    with pytest.raises(BackendMismatchError):
        sr_add(SemiringElement.one(ZM), SemiringElement.one(PM))


def test_signed_subtraction():
    x = mono(ZM, "a", 3)
    y = mono(ZM, "a", 1)
    assert sr_text(sr_add(x, sr_scale(y, -1))) == "2*(1,0)"
    assert not sr_add(x, sr_scale(x, -1)).coeffs


def _random_element(rng, backend, pool, signed=False):
    acc = SemiringElement.zero(backend)
    for _ in range(rng.randrange(0, 4)):
        coeff = rng.choice((1, 2, 3))
        if signed and rng.random() < 0.5:
            coeff = -coeff
        acc = sr_add(
            acc,
            SemiringElement.monomial(
                backend, backend.from_word(random_word(rng, pool, 4)), coeff
            ),
        )
    return acc


def _laws_for_backend(backend, pool, rounds, seed, signed=False):
    rng = random.Random(seed)
    for _ in range(rounds):
        x = _random_element(rng, backend, pool, signed)
        y = _random_element(rng, backend, pool, signed)
        z = _random_element(rng, backend, pool, signed)
        assert sr_equals(sr_add(x, y), sr_add(y, x))
        assert sr_equals(sr_add(sr_add(x, y), z), sr_add(x, sr_add(y, z)))
        assert sr_equals(sr_mul(sr_mul(x, y), z), sr_mul(x, sr_mul(y, z)))
        assert sr_equals(sr_mul(x, sr_add(y, z)), sr_add(sr_mul(x, y), sr_mul(x, z)))
        assert sr_equals(sr_mul(sr_add(x, y), z), sr_add(sr_mul(x, z), sr_mul(y, z)))
        if not signed:
            for value in sr_add(sr_mul(x, y), z).coeffs.values():
                assert value >= 1


def test_semiring_laws_all_backends():
    positive = [(g, 1) for g, _ in indexed_letters(2)[::2]]
    cases = [
        (ZmBackend(2), letters("ab"), 250, 1),
        (MbBackend(2), letters("ab"), 250, 2),
        (PosMonoidBackend(), positive, 250, 3),
        (FBackend(), indexed_letters(2), 250, 4),
    ]
    for backend, pool, rounds, seed in cases:
        _laws_for_backend(backend, pool, rounds, seed)
        _laws_for_backend(backend, pool, rounds, seed, signed=True)


def test_cancellativity_probe():
    rng = random.Random(606)
    for backend, pool in ((ZM, letters("ab")), (PM, [(g, 1) for g, _ in indexed_letters(2)[::2]])):
        for _ in range(200):
            g = SemiringElement.monomial(backend, backend.from_word(random_word(rng, pool, 4)))
            x = _random_element(rng, backend, pool)
            y = _random_element(rng, backend, pool)
            if not sr_equals(x, y):
                assert not sr_equals(sr_mul(g, x), sr_mul(g, y))
