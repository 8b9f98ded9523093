import random

import pytest

from helpers import indexed_letters, letters, random_word, sr_left_factor

from orecert.errors import BackendMismatchError, ModeMismatchError
from orecert.groups import FBackend, MbBackend, PosMonoidBackend, ZmBackend
from orecert.ore import make_instance, search_common_multiple, search_signed
from orecert.semiring import sr_add, sr_add_terms, sr_as_multiset, sr_mul, sr_scale, sr_text

ZM = ZmBackend(2)
PM = PosMonoidBackend()


def mono(backend, text, coeff=1):
    return {backend.from_text(text): coeff}


def one(backend):
    return {backend.identity: 1}


def test_one_plus_a_times_one_plus_b():
    one_a = sr_add(one(ZM), mono(ZM, "a"))
    one_b = sr_add(one(ZM), mono(ZM, "b"))
    product = sr_mul(ZM, one_a, one_b)
    assert sr_text(ZM, product) == "1*(0,0) + 1*(0,1) + 1*(1,0) + 1*(1,1)"


def test_supports_merge_through_normal_forms():
    x = sr_add(mono(PM, "x1 x0"), mono(PM, "x0 x2"))
    assert sr_text(PM, x) == "2*x0 x2"


def test_units():
    x = sr_add(mono(ZM, "a", 2), mono(ZM, "b^-1"))
    assert sr_add(x, {}) == x
    assert sr_mul(ZM, x, one(ZM)) == x
    assert sr_mul(ZM, one(ZM), x) == x


def test_left_factor_examples():
    one_b = sr_add(one(ZM), mono(ZM, "b"))
    lifted = sr_left_factor(ZM, ZM.from_text("a"), one_b)
    assert sr_text(ZM, lifted) == "1*(0,0) + 1*(0,1) + 1*(1,0) + 1*(1,1)"

    x = sr_add(mono(ZM, "a"), mono(ZM, "b"))
    doubled = sr_left_factor(ZM, ZM.identity, x)
    assert sr_text(ZM, doubled) == "2*(0,1) + 2*(1,0)"

    one_x1 = sr_add(one(PM), mono(PM, "x1"))
    lifted_pm = sr_left_factor(PM, PM.from_text("x0"), one_x1)
    assert sr_text(PM, lifted_pm) == "1*1 + 1*x0 + 1*x0 x1 + 1*x1"


def test_left_factor_support_bound():
    rng = random.Random(10)
    ab = letters("ab")
    for _ in range(100):
        x = sr_add_terms({}, [(ZM.from_word(random_word(rng, ab, 4)), 1) for _ in range(3)])
        c = ZM.from_word(random_word(rng, ab, 3))
        assert len(sr_left_factor(ZM, c, x)) <= 2 * len(x)


def test_multiset_view():
    x = sr_add(one(ZM), mono(ZM, "a", 2))
    ms = sr_as_multiset(x)
    assert [ZM.canonical_str(e) for e in ms] == ["(0,0)", "(1,0)", "(1,0)"]
    assert sr_as_multiset({}) == []


def test_multiset_view_rejects_nonpositive_coefficients():
    # the multiset view is where Z+[M] positivity is read, so it is checked there
    a = ZM.from_text("a")
    for coeffs in ({a: 0}, {a: -1}, {ZM.identity: 2, a: -1}):
        with pytest.raises(ModeMismatchError, match="only defined in Z"):
            sr_as_multiset(coeffs)


def test_mode_and_backend_guards():
    # each search refuses an instance of the other ring
    a, b = ZM.from_text("a"), ZM.from_text("b")
    with pytest.raises(ModeMismatchError, match="use search_signed"):
        search_common_multiple(make_instance(ZM, a, b, 1, 1, coeff_bound=1))
    with pytest.raises(ModeMismatchError, match="needs a coefficient bound"):
        search_signed(make_instance(ZM, a, b, 1, 1))
    # elements of two ranks meet in the backend's product
    with pytest.raises(BackendMismatchError, match="rank mismatch"):
        sr_mul(ZM, one(ZM), one(ZmBackend(3)))


def test_signed_subtraction():
    x = mono(ZM, "a", 3)
    y = mono(ZM, "a", 1)
    assert sr_text(ZM, sr_add(x, sr_scale(y, -1))) == "2*(1,0)"
    assert not sr_add(x, sr_scale(x, -1))


def _random_element(rng, backend, pool, signed=False):
    acc: dict = {}
    for _ in range(rng.randrange(0, 4)):
        coeff = rng.choice((1, 2, 3))
        if signed and rng.random() < 0.5:
            coeff = -coeff
        acc = sr_add(acc, {backend.from_word(random_word(rng, pool, 4)): coeff})
    return acc


def _laws_for_backend(backend, pool, rounds, seed, signed=False):
    rng = random.Random(seed)

    def mul(x, y):
        return sr_mul(backend, x, y)

    for _ in range(rounds):
        x = _random_element(rng, backend, pool, signed)
        y = _random_element(rng, backend, pool, signed)
        z = _random_element(rng, backend, pool, signed)
        assert sr_add(x, y) == sr_add(y, x)
        assert sr_add(sr_add(x, y), z) == sr_add(x, sr_add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, sr_add(y, z)) == sr_add(mul(x, y), mul(x, z))
        assert mul(sr_add(x, y), z) == sr_add(mul(x, z), mul(y, z))
        if not signed:
            for value in sr_add(mul(x, y), z).values():
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
            g = {backend.from_word(random_word(rng, pool, 4)): 1}
            x = _random_element(rng, backend, pool)
            y = _random_element(rng, backend, pool)
            if x != y:
                assert sr_mul(backend, g, x) != sr_mul(backend, g, y)
