"""The meet-in-the-middle relation check and ``solve`` against brute force
and the unpruned reference searches.

``alternating_relation_length`` must give the least length of a trivial
alternating word that evaluating every such word finds, and its "none up
to 2n" may only ever come with an exhausted search: a solution of mass m
spells alternating relations of length at most 2m.
"""

import itertools

import pytest

from ore_reference import reference_common_multiple, reference_signed
from test_ore_differential import SIGNED, UNSIGNED, _certificate, _instance

from orecert.groups import make_backend
from orecert.ore import Exhausted, alternating_relation_length, solve
from orecert.words import concat, invert_word

UNBOUNDED = 10**9


def brute_force_length(backend, a_text, b_text, n):
    """Least length 2k <= 2n of an alternating word, starting with either
    letter, that ``envelope().from_word`` evaluates to the identity."""
    env = backend.envelope()
    a, b = env.parse(a_text), env.parse(b_text)
    labels = ((a, invert_word(a)), (b, invert_word(b)))
    for k in range(1, n + 1):
        for first in (0, 1):
            slots = [labels[(first + j) % 2] for j in range(2 * k)]
            for letters in itertools.product(*slots):
                if env.is_identity(env.from_word(concat(*letters))):
                    return 2 * k
    return None


def _short_elements(backend, letters):
    """Texts of the elements of word length 1 and 2 over ``letters``, one
    text per element."""
    seen, texts = {backend.identity}, []
    for length in (1, 2):
        for word in itertools.product(letters, repeat=length):
            text = " ".join(word)
            x = backend.from_text(text)
            if x not in seen:
                seen.add(x)
                texts.append(text)
    return texts


# (backend, letters of the short elements, n); the brute force evaluates
# 2 (4 + 16 + ... + 4^n) words per pair, so the slower backends stop at
# n = 4
PAIR_FAMILIES = [
    ("zm:2", ("a", "b", "A", "B"), 5),
    ("zm:3", ("a", "b", "c", "A"), 5),
    ("mb:2", ("a", "b", "A", "B"), 4),
    ("f", ("x0", "x1", "x0^-1"), 4),
    ("posmon", ("x0", "x1", "x2"), 4),
]


@pytest.mark.parametrize("name, letters, n", PAIR_FAMILIES, ids=[f[0] for f in PAIR_FAMILIES])
def test_least_length_matches_brute_force(name, letters, n):
    backend = make_backend(name)
    texts = _short_elements(backend, letters)
    lengths = set()
    for a_text, b_text in itertools.combinations_with_replacement(texts, 2):
        a, b = backend.from_text(a_text), backend.from_text(b_text)
        check = alternating_relation_length(backend, a, b, n, UNBOUNDED)
        assert check.decided
        want = brute_force_length(backend, a_text, b_text, n)
        assert check.length == want, (a_text, b_text)
        lengths.add(want)
    # every family has equal pairs (length 2) and commuting ones (length 4);
    # all but the abelian ones also have pairs with no relation up to 2n
    assert {2, 4} <= lengths and (None in lengths) == (name not in ("zm:2", "zm:3"))


@pytest.mark.parametrize("spec", UNSIGNED, ids=lambda s: " ".join(map(str, s)))
def test_check_agrees_with_the_reference_search(spec):
    inst = _instance(*spec)
    check = alternating_relation_length(inst.backend, inst.a, inst.b, inst.max_support, UNBOUNDED)
    assert check.decided
    reference = reference_common_multiple(inst)
    if check.length is None:
        assert isinstance(reference, Exhausted)
    if not isinstance(reference, Exhausted):
        assert check.length is not None and check.length <= 2 * reference.mass


def test_grid_refutes_some_instances():
    # Both directions above must be exercised, or the agreement proves little.
    outcomes = set()
    for spec in UNSIGNED:
        inst = _instance(*spec)
        check = alternating_relation_length(
            inst.backend, inst.a, inst.b, inst.max_support, UNBOUNDED)
        outcomes.add(check.length is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", UNSIGNED, ids=lambda s: " ".join(map(str, s)))
def test_solve_matches_reference_unsigned(spec):
    inst = _instance(*spec)
    assert _certificate(inst, solve(inst)) == _certificate(inst, reference_common_multiple(inst))


@pytest.mark.parametrize("spec", SIGNED, ids=lambda s: " ".join(map(str, s)))
def test_solve_matches_reference_signed(spec):
    *slice_, signs, c = spec
    inst = _instance(*slice_, coeff_bound=c, signs=signs)
    assert _certificate(inst, solve(inst)) == _certificate(inst, reference_signed(inst))


@pytest.mark.parametrize(
    "name, a, b, n, length",
    [
        ("zm:2", "a", "b", 8, 4),
        ("zm:2", "a", "a", 8, 2),
        ("zm:2", "a", "A", 8, 2),
        ("posmon", "x0 x0", "x1", 8, 12),
        ("mb:2", "a", "b", 8, None),
        ("f", "x0", "x1", 8, None),
        ("posmon", "x0", "x1", 8, None),
    ],
)
def test_closed_form_lengths(name, a, b, n, length):
    backend = make_backend(name)
    check = alternating_relation_length(
        backend, backend.from_text(a), backend.from_text(b), n, UNBOUNDED)
    assert (check.length, check.decided) == (length, True)


def test_budget_stops_the_check_before_a_level_it_cannot_afford():
    backend = make_backend("f")
    x0, x1 = backend.from_text("x0"), backend.from_text("x1")
    # level 2 costs 2 (2 + 2) = 8 multiplies and level 3 2 (4 + 4) = 16
    assert alternating_relation_length(backend, x0, x1, 3, 23).decided is False
    check = alternating_relation_length(backend, x0, x1, 3, 24)
    assert (check.length, check.decided, check.multiplies) == (None, True, 24)
    check = alternating_relation_length(backend, x0, x1, 40, 14)
    assert (check.length, check.decided, check.multiplies) == (None, False, 8)


def test_theorem_slices_exhaust_without_the_dfs():
    for spec in [("mb:2", "a", "b", 4, 3, None), ("posmon", "x0", "x1", 6, 5, 5)]:
        inst = _instance(*spec)
        outcome = solve(inst)
        assert isinstance(outcome, Exhausted) and outcome.nodes == 0
        assert outcome.pool_size == len(inst.pool)
