"""Letter steps (``Backend.right_multiplier``), letter products, and the
pool and relation check built from them.

A step is the map x -> x*y with y recognised once.  F turns a generator
letter into a rotation step that never calls ``multiply``; the other
backends keep the default step, which does.  Every step must give
``multiply(x, y)``, and MB_m's ``multiply``, which splices a letter's one
edge into the sorted flow on either side, and posmon's, which inserts the
left factor's letters at the front of the right factor, must give the
element of the concatenated word.  The pool and the relation check, which
take their products through steps, must match references that call
``multiply`` for every product and skip nothing.
"""

import hashlib
import io
import random

import pytest

from helpers import indexed_letters, letters, random_word
from ore_reference import reference_pool, reference_relation_length
from test_ore_differential import UNSIGNED, _instance
from test_relation_refutation import UNBOUNDED

from orecert.cli import main
from orecert.groups import make_backend
from orecert.ore import alternating_relation_length, enumerate_pool

# (backend, letters of the random elements x)
BACKENDS = [
    ("zm:2", letters("ab")),
    ("zm:3", letters("abc")),
    ("mb:2", letters("ab")),
    ("mb:3", letters("abc")),
    ("f", indexed_letters(5)),
    ("posmon", [g for g in indexed_letters(5) if g[1] == 1]),
]

# texts of factors that are not one generator letter
NOT_LETTERS = {
    "zm:2": ["a b", "a^2", "A b^-3"],
    "zm:3": ["a c", "c^2"],
    "mb:2": ["a b", "a^2", "a b A B", "b^-2 a"],
    "mb:3": ["a c", "b b", "c A"],
    "f": ["x0^2", "x0 x1", "x1^-1 x0", "x3 x0^-1 x3"],
    "posmon": ["x0 x1", "x2 x2", "x1 x0 x4"],
}


def _random_elements(backend, alphabet, count, seed):
    rng = random.Random(seed)
    return [backend.identity] + [
        backend.from_word(random_word(rng, alphabet, 12)) for _ in range(count)
    ]


def _counting_multiply(monkeypatch, backend):
    calls = []
    plain = type(backend).multiply

    def counted(self, x, y):
        calls.append(1)
        return plain(self, x, y)

    monkeypatch.setattr(type(backend), "multiply", counted)
    return calls


@pytest.mark.parametrize("name, alphabet", BACKENDS, ids=[b[0] for b in BACKENDS])
def test_letter_steps_match_multiply(name, alphabet, monkeypatch):
    backend = make_backend(name)
    xs = _random_elements(backend, alphabet, 60, seed=19)
    gens = [g for _, g in backend.generators(5)]
    if backend.is_group:
        gens += [backend.inverse(g) for g in gens]
    want = [[backend.multiply(x, y) for x in xs] for y in gens]
    calls = _counting_multiply(monkeypatch, backend)
    got = [[backend.right_multiplier(y)(x) for x in xs] for y in gens]
    assert got == want
    # an F letter step is a rotation, not a call of multiply
    assert len(calls) == (0 if name == "f" else len(gens) * len(xs))


def test_f_recognises_a_letter_spelled_another_way(monkeypatch):
    backend = make_backend("f")
    y = backend.from_text("x0^-1 x1 x0")  # x2
    xs = _random_elements(backend, indexed_letters(3), 20, seed=2)
    want = [backend.multiply(x, y) for x in xs]
    calls = _counting_multiply(monkeypatch, backend)
    assert [backend.right_multiplier(y)(x) for x in xs] == want
    assert not calls


@pytest.mark.parametrize("name, alphabet", BACKENDS, ids=[b[0] for b in BACKENDS])
def test_other_factors_fall_back_to_multiply(name, alphabet, monkeypatch):
    backend = make_backend(name)
    xs = _random_elements(backend, alphabet, 20, seed=7)
    ys = [backend.identity] + [backend.from_text(t) for t in NOT_LETTERS[name]]
    want = [[backend.multiply(x, y) for x in xs] for y in ys]
    calls = _counting_multiply(monkeypatch, backend)
    assert [[backend.right_multiplier(y)(x) for x in xs] for y in ys] == want
    assert len(calls) == len(xs) * len(ys)


@pytest.mark.parametrize("name, alphabet", BACKENDS, ids=[b[0] for b in BACKENDS])
def test_letter_products_match_concatenation(name, alphabet):
    backend = make_backend(name)
    rng = random.Random(19)
    for _ in range(60):
        w = random_word(rng, alphabet, 12)
        x = backend.from_word(w)
        for g in alphabet:
            assert backend.multiply(x, backend.from_word((g,))) == backend.from_word(w + (g,)), (w, g)


@pytest.mark.parametrize("name, alphabet", BACKENDS, ids=[b[0] for b in BACKENDS])
def test_left_letter_and_general_products_match_concatenation(name, alphabet):
    # MB_m splices a left letter's edge into y's shifted flow, and posmon
    # inserts x's letters, last first, at the front of y
    backend = make_backend(name)
    rng = random.Random(23)
    shapes = set()
    for _ in range(80):
        u, w = random_word(rng, alphabet, 12), random_word(rng, alphabet, 12)
        x, y = backend.from_word(u), backend.from_word(w)
        assert backend.multiply(x, y) == backend.from_word(u + w), (u, w)
        if name == "posmon":
            shapes.add((len(x) > len(y)) - (len(x) < len(y)))
        for g in alphabet:
            z = backend.multiply(backend.from_word((g,)), y)
            assert z == backend.from_word((g,) + w), (g, w)
            if name.startswith("mb"):
                # an edge more, the same edges, or one edge cancelled to 0
                shapes.add(len(z.flow) - len(y.flow))
    if name.startswith("mb"):
        assert shapes >= {-1, 0, 1}
        a, b = (backend.from_text(t) for t in ("a", "b"))
        assert backend.multiply(a, backend.from_text("A b")) == b
        assert backend.multiply(backend.inverse(a), backend.from_text("a b a")) == backend.from_text("b a")
    if name == "posmon":
        assert shapes == {-1, 0, 1}
    # words of up to 40 letters times words of up to 3, in both orders
    for _ in range(40):
        u, w = random_word(rng, alphabet, 40), random_word(rng, alphabet, 3)
        for left, right in ((u, w), (w, u)):
            x, y = backend.from_word(left), backend.from_word(right)
            assert backend.multiply(x, y) == backend.from_word(left + right), (left, right)


@pytest.mark.parametrize("name, digest", [
    ("mb:2", "aec47d29c99b5904acca9fbcb79d45cb4ac467e4d4b3f3fff9b0cf28b4ae246f"),
    ("posmon", "938fa81fce4d6f654772d3e4c93b72c52f0e04c8ad922cf54045f3186a14a830"),
])
def test_folner_output_bytes_are_pinned(name, digest):
    # the sha256 of the document the grower printed when it rescanned the
    # whole frontier at every step, and multiplied g k by the general product
    out = io.StringIO()
    argv = ["folner", "--backend", name, "--epsilon", "1/10", "--budget", "120", "--format", "json"]
    assert main(argv, out, io.StringIO()) == 3
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# (backend, K, largest L)
POOLS = (
    [("zm:2", None, 6), ("zm:3", None, 4), ("mb:2", None, 5), ("mb:3", None, 3)]
    + [("f", K, 4) for K in range(4)]
    + [("posmon", K, 5) for K in range(4)]
)


@pytest.mark.parametrize("name, K, top", POOLS, ids=lambda v: str(v))
def test_pool_matches_the_reference_bfs(name, K, top):
    backend = make_backend(name)
    for L in range(top + 1):
        assert enumerate_pool(backend, L, K) == reference_pool(backend, L, K), L


# the ore-roundtrip benchmark's theorem slices (backend, a, b, n, L, K)
THEOREM_SLICES = [
    ("posmon", "x0", "x1", 7, 5, 5),
    ("posmon", "x0", "x1", 6, 5, 5),
    ("posmon", "x0", "x1", 5, 5, 5),
    ("posmon", "x0", "x1", 4, 4, 4),
    ("mb:2", "a", "b", 6, 4, None),
    ("mb:2", "a", "b", 5, 4, None),
    ("mb:2", "a", "b", 5, 3, None),
    ("mb:2", "a", "b", 4, 3, None),
    ("f", "x0", "x1", 6, 3, 3),
    ("f", "x0", "x1", 5, 4, 2),
    ("f", "x0", "x1", 5, 3, 3),
    ("f", "x0", "x1", 4, 3, 2),
]


@pytest.mark.parametrize("spec", UNSIGNED + THEOREM_SLICES, ids=lambda s: " ".join(map(str, s)))
def test_relation_check_matches_the_reference(spec):
    inst = _instance(*spec)
    # the budget ``solve`` gives, and none
    for budget in (2 * inst.pool_size, UNBOUNDED):
        args = (inst.backend, inst.a, inst.b, inst.max_support, budget)
        assert alternating_relation_length(*args) == reference_relation_length(*args)


@pytest.mark.parametrize("name, L, K, products", [
    # a group skips one product for each element of B_(L-1) but the identity
    ("f", 4, 2, 686),
    ("mb:2", 4, None, 160),
    # a monoid skips nothing
    ("posmon", 4, 2, 99),
])
def test_pool_work_counts(name, L, K, products, monkeypatch):
    backend = make_backend(name)
    calls = []
    plain = type(backend).right_multiplier

    def counted(self, y):
        step = plain(self, y)
        return lambda x: calls.append(1) or step(x)

    monkeypatch.setattr(type(backend), "right_multiplier", counted)
    enumerate_pool(backend, L, K)
    assert len(calls) == products
    inner = len(enumerate_pool(backend, L - 1, K))
    letters = len(backend.generators(K)) * (2 if backend.is_group else 1)
    assert products == inner * letters - (inner - 1 if backend.is_group else 0)
