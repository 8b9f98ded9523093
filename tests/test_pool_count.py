"""Counted posmon and zm pools, pools enumerated on demand, and the bounds
and printing that go with them.

``PosMonoidBackend.ball_size`` counts forest diagrams instead of building
the ball, so it is checked against ``enumerate_pool`` and against closed
forms of the sphere sizes; ``ZmBackend.ball_size`` and ``in_ball`` are
checked against the enumerated ball.  An instance builds its pool only when something
reads the elements, and never twice.
"""

import io
import itertools
import json
import random

import pytest
from test_relation_walk import MB2_MASS_8

from orecert import certificates as certs
from orecert import ore
from orecert.cli import main
from orecert.errors import VerificationError
from orecert.groups import make_backend
from orecert.groups.abelian import ZmBackend
from orecert.groups.base import Backend
from orecert.groups.thompson import posmon_ball_size, posmon_in_ball
from orecert.ore import Exhausted, enumerate_pool, make_instance, solve
from orecert.words import Alphabet, parse_word

PM = make_backend("posmon")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _verify_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run("verify", str(path))


def _sphere(k, K):
    return posmon_ball_size(k, K) - (posmon_ball_size(k - 1, K) if k else 0)


@pytest.fixture
def count_pools(monkeypatch):
    """Counts the pools ``ore.enumerate_pool`` builds."""
    calls = []

    def counted(backend, length, max_index=None):
        calls.append((backend.name, length, max_index))
        return enumerate_pool(backend, length, max_index)

    monkeypatch.setattr(ore, "enumerate_pool", counted)
    return calls


def refuse_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was enumerated")

    monkeypatch.setattr(ore, "enumerate_pool", refuse)


@pytest.fixture
def no_pools(monkeypatch):
    refuse_pools(monkeypatch)


# -- the count ----------------------------------------------------------------


@pytest.mark.parametrize("K", [None, 0, 1, 2, 3, 4, 5, 6])
def test_count_equals_enumerated_ball(K):
    for L in range(9):
        assert posmon_ball_size(L, K) == len(enumerate_pool(PM, L, K)) == PM.ball_size(L, K)


def test_count_with_many_more_generators_than_letters():
    # K > L takes the factors G_d with d > L as one power
    for L, K in [(1, 40), (2, 20), (3, 9)]:
        assert posmon_ball_size(L, K) == len(enumerate_pool(PM, L, K))
    assert posmon_ball_size(1, 10**9) == 10**9 + 2


def test_sphere_sizes_match_closed_forms():
    fib = [0, 1]
    while len(fib) < 44:
        fib.append(fib[-1] + fib[-2])
    for k in range(21):
        assert _sphere(k, 1) == _sphere(k, None) == 2**k
        assert _sphere(k, 2) == fib[2 * k + 2]
        assert _sphere(k, 3) == (3 ** (k + 1) - 1) // 2
    assert [_sphere(k, 2) for k in range(5)] == [1, 3, 8, 21, 55]
    assert [_sphere(k, 0) for k in range(5)] == [1, 1, 1, 1, 1]


def test_named_and_group_backends_have_no_count():
    for name in ("mb:2", "f"):
        assert make_backend(name).ball_size(2, 2) is None


def test_enumeration_must_match_the_count(monkeypatch):
    monkeypatch.setattr(type(PM), "ball_size", lambda self, L, K=None: posmon_ball_size(L, K) + 1)
    with pytest.raises(VerificationError, match="has 7 elements, its count says 8"):
        enumerate_pool(PM, 2, 1)


# -- pools only on demand -------------------------------------------------------


def test_instance_builds_no_pool(no_pools):
    for name in ("zm:2", "mb:2", "f", "posmon"):
        backend = make_backend(name)
        x = backend.generators()[0][1]
        make_instance(backend, x, x, 3, 4, 3)


def test_decided_posmon_search_and_verify_build_no_pool(no_pools, tmp_path):
    x0, x1 = PM.from_text("x0"), PM.from_text("x1")
    outcome = solve(make_instance(PM, x0, x1, 10, 7, 7))
    assert isinstance(outcome, Exhausted)
    assert (outcome.pool_size, outcome.nodes) == (64581, 0)
    code, out, _ = run("ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
                       "--max-support", "12", "--pool-len", "8", "--pool-idx", "8",
                       "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert (doc["kind"], doc["pool_size"]) == ("exhausted", 400062)
    assert _verify_doc(tmp_path, doc)[:2] == (0, "verified: ok\n")


@pytest.mark.parametrize("delta", [1, -1])
def test_posmon_exhaustion_with_an_edited_pool_size_fails(tmp_path, delta):
    code, out, _ = run("ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
                       "--max-support", "4", "--pool-len", "4", "--pool-idx", "3",
                       "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["pool_size"] == posmon_ball_size(4, 3) == 179
    doc["pool_size"] += delta
    assert _verify_doc(tmp_path, doc)[:2] == (
        1, "verification failed: field 'pool_size' differs from the re-derived certificate\n")


def test_group_rel2sol_builds_no_pool(count_pools, monkeypatch):
    # a group walk is a solution whatever the pool: neither rel2sol nor
    # verify enumerates, counts or asks membership of one, and none is stated
    for cls in (Backend, ZmBackend):
        for name in ("ball_size", "in_ball"):
            monkeypatch.setattr(cls, name, None)
    f = make_backend("f")
    x0 = f.from_text("x0")
    # with a = b, a b^-1 is a relation
    doc = certs.rel2sol_certificate(f, x0, x0, "a b^-1", 1, 1)
    assert (doc["kind"], doc["pool_size"], doc["bounds"]) == (
        "solution", None, {"n": 1, "L": None, "K": None, "c": None})
    assert certs.verify_certificate(doc) == (True, "ok")
    mb = make_backend("mb:2")
    doc = certs.rel2sol_certificate(mb, mb.from_text("a a"), mb.from_text("b a b^-1"),
                                    MB2_MASS_8, 12, 2)
    assert (doc["kind"], doc["pool_size"], doc["bounds"]["n"]) == ("solution", None, 8)
    assert certs.verify_certificate(doc) == (True, "ok")
    zm = make_backend("zm:2")
    doc = certs.rel2sol_certificate(zm, zm.from_text("a"), zm.from_text("b"),
                                    "a b a^-1 b^-1", 2, None)
    assert doc == {
        "backend": "zm:2", "a": "(1,0)", "b": "(0,1)",
        "bounds": {"n": 2, "L": None, "K": None, "c": None},
        "mode": "unsigned", "signs": None, "pool_size": None, "kind": "solution",
        "U": ["(-1,-1)", "(-1,0)"], "V": ["(-1,-1)", "(0,-1)"],
        "lhs": "1*(-1,-1) + 1*(-1,0) + 1*(0,-1) + 1*(0,0)",
        "rhs": "1*(-1,-1) + 1*(-1,0) + 1*(0,-1) + 1*(0,0)", "verified": True,
    }
    assert certs.verify_certificate(doc) == (True, "ok")
    assert count_pools == []


def test_monoid_rel2sol_enumerates_its_pool_once(count_pools):
    x0 = PM.from_text("x0")
    doc = certs.rel2sol_certificate(PM, x0, x0, "a b^-1", 2, 1)
    assert (doc["kind"], doc["pool_size"], doc["bounds"]["n"]) == ("solution", 7, 1)
    assert count_pools == [("posmon", 2, 1)]


def test_search_and_verify_enumerate_a_pool_once_each(count_pools, tmp_path):
    for argv in [
        ("--backend", "mb:2", "--a", "a", "--b", "a^2", "--max-support", "2", "--pool-len", "1"),
        ("--backend", "f", "--a", "x0", "--b", "x0", "--max-support", "1", "--pool-len", "1"),
    ]:
        count_pools.clear()
        code, out, _ = run("ore-search", *argv, "--format", "json")
        assert code == 0 and len(count_pools) == 1
        assert _verify_doc(tmp_path, json.loads(out))[:2] == (0, "verified: ok\n")
        assert len(count_pools) == 2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_zm_count_and_membership_match_the_enumerated_ball(m):
    zm = make_backend(f"zm:{m}")
    for L in range(7):
        pool = enumerate_pool(zm, L)
        assert zm.ball_size(L) == zm.ball_size(L, 3) == len(pool)
        inside = set(pool)
        # every vector of the box one step wider than the ball
        for x in itertools.product(range(-L - 1, L + 2), repeat=m):
            assert zm.in_ball(x, L) == zm.in_ball(x, L, 3) == (x in inside), (x, L)


def test_zm_verify_builds_no_pool(monkeypatch, tmp_path):
    docs = []
    code, out, _ = run("ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
                       "--max-support", "2", "--pool-len", "2", "--format", "json")
    assert code == 0
    docs.append(json.loads(out))
    path = tmp_path / "sol.json"
    path.write_text(out)
    code, out, _ = run("extract", "--format", "json", str(path))
    assert code == 0
    docs.append(json.loads(out))
    refuse_pools(monkeypatch)
    for doc in docs:
        assert _verify_doc(tmp_path, doc)[:2] == (0, "verified: ok\n")
    docs[0]["bounds"]["L"] = 0
    assert _verify_doc(tmp_path, docs[0])[:2] == (
        1, "verification failed: U or V has an element outside the pool\n")


# -- pool membership decided per element ----------------------------------------


@pytest.mark.parametrize("K", [None, 0, 1, 2, 3, 4])
def test_forest_criterion_is_pool_membership(K):
    for L in range(7):
        pool = set(enumerate_pool(PM, L, K))
        # a word of L letters over x0 .. x_K has a normal form with indices
        # below K + L, so these normal forms include the whole ball
        top = (1 if K is None else K) + L
        for length in range(L + 2):
            for nf in itertools.combinations_with_replacement(range(top + 1), length):
                assert posmon_in_ball(nf, L, K) == (nf in pool), (nf, L, K)
                assert PM.in_ball(nf, L, K) == (nf in pool)


def test_group_and_named_backends_decide_no_membership():
    for name in ("mb:2", "f"):
        backend = make_backend(name)
        assert backend.in_ball(backend.identity, 2, 2) is None


def test_posmon_solution_and_signed_verify_build_no_pool(monkeypatch, tmp_path):
    code, out, _ = run("ore-search", "--backend", "posmon", "--a", "x0 x0", "--b", "x1",
                       "--max-support", "6", "--pool-len", "6", "--pool-idx", "6",
                       "--format", "json")
    assert code == 0
    solution = json.loads(out)
    assert solution["kind"] == "solution" and len(solution["U"]) == 6
    # a = x1 x0 = x0 x2 = b has a word over x0, x1
    code, out, _ = run("ore-signed", "--backend", "posmon", "--a", "x1 x0", "--b", "x0 x2",
                       "--max-support", "2", "--pool-len", "2", "--pool-idx", "1",
                       "--coeff-bound", "1", "--format", "json")
    assert code == 0
    signed = json.loads(out)
    assert signed["kind"] == "signed"
    refuse_pools(monkeypatch)
    for doc in (solution, signed):
        assert _verify_doc(tmp_path, doc)[:2] == (0, "verified: ok\n")
    # x0 x0 x5 needs three letters
    solution["bounds"]["L"] = 2
    assert _verify_doc(tmp_path, solution)[:2] == (
        1, "verification failed: U or V has an element outside the pool\n")
    # x1 x3 = x2 x1 has two letters but no word over x0, x1
    signed["u"] = signed["v"] = [[1, "x1 x3"]]
    assert _verify_doc(tmp_path, signed)[:2] == (
        1, "verification failed: u has a support element outside the pool\n")


# -- negative K on the indexed backends -----------------------------------------


@pytest.mark.parametrize("argv", [
    ("ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1", "--pool-idx", "-1"),
    ("ore-signed", "--backend", "f", "--a", "x0", "--b", "x1", "--pool-idx", "-2"),
    ("rel2sol", "--backend", "posmon", "--a", "x0", "--b", "x0", "--pool-idx", "-1", "a b^-1"),
    ("pool", "--backend", "f", "--pool-idx", "-1"),
])
def test_negative_max_index_is_a_usage_error_on_indexed_backends(argv, no_pools):
    assert run(*argv) == (2, "", "error: at least one generator is needed\n")


def test_verify_rejects_a_negative_max_index(tmp_path):
    code, out, _ = run("ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
                       "--max-support", "2", "--pool-len", "2", "--pool-idx", "0",
                       "--format", "json")
    assert code == 3
    doc = json.loads(out)
    doc["bounds"]["K"] = -1
    assert _verify_doc(tmp_path, doc)[:2] == (
        1, "verification failed: malformed certificate: at least one generator is needed\n")


# -- trace words printed once ---------------------------------------------------


def _balanced_word(n, seed):
    """A balanced alternating word of length n over x0..x3, as in CI."""
    r = random.Random(seed)
    z = sorted(r.sample(range(0, n, 2), n // 4))
    signs = [1, -1] * (n // 8)
    r.shuffle(signs)
    e = dict(zip(z, signs))
    return " ".join(f"x0^{e[k]}" if k in e else f"x{2 + k % 2 * r.choice((-1, 1))}^{r.choice((1, -1))}"
                    for k in range(n))


@pytest.mark.parametrize("text", ["x2 x1 x2^-1 x1^-1", "x0 x1 x0^-1 x1^-1", _balanced_word(80, 80)])
def test_trace_prints_each_word_once(text, monkeypatch):
    word = parse_word(text, Alphabet.indexed())
    doc = certs.trace_certificate(word)
    printed = []
    real = certs.print_word

    def counting(w):
        printed.append(w)
        return real(w)

    monkeypatch.setattr(certs, "print_word", counting)
    assert certs.dumps(certs.trace_certificate(word)) == certs.dumps(doc)
    rules = [s["rule"] for s in doc["steps"]]
    # the word, each new word, and each conjugator
    assert len(printed) == 1 + rules.count("shift") + 2 * rules.count("conjugate_x0")
    trace = certs.alt_trace(word)
    assert doc["word"] == real(trace.word)
    for step, s in zip(doc["steps"], trace.steps):
        assert (step["input"], step["output"]) == (real(s.input_word), real(s.output_word))
