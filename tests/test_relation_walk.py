"""Cycles that a search found, walked back into solutions, and the standard
generator lists of every backend.

On a group the walk of a relation is a solution whatever the pool, so
``rel2sol`` states none; each grid relation is checked against the
oracle's expansion and against the solution it was read off."""

import hashlib
from collections import Counter

import pytest

from ore_reference import _expand
from test_ore_differential import UNSIGNED, _instance

from orecert import certificates as certs
from orecert.groups import make_backend
from orecert.ore import (
    Exhausted,
    build_relation_graph,
    extract_cycles,
    relation_to_solution,
    search_common_multiple,
)
from orecert.words import print_word

# a trivial alternating word of length 16 over a = a^2, b = b a b^-1 on
# mb:2: its walk is a solution of mass 8
MB2_MASS_8 = "a b a^-1 b a^-1 b a b a^-1 b^-1 a b^-1 a b^-1 a^-1 b^-1"


def _solved(spec) -> bool:
    return not isinstance(search_common_multiple(_instance(*spec)), Exhausted)


SOLVED = [spec for spec in UNSIGNED if _solved(spec)]
GROUP_SOLVED = [spec for spec in SOLVED if make_backend(spec[0]).is_group]


def test_grid_has_nine_solved_instances():
    assert len(SOLVED) == 9
    assert sorted({spec[0] for spec in SOLVED}) == ["mb:2", "posmon", "zm:2", "zm:3"]


@pytest.mark.parametrize("spec", SOLVED, ids=lambda s: " ".join(map(str, s)))
def test_extracted_cycles_walk_back_into_the_pool(spec):
    inst = _instance(*spec)
    backend, a, b = inst.backend, inst.a, inst.b
    sol = search_common_multiple(inst)
    graph = build_relation_graph(backend, a, b, sol)
    pool = set(inst.pool)
    for rel in extract_cycles(graph, backend, a, b):
        rebuilt = relation_to_solution(backend, a, b, rel.word, pool=inst.pool)
        assert rebuilt.verified
        assert len(rebuilt.U) == len(rel.word) // 2
        assert set(rebuilt.U) <= pool and set(rebuilt.V) <= pool


def test_grid_has_eight_solved_group_instances():
    assert len(GROUP_SOLVED) == 8
    assert sorted({spec[0] for spec in GROUP_SOLVED}) == ["mb:2", "zm:2", "zm:3"]


def _translate_within(backend, walked, sol) -> bool:
    """Whether some right translate of the walked U and V lies, as
    multisets, within the found solution's U and V."""
    inverse = backend.inverse(walked.U[0])
    for y in set(sol.U):
        t = backend.multiply(inverse, y)
        if all(Counter(backend.multiply(x, t) for x in part) <= Counter(whole)
               for part, whole in ((walked.U, sol.U), (walked.V, sol.V))):
            return True
    return False


@pytest.mark.parametrize("spec", GROUP_SOLVED, ids=lambda s: " ".join(map(str, s)))
def test_group_cycles_walk_into_pool_free_solutions(spec):
    inst = _instance(*spec)
    backend, a, b = inst.backend, inst.a, inst.b
    sol = search_common_multiple(inst)
    relations = extract_cycles(build_relation_graph(backend, a, b, sol), backend, a, b)
    assert sum(len(rel.word) for rel in relations) == 2 * len(sol.U)
    for rel in relations:
        m = len(rel.word) // 2
        walked = relation_to_solution(backend, a, b, rel.word)
        assert walked.verified and len(walked.U) == len(walked.V) == m
        # one plain multiply per term, no semiring code
        assert _expand(backend, a, 1, [(1, g) for g in walked.U]) == _expand(
            backend, b, 1, [(1, g) for g in walked.V])
        # the cycle, read off the found solution, walks into a translate of it
        assert _translate_within(backend, walked, sol)
        # the walk solves the equation whatever the pool; L = 0 is not read
        doc = certs.rel2sol_certificate(backend, a, b, print_word(rel.word), 0, None)
        assert (doc["kind"], doc["pool_size"], doc["bounds"]) == (
            "solution", None, {"n": m, "L": None, "K": None, "c": None})
        assert doc["U"] == [backend.canonical_str(g) for g in walked.U]
        assert certs.verify_certificate(doc) == (True, "ok")


def test_the_mb2_mass_8_relation_walks_into_a_verified_solution():
    mb = make_backend("mb:2")
    a, b = mb.from_text("a a"), mb.from_text("b a b^-1")
    doc = certs.rel2sol_certificate(mb, a, b, MB2_MASS_8, 12, 2)
    assert (doc["kind"], doc["bounds"], doc["pool_size"]) == (
        "solution", {"n": 8, "L": None, "K": None, "c": None}, None)
    assert len(doc["U"]) == len(doc["V"]) == 8
    assert hashlib.sha1(certs.dumps(doc).encode()).hexdigest() == (
        "9882585060084b357186d0079556c82e5a95e3be")
    assert certs.verify_certificate(doc) == (True, "ok")
    relations = certs.relations_certificate(*certs.solution_inputs(doc))
    assert relations["relations"] == [
        "a^-1 b a^-1 b a b^-1 a^-1 b^-1 a b^-1 a b^-1 a^-1 b a b"]
    assert (len(relations["vertices"]), relations["bounds"]["L"]) == (16, None)
    assert certs.verify_certificate(relations) == (True, "ok")


A = "t=(1,0); flow={((0,0),a):1}"
B = "t=(0,1); flow={((0,0),b):1}"
X = [
    ("x0", "CCLLL/CLCLL"),
    ("x1", "CLCCLLL/CLCLCLL"),
    ("x2", "CLCLCCLLL/CLCLCLCLL"),
    ("x3", "CLCLCLCCLLL/CLCLCLCLCLL"),
]
P = [(f"x{i}", f"x{i}") for i in range(4)]
GENERATORS = {
    # a named alphabet ignores max_index
    "zm:2": {k: [("a", "(1,0)"), ("b", "(0,1)")] for k in (None, 0, 3, -1)},
    "zm:3": {k: [("a", "(1,0,0)"), ("b", "(0,1,0)"), ("c", "(0,0,1)")]
             for k in (None, 0, 3, -1)},
    "mb:2": {k: [("a", A), ("b", B)] for k in (None, 0, 3, -1)},
    "f": {None: X[:2], 0: X[:1], 3: X, -1: []},
    "posmon": {None: P[:2], 0: P[:1], 3: P, -1: []},
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("max_index", [None, 0, 3, -1])
def test_generator_lists(name, max_index):
    backend = make_backend(name)
    got = [(label, backend.canonical_str(g)) for label, g in backend.generators(max_index)]
    assert got == GENERATORS[name][max_index]
