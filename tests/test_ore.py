import random
from itertools import combinations_with_replacement

import pytest

from orecert.errors import NotARelationError, NotEmbeddableError
from orecert.groups import FBackend, MbBackend, PosMonoidBackend, ZmBackend
from orecert.ore import (
    Exhausted,
    SignedSolution,
    Solution,
    build_relation_graph,
    enumerate_pool,
    extract_cycles,
    make_instance,
    relation_to_solution,
    search_common_multiple,
    search_signed,
    verify_solution,
)
from orecert.semiring import SemiringElement, sr_equals, sr_left_factor
from orecert.words import parse_word, print_word
from orecert.certificates import LABEL_ALPHABET

ZM = ZmBackend(2)
PM = PosMonoidBackend()
MB = MbBackend(2)


def rel(text):
    return parse_word(text, LABEL_ALPHABET)


def strs(backend, elems):
    return [backend.canonical_str(x) for x in elems]


# -- pool enumeration ---------------------------------------------------------


def test_zm_ball_radius_one():
    pool = enumerate_pool(ZM, 1)
    assert strs(ZM, pool) == ["(-1,0)", "(0,-1)", "(0,0)", "(0,1)", "(1,0)"]


def test_posmon_pool_collapses_relations():
    pool = enumerate_pool(PM, 2, 1)
    assert strs(PM, pool) == ["1", "x0", "x0 x0", "x0 x1", "x0 x2", "x1", "x1 x1"]


def test_radius_zero_pool_is_identity():
    for backend in (ZM, PM, MB):
        pool = enumerate_pool(backend, 0, 1)
        assert len(pool) == 1 and backend.is_identity(pool[0])


def test_mb_ball_radius_two():
    assert len(enumerate_pool(MB, 2)) == 17


@pytest.mark.parametrize("backend", [ZM, MB, FBackend(), PM], ids=lambda b: b.name)
def test_elements_are_their_own_keys(backend):
    pool = enumerate_pool(backend, 2, 1)
    names = strs(backend, pool)
    # the same elements, as new objects read back from their text
    again = [backend.element_from_str(s) for s in names]
    for x, x2 in zip(pool, again):
        assert backend.canonical_key(x) == x
        assert x2 == x and hash(x2) == hash(x)
    for (x, sx), (y, sy) in combinations_with_replacement(zip(pool, names), 2):
        assert (x == y) == (sx == sy)
    assert sorted(again) == pool


# -- unsigned search ----------------------------------------------------------


def test_zm_commutativity_solution():
    inst = make_instance(ZM, ZM.from_text("a"), ZM.from_text("b"), 2, 1)
    sol = search_common_multiple(inst)
    assert isinstance(sol, Solution)
    assert strs(ZM, sol.U) == ["(0,0)", "(0,1)"]
    assert strs(ZM, sol.V) == ["(0,0)", "(1,0)"]
    assert sol.verified


def test_equal_factors_mass_one():
    a = PM.from_text("x0")
    inst = make_instance(PM, a, a, 1, 1, 1)
    sol = search_common_multiple(inst)
    assert isinstance(sol, Solution)
    assert sol.mass == 1
    assert strs(PM, sol.U) == strs(PM, sol.V) == ["1"]


def test_posmon_slice_exhausted():
    inst = make_instance(PM, PM.from_text("x0"), PM.from_text("x1"), 2, 2, 2)
    outcome = search_common_multiple(inst)
    assert isinstance(outcome, Exhausted)
    assert outcome.bounds == {"n": 2, "L": 2, "K": 2, "c": None}


def test_mb_slice_exhausted():
    inst = make_instance(MB, MB.from_text("a"), MB.from_text("b"), 2, 2)
    assert isinstance(search_common_multiple(inst), Exhausted)


def test_jobs_match_sequential():
    inst = make_instance(ZM, ZM.from_text("a"), ZM.from_text("b"), 2, 1)
    seq = search_common_multiple(inst, jobs=1)
    par = search_common_multiple(inst, jobs=4)
    assert strs(ZM, seq.U) == strs(ZM, par.U)
    assert strs(ZM, seq.V) == strs(ZM, par.V)
    inst2 = make_instance(PM, PM.from_text("x0"), PM.from_text("x1"), 2, 2, 2)
    assert isinstance(search_common_multiple(inst2, jobs=4), Exhausted)


def _brute_force(backend, a, b, pool, n):
    for m in range(1, n + 1):
        for U in combinations_with_replacement(pool, m):
            lhs = sr_left_factor(a, SemiringElement.from_elements(backend, U))
            for V in combinations_with_replacement(pool, m):
                rhs = sr_left_factor(b, SemiringElement.from_elements(backend, V))
                if sr_equals(lhs, rhs):
                    return U, V
    return None


def test_backtracking_agrees_with_brute_force():
    zm_pool = enumerate_pool(ZM, 1)
    pm_pool = enumerate_pool(PM, 1, 1)
    cases = [
        (ZM, ZM.from_text("a"), ZM.from_text("b"), zm_pool, 2),
        (ZM, ZM.from_text("a"), ZM.from_text("a"), zm_pool, 2),
        (ZM, ZM.from_text("a b"), ZM.from_text("b"), zm_pool, 3),
        (ZM, ZM.from_text("a^2"), ZM.from_text("b"), zm_pool, 3),
        (PM, PM.from_text("x0"), PM.from_text("x1"), pm_pool, 3),
        (PM, PM.from_text("x0"), PM.from_text("x0"), pm_pool, 3),
        (PM, PM.from_text("x0 x0"), PM.from_text("x0"), pm_pool, 3),
    ]
    for backend, a, b, pool, n in cases:
        inst = make_instance(backend, a, b, n, 1, 1)
        assert list(inst.pool) == list(pool)
        fast = search_common_multiple(inst)
        brute = _brute_force(backend, a, b, pool, n)
        assert isinstance(fast, Solution) == (brute is not None)


# -- relation graphs ----------------------------------------------------------


def _zm_solution():
    inst = make_instance(ZM, ZM.from_text("a"), ZM.from_text("b"), 2, 1)
    return inst, search_common_multiple(inst)


def test_graph_structure_for_commutativity_solution():
    inst, sol = _zm_solution()
    graph = build_relation_graph(ZM, inst.a, inst.b, sol)
    name = ZM.canonical_str
    verts = sorted(name(x) for x, _ in graph.vertices)
    assert verts == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    a_pairs = {(name(e.source[0]), name(e.target[0])) for e in graph.a_edges}
    b_pairs = {(name(e.source[0]), name(e.target[0])) for e in graph.b_edges}
    assert a_pairs == {("(1,0)", "(0,0)"), ("(1,1)", "(0,1)")}
    assert b_pairs == {("(0,1)", "(0,0)"), ("(1,1)", "(1,0)")}


def test_incidence_invariant():
    inst, sol = _zm_solution()
    graph = build_relation_graph(ZM, inst.a, inst.b, sol)
    for edges in (graph.a_edges, graph.b_edges):
        seen = sorted([e.source for e in edges] + [e.target for e in edges])
        assert seen == sorted(graph.vertices)


def test_parallel_edges_for_equal_factors():
    a = ZM.from_text("a")
    sol = verify_solution(ZM, a, a, [ZM.identity], [ZM.identity])
    graph = build_relation_graph(ZM, a, a, sol)
    assert len(graph.vertices) == 2
    assert len(graph.a_edges) == len(graph.b_edges) == 1
    relations = extract_cycles(graph, ZM, a, a)
    # 2-cycle read from the minimal vertex (the identity, an edge target),
    # so the a-step runs against the edge: a^-1 b, equivalent to a b^-1.
    assert [print_word(r.word) for r in relations] == ["a^-1 b"]
    assert relations[0].verified


def test_commutator_cycle():
    inst, sol = _zm_solution()
    graph = build_relation_graph(ZM, inst.a, inst.b, sol)
    relations = extract_cycles(graph, ZM, inst.a, inst.b)
    assert [print_word(r.word) for r in relations] == ["a^-1 b^-1 a b"]
    assert all(r.verified for r in relations)


def test_doubled_solution_gives_two_equal_cycles():
    inst, sol = _zm_solution()
    doubled = verify_solution(ZM, inst.a, inst.b, list(sol.U) * 2, list(sol.V) * 2)
    graph = build_relation_graph(ZM, inst.a, inst.b, doubled)
    relations = extract_cycles(graph, ZM, inst.a, inst.b)
    assert len(relations) == 2
    assert print_word(relations[0].word) == print_word(relations[1].word)


def test_mb_solution_within_cyclic_subgroup():
    a = MB.from_text("a")
    a2 = MB.from_text("a a")
    U = [MB.identity, a2]
    V = [MB.identity, a]
    sol = verify_solution(MB, a, a2, U, V)
    graph = build_relation_graph(MB, a, a2, sol)
    relations = extract_cycles(graph, MB, a, a2)
    assert all(r.verified for r in relations)


# -- relation_to_solution -----------------------------------------------------


def test_relation_to_solution_roundtrip():
    inst, sol = _zm_solution()
    graph = build_relation_graph(ZM, inst.a, inst.b, sol)
    relations = extract_cycles(graph, ZM, inst.a, inst.b)
    rebuilt = relation_to_solution(ZM, inst.a, inst.b, relations[0].word)
    assert strs(ZM, rebuilt.U) == strs(ZM, sol.U)
    assert strs(ZM, rebuilt.V) == strs(ZM, sol.V)


def test_relation_to_solution_translated_variant():
    sol = relation_to_solution(ZM, ZM.from_text("a"), ZM.from_text("b"), rel("a b a^-1 b^-1"))
    assert strs(ZM, sol.U) == ["(0,0)", "(0,1)"]
    assert strs(ZM, sol.V) == ["(0,0)", "(1,0)"]


def test_relation_to_solution_equal_factors():
    a = ZM.from_text("a")
    sol = relation_to_solution(ZM, a, a, rel("a b^-1"))
    assert strs(ZM, sol.U) == strs(ZM, sol.V) == ["(0,0)"]


def test_relation_to_solution_rejects_non_relations():
    with pytest.raises(NotARelationError):
        relation_to_solution(ZM, ZM.from_text("a"), ZM.from_text("b"), rel("a b a^-1 b"))
    with pytest.raises(NotARelationError):
        relation_to_solution(ZM, ZM.from_text("a"), ZM.from_text("b"), rel("a a^-1"))
    with pytest.raises(NotARelationError):
        relation_to_solution(ZM, ZM.from_text("a"), ZM.from_text("b"), ())


def test_relation_to_solution_on_monoid():
    a = PM.from_text("x0")
    pool = enumerate_pool(PM, 2, 1)
    sol = relation_to_solution(PM, a, a, rel("a b^-1"), pool=pool)
    assert strs(PM, sol.U) == strs(PM, sol.V) == ["1"]


def test_relation_to_solution_monoid_not_embeddable():
    # The walk visits x0^-1, which no translation by the identity-only pool
    # can push back into the monoid.
    a = PM.from_text("x0")
    pool = enumerate_pool(PM, 0, 0)
    with pytest.raises(NotEmbeddableError):
        relation_to_solution(PM, a, a, rel("a b^-1"), pool=pool)


def test_mb_relation_roundtrip():
    a = MB.from_text("a")
    a2 = MB.from_text("a a")
    sol = verify_solution(MB, a, a2, [MB.identity, a2], [MB.identity, a])
    graph = build_relation_graph(MB, a, a2, sol)
    relations = extract_cycles(graph, MB, a, a2)
    for relation in relations:
        rebuilt = relation_to_solution(MB, a, a2, relation.word)
        assert rebuilt.verified


# -- signed search ------------------------------------------------------------


def test_signed_commutative_solution():
    inst = make_instance(
        ZM, ZM.from_text("a"), ZM.from_text("b"), 2, 1,
        coeff_bound=1, signs=(-1, -1),
    )
    out = search_signed(inst)
    assert isinstance(out, SignedSolution)
    assert [(c, ZM.canonical_str(g)) for c, g in out.u] == [(1, "(0,0)"), (-1, "(0,1)")]
    assert [(c, ZM.canonical_str(g)) for c, g in out.v] == [(1, "(0,0)"), (-1, "(1,0)")]
    assert out.verified


def test_signed_equal_factors():
    a = ZM.from_text("a")
    inst = make_instance(ZM, a, a, 1, 1, coeff_bound=1, signs=(1, 1))
    out = search_signed(inst)
    assert isinstance(out, SignedSolution)
    assert len(out.u) == len(out.v) == 1


def test_coefficient_bound_alone_picks_the_ring():
    a, b = ZM.from_text("a"), ZM.from_text("b")
    assert not make_instance(ZM, a, b, 2, 1).signed
    assert make_instance(ZM, a, b, 2, 1, coeff_bound=1).signed
    # Z+[M] has no signs to choose, and a sign is +1 or -1
    with pytest.raises(ValueError, match="need a coefficient bound"):
        make_instance(ZM, a, b, 2, 1, signs=(-1, -1))
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        make_instance(ZM, a, b, 2, 1, coeff_bound=1, signs=(2, 1))


def test_signed_posmon_bounded_outcome():
    inst = make_instance(
        PM, PM.from_text("x0"), PM.from_text("x1"), 2, 2, 3,
        coeff_bound=2, signs=(-1, -1),
    )
    out = search_signed(inst)
    assert isinstance(out, (SignedSolution, Exhausted))
    if isinstance(out, SignedSolution):
        assert out.verified
    assert isinstance(search_signed(inst, jobs=3), type(out))


# -- random positive controls -------------------------------------------------


def test_random_abelian_solutions_roundtrip():
    rng = random.Random(4242)
    for _ in range(25):
        m = rng.choice((2, 3))
        backend = ZmBackend(m)
        def rand_elem():
            return tuple(rng.randrange(-2, 3) for _ in range(m))
        a = rand_elem()
        b = rand_elem()
        W = [rand_elem() for _ in range(rng.randrange(1, 4))]
        U = [backend.multiply(w, f) for w in W for f in (backend.identity, b)]
        V = [backend.multiply(w, f) for w in W for f in (backend.identity, a)]
        sol = verify_solution(backend, a, b, U, V)
        graph = build_relation_graph(backend, a, b, sol)
        relations = extract_cycles(graph, backend, a, b)
        assert all(r.verified for r in relations)
        for relation in relations:
            assert relation_to_solution(backend, a, b, relation.word).verified
