"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion states its own tolerance (exact equality unless a
runtime bound is given).
"""

import io
import itertools
import json
import random
import time
from fractions import Fraction

from fox import fox_trivial
from helpers import (
    ab_alternating_words,
    alternating_words,
    letters,
    random_word,
    rewrite_normalize,
)

from orecert.cli import main
from orecert.folner import check_delta, check_epsilon, folner_ratios
from orecert.groups import (
    FBackend,
    MbBackend,
    PosMonoidBackend,
    ZmBackend,
    alt_trace,
    pos_normalize,
    verify_trace,
)
from orecert.ore import (
    Exhausted,
    build_relation_graph,
    extract_cycles,
    make_instance,
    relation_to_solution,
    search_common_multiple,
    verify_solution,
)
from orecert.semiring import sr_add, sr_mul
from orecert.words import Generator, print_word


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_alternating_words_nontrivial_in_f():
    fb = FBackend()
    start = time.monotonic()
    checked = 0
    ok = True
    for k in range(1, 7):
        for w in alternating_words(k):
            if fb.is_identity(fb.from_word(w)):
                ok = False
                break
            trace = alt_trace(w)
            if trace.verdict != "nontrivial" or not verify_trace(trace):
                ok = False
                break
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and checked == 5460 and elapsed < 120
    report(1, f"{checked} alternating words length 2..12 nontrivial in F "
              f"with verified traces ({elapsed:.1f}s < 120s)", ok)


def test_criterion_02_alternating_words_nontrivial_in_mb2():
    mb = MbBackend(2)
    start = time.monotonic()
    checked = 0
    ok = True
    for k in range(1, 7):
        for w in ab_alternating_words(k):
            if mb.is_identity(mb.from_word(w)):
                ok = False
                break
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and checked == 5460 and elapsed < 60
    report(2, f"{checked} alternating a/b words length 2..12 nontrivial in MB2 "
              f"({elapsed:.1f}s < 60s)", ok)


def test_criterion_03_thompson_monoid_slice_exhausted():
    start = time.monotonic()
    code_small, out_small, _ = run_cli(
        "ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
        "--max-support", "3", "--pool-len", "3", "--pool-idx", "4",
    )
    code_large, out_large, _ = run_cli(
        "ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
        "--max-support", "4", "--pool-len", "4", "--pool-idx", "4",
    )
    elapsed = time.monotonic() - start
    ok = (
        code_small == 3 and out_small == "exhausted\n"
        and code_large == 3 and out_large == "exhausted\n"
        and elapsed < 600
    )
    report(3, f"(1+x0)u = (1+x1)v exhausted at n=3,L=3,K=4 and n=4,L=4,K=4 "
              f"(exit 3, {elapsed:.1f}s < 600s)", ok)


def test_criterion_04_metabelian_slice_exhausted():
    mb = MbBackend(2)
    inst = make_instance(mb, mb.from_text("a"), mb.from_text("b"), 3, 2)
    outcome = search_common_multiple(inst)
    report(4, "(1+a)u = (1+b)v exhausted on MB2 at n=3, pool radius 2",
           isinstance(outcome, Exhausted))


def test_criterion_05_positive_control_pipeline():
    zm = ZmBackend(2)
    a, b = zm.from_text("a"), zm.from_text("b")

    def once():
        inst = make_instance(zm, a, b, 2, 1)
        sol = search_common_multiple(inst)
        graph = build_relation_graph(zm, a, b, sol)
        relations = extract_cycles(graph, zm, a, b)
        rebuilt = relation_to_solution(zm, a, b, relations[0].word)
        cert = run_cli(
            "ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
            "--max-support", "2", "--pool-len", "1", "--format", "json",
        )
        return sol, relations, rebuilt, cert

    sol, relations, rebuilt, cert = once()
    sol2, relations2, rebuilt2, cert2 = once()
    ok = (
        [zm.canonical_str(x) for x in sol.U] == ["(0,0)", "(0,1)"]
        and [zm.canonical_str(x) for x in sol.V] == ["(0,0)", "(1,0)"]
        and len(relations) == 1
        and len(relations[0].word) == 4
        and print_word(relations[0].word) == "a^-1 b^-1 a b"
        and relations[0].verified
        and rebuilt.verified
        and [zm.canonical_str(x) for x in rebuilt.U] == ["(0,0)", "(0,1)"]
        and cert == cert2
        and print_word(relations2[0].word) == print_word(relations[0].word)
        and rebuilt2.verified
    )
    report(5, "zm:2 pipeline finds U={1,b}, V={1,a}, one verified 4-cycle, "
              "round-trips, and emits identical certificates", ok)


def test_criterion_06_random_abelian_solution_invariants():
    rng = random.Random(20240803)
    failures = 0
    for _ in range(100):
        m = rng.choice((1, 2, 3))
        zm = ZmBackend(m)

        def rand_elem():
            return tuple(rng.randrange(-2, 3) for _ in range(m))

        a, b = rand_elem(), rand_elem()
        W = [rand_elem() for _ in range(rng.randrange(1, 4))]
        U = [zm.multiply(w, f) for w in W for f in (zm.identity, b)]
        V = [zm.multiply(w, f) for w in W for f in (zm.identity, a)]
        try:
            sol = verify_solution(zm, a, b, U, V)
            graph = build_relation_graph(zm, a, b, sol)
            if len(sol.U) != len(sol.V):
                failures += 1
                continue
            for edges in (graph.a_edges, graph.b_edges):
                incident = sorted([e.source for e in edges] + [e.target for e in edges])
                if incident != sorted(graph.vertices):
                    failures += 1
                    break
            else:
                relations = extract_cycles(graph, zm, a, b)
                if not all(r.verified for r in relations):
                    failures += 1
        except Exception:
            failures += 1
    report(6, "100 random Z^m solutions (m <= 3): multisets match, |U| = |V|, "
              "one a- and b-incidence per vertex, all cycle labels verify "
              f"({failures} failures)", failures == 0)


def test_criterion_07_metabelian_backend_vs_fox_oracle():
    mb = MbBackend(2)
    ab = letters("ab")
    start = time.monotonic()
    disagreements = 0
    total = 0
    for length in range(0, 9):
        for combo in itertools.product(ab, repeat=length):
            w = tuple(combo)
            if mb.is_identity(mb.from_word(w)) != fox_trivial(w, 2):
                disagreements += 1
            total += 1
    rng = random.Random(77)
    for _ in range(10_000):
        w = random_word(rng, ab, 20)
        if mb.is_identity(mb.from_word(w)) != fox_trivial(w, 2):
            disagreements += 1
        total += 1
    elapsed = time.monotonic() - start
    report(7, f"flow backend vs Fox derivatives on {total} words "
              f"({disagreements} disagreements, {elapsed:.1f}s)",
           disagreements == 0)


def test_criterion_08_thompson_backend_checks():
    fb = FBackend()
    pm = PosMonoidBackend()
    ok = True
    for i in range(6):
        for j in range(i + 1, 6):
            lhs = fb.multiply(fb.generator_pair(j), fb.generator_pair(i))
            rhs = fb.multiply(fb.generator_pair(i), fb.generator_pair(j + 1))
            if lhs != rhs:
                ok = False
    rng = random.Random(88)
    for _ in range(1000):
        w = tuple((Generator("x", rng.randrange(5)), 1) for _ in range(rng.randrange(0, 11)))
        fold = pos_normalize(w)
        if not (
            rewrite_normalize(w, "leftmost") == fold
            and rewrite_normalize(w, "rightmost") == fold
            and rewrite_normalize(w, "random", rng) == fold
        ):
            ok = False
    by_nf = {}
    by_key = {}
    for length in range(6):
        for combo in itertools.product(range(3), repeat=length):
            w = tuple((Generator("x", i), 1) for i in combo)
            nf = pm.from_word(w)
            key = fb.canonical_key(pm.embed_to_envelope(nf))
            if by_nf.setdefault(nf, key) != key or by_key.setdefault(key, nf) != nf:
                ok = False
    report(8, "tree-pair relations (i<j<=5), rewrite confluence on 1000 words, "
              "tree-pair equality matches normal forms on words length <= 5", ok)


def test_criterion_09_folner_box_exactness():
    zm = ZmBackend(2)
    ok = True
    for n in range(1, 51):
        E = [(i, j) for i in range(n) for j in range(n)]
        rep = folner_ratios(zm, E, zm.generators())
        for s in rep.per_generator:
            if s.symdiff_ratio != Fraction(2, n):
                ok = False
        if check_epsilon(rep, Fraction(2, n)):
            ok = False  # strict: ratio == bound must fail
        if not check_epsilon(rep, Fraction(2, n) + Fraction(1, 10**9)):
            ok = False
        if n >= 3 and not check_delta(rep, Fraction(1, 2)):
            ok = False  # intersection ratio (n-1)/n strictly exceeds 1/2
    report(9, "boxes [0,n)^2 report symdiff ratio exactly 2/n for n in 1..50 "
              "with strict threshold semantics", ok)


def _random_sr(rng, backend, pool):
    acc: dict = {}
    for _ in range(rng.randrange(0, 4)):
        acc = sr_add(
            acc, {backend.from_word(random_word(rng, pool, 4)): rng.choice((1, 2, 3))}
        )
    return acc


def test_criterion_10_semiring_laws():
    positive = [(Generator("x", i), 1) for i in range(3)]
    backends = [
        (ZmBackend(2), letters("ab")),
        (MbBackend(2), letters("ab")),
        (PosMonoidBackend(), positive),
        (FBackend(), [(Generator("x", i), e) for i in range(3) for e in (1, -1)]),
    ]
    ok = True
    for backend, pool in backends:
        rng = random.Random(1000 + len(pool))
        one = {backend.identity: 1}

        def mul(x, y):
            return sr_mul(backend, x, y)

        for _ in range(1000):
            x = _random_sr(rng, backend, pool)
            y = _random_sr(rng, backend, pool)
            z = _random_sr(rng, backend, pool)
            if mul(mul(x, y), z) != mul(x, mul(y, z)):
                ok = False
            if mul(x, sr_add(y, z)) != sr_add(mul(x, y), mul(x, z)):
                ok = False
            if mul(sr_add(x, y), z) != sr_add(mul(x, z), mul(y, z)):
                ok = False
            if not (mul(x, one) == x and mul(one, x) == x):
                ok = False
            for value in itertools.chain(sr_add(x, y).values(), mul(x, y).values()):
                if value < 1:
                    ok = False
    report(10, "associativity, distributivity, identities on 1000 random "
               "triples per backend; unsigned coefficients stay positive", ok)


def test_criterion_11_determinism():
    examples = [
        ("wp", "--backend", "mb:2", "a b A B"),
        ("alt-trace", "x0 x1 x0^-1 x1^-1"),
        (
            "ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
            "--max-support", "3", "--pool-len", "3", "--pool-idx", "4",
        ),
        (
            "ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
            "--max-support", "2", "--pool-len", "1", "--format", "json",
        ),
    ]
    ok = all(run_cli(*argv) == run_cli(*argv) for argv in examples)
    # the searches run serially; there is no --jobs option to vary
    for argv in examples[2:]:
        code, out, err = run_cli(*argv, "--jobs", "4")
        ok = ok and (code, out) == (2, "") and "Traceback" not in err
    report(11, "CLI outputs byte-identical across repeated runs and --jobs "
               "is refused with exit 2", ok)
