"""Bounded search for nonzero common right multiples of (1+a) and (1+b),
plus the relation-graph constructions connecting solutions to alternating
relations.

The unsigned search looks for multisets U, V over a finite pool with
(1+a)*U = (1+b)*V in Z+[M].  It backtracks on the signed multiset deficit
D = (1+a)*U - (1+b)*V: the minimal uncovered canonical key must be fixed by
whichever side is short there, and by left cancellativity at most two pool
elements can fix it, so the branching factor is tiny.  The DFS from a seed
never adds a U element ordered before the seed, so no solution is searched
for twice (see ``search_common_multiple``).  Exhaustion within the stated
bounds is a normal, certifiable outcome.

A found solution induces a labelled digraph on the common vertex multiset:
one a-edge from a*g to g per occurrence of g in U, one b-edge from b*h to h
per occurrence of h in V.  Every vertex carries exactly one a-incidence and
one b-incidence, so the edges split into disjoint cycles whose labels spell
alternating relations; reading an edge along its direction contributes the
label, against it the inverse.  ``relation_to_solution`` walks a verified
relation back into a solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ModeMismatchError,
    NotARelationError,
    NotEmbeddableError,
    VerificationError,
)
from .groups.base import Backend
from .semiring import (
    SemiringElement,
    sr_add,
    sr_as_multiset,
    sr_equals,
    sr_left_factor,
    sr_mul,
    sr_scale,
)
from .words import Generator, Word


# ---------------------------------------------------------------------------
# instances and pool enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OreInstance:
    backend: Backend
    a: object
    b: object
    max_support: int
    pool: tuple
    pool_length: int | None = None
    pool_max_index: int | None = None
    signed: bool = False
    coeff_bound: int | None = None
    signs: tuple[int, int] = (1, 1)

    def bounds(self) -> dict:
        return {
            "n": self.max_support,
            "L": self.pool_length,
            "K": self.pool_max_index,
            "c": self.coeff_bound,
        }


def enumerate_pool(backend: Backend, length: int, max_index: int | None = None,
                   generators=None) -> list:
    """Ball of radius ``length`` over the generating set, key-sorted.

    Group backends include inverse letters.  Elements are deduplicated by
    canonical key and the identity is always present.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if generators is None:
        gens = [g for _, g in backend.generators(max_index)]
    else:
        gens = list(generators)
    letters = list(gens)
    if backend.is_group:
        letters.extend(backend.inverse(g) for g in gens)
    seen = {backend.canonical_key(backend.identity): backend.identity}
    frontier = [backend.identity]
    for _ in range(length):
        grown = []
        for x in frontier:
            for letter in letters:
                y = backend.multiply(x, letter)
                k = backend.canonical_key(y)
                if k not in seen:
                    seen[k] = y
                    grown.append(y)
        frontier = grown
    return [seen[k] for k in sorted(seen)]


def make_instance(backend, a, b, max_support, pool_length, pool_max_index=None,
                  signed=False, coeff_bound=None, signs=(1, 1)) -> OreInstance:
    pool = enumerate_pool(backend, pool_length, pool_max_index)
    return OreInstance(
        backend, a, b, max_support, tuple(pool),
        pool_length=pool_length, pool_max_index=pool_max_index,
        signed=signed, coeff_bound=coeff_bound, signs=signs,
    )


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass
class Solution:
    U: tuple
    V: tuple
    lhs: SemiringElement
    rhs: SemiringElement
    verified: bool

    @property
    def mass(self) -> int:
        return len(self.U)


@dataclass
class Exhausted:
    bounds: dict
    pool_size: int
    nodes: int


@dataclass
class SignedSolution:
    u: tuple  # (coeff, element) pairs, key-sorted
    v: tuple
    lhs: SemiringElement
    rhs: SemiringElement
    verified: bool


def _sorted_by_key(backend, elems):
    return tuple(sorted(elems, key=backend.canonical_key))


def verify_solution(backend, a, b, U, V) -> Solution:
    """Expand both sides in Z+[M] and insist they agree."""
    if len(U) != len(V) or not U:
        raise VerificationError(f"|U| = {len(U)} and |V| = {len(V)} must match and be >= 1")
    u_sum = SemiringElement.from_elements(backend, U)
    v_sum = SemiringElement.from_elements(backend, V)
    lhs = sr_left_factor(a, u_sum)
    rhs = sr_left_factor(b, v_sum)
    if not sr_equals(lhs, rhs):
        raise VerificationError("solution failed semiring verification")
    return Solution(_sorted_by_key(backend, U), _sorted_by_key(backend, V),
                    lhs, rhs, True)


# ---------------------------------------------------------------------------
# unsigned search
# ---------------------------------------------------------------------------


class _Tables:
    """Pool images under a and b, built once per search.

    Every canonical key is replaced by its rank in sorted key order, so the
    DFS compares and hashes small ints; rank order is key order, so
    ``min(D)`` picks the same key as it would on the keys themselves.
    """

    def __init__(self, inst: OreInstance):
        backend = inst.backend
        key = backend.canonical_key
        self.pool = list(inst.pool)
        keys = [
            (key(g), key(backend.multiply(inst.a, g)), key(backend.multiply(inst.b, g)))
            for g in self.pool
        ]
        rank = {k: r for r, k in enumerate(sorted({k for ks in keys for k in ks}))}
        self.images_a = []
        self.images_b = []
        cover_u: dict = {}
        cover_v: dict = {}
        for i, (kg, kag, kbg) in enumerate(keys):
            kg, kag, kbg = rank[kg], rank[kag], rank[kbg]
            self.images_a.append((kg, kag))
            self.images_b.append((kg, kbg))
            for k in {kg, kag}:
                cover_u.setdefault(k, []).append(i)
            for k in {kg, kbg}:
                cover_v.setdefault(k, []).append(i)
        self.cover_u = cover_u
        self.cover_v = cover_v


def _bump(D: dict, k, delta: int) -> None:
    new = D.get(k, 0) + delta
    if new:
        D[k] = new
    else:
        D.pop(k, None)


def search_common_multiple(inst: OreInstance, jobs: int = 1):
    """First solution in seed-then-depth-first order, or an Exhausted report.

    The pool is key-sorted and every branch tries candidates in pool order,
    so the result is deterministic.  The search runs serially; ``jobs`` is
    accepted for compatibility and changes nothing.

    Canonical seeding: the DFS from seed ``s`` adds a U element only if its
    pool index is at least ``s``; V is unrestricted.  So each solution is
    met only from the least element of its U (the idea of canonical
    augmentation, B. D. McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998).  The answer is that of the unrestricted search:
    a DFS reaches every solution that extends its partial (U, V), because
    whichever side is short at the least key of D must cover that key.  Let
    s* be the first seed from which the unrestricted search finds anything.
    No solution has a U element below s*, or an earlier seed would have
    found it.  The floor only removes branches that contain such an element,
    so the DFS from s* meets the same first solution, and the seeds before
    s* still find nothing.
    """
    if inst.signed:
        raise ModeMismatchError("use search_signed for signed instances")
    t = _Tables(inst)
    n = inst.max_support
    images_a, images_b, cover_u, cover_v = t.images_a, t.images_b, t.cover_u, t.cover_v
    nodes = 0

    def dfs(D, U, V, floor):
        nonlocal nodes
        nodes += 1
        if not D:
            return list(U), list(V)
        kappa = min(D)
        if D[kappa] < 0:
            if len(U) == n:
                return None
            for gi in cover_u.get(kappa, ()):
                if gi < floor:
                    continue
                j1, j2 = images_a[gi]
                _bump(D, j1, 1)
                _bump(D, j2, 1)
                U.append(gi)
                hit = dfs(D, U, V, floor)
                U.pop()
                _bump(D, j1, -1)
                _bump(D, j2, -1)
                if hit:
                    return hit
        else:
            if len(V) == n:
                return None
            for hi in cover_v.get(kappa, ()):
                j1, j2 = images_b[hi]
                _bump(D, j1, -1)
                _bump(D, j2, -1)
                V.append(hi)
                hit = dfs(D, U, V, floor)
                V.pop()
                _bump(D, j1, 1)
                _bump(D, j2, 1)
                if hit:
                    return hit
        return None

    hit = None
    for seed in range(len(t.pool)):
        D: dict = {}
        for k in images_a[seed]:
            _bump(D, k, 1)
        hit = dfs(D, [seed], [], seed)
        if hit:
            break
    # dfs holds itself through its closure; unbinding it frees the tables on
    # return instead of at the next cyclic garbage collection.
    del dfs
    if hit is None:
        return Exhausted(inst.bounds(), len(t.pool), nodes)
    U = [t.pool[i] for i in hit[0]]
    V = [t.pool[i] for i in hit[1]]
    return verify_solution(inst.backend, inst.a, inst.b, U, V)


# ---------------------------------------------------------------------------
# signed search
# ---------------------------------------------------------------------------


def _coeff_order(bound: int):
    out = []
    for m in range(1, bound + 1):
        out.append(m)
        out.append(-m)
    return out


def expand_signed(backend, a, b, signs, u, v) -> SignedSolution:
    """Both sides of (1 + sa*a) u = (1 + sb*b) v in Z[M].

    ``u`` and ``v`` are (coefficient, element) terms; they come back
    key-sorted, and ``verified`` says whether the two sides agree.
    """

    def side(terms, factor, sign):
        terms = tuple(sorted(terms, key=lambda term: backend.canonical_key(term[1])))
        total = SemiringElement.zero(backend, signed=True)
        for lam, g in terms:
            total = sr_add(total, SemiringElement.monomial(backend, g, lam, signed=True))
        mono = SemiringElement.monomial(backend, factor, 1, signed=True)
        return terms, sr_add(total, sr_scale(sr_mul(mono, total), sign))

    sa, sb = signs
    u_terms, lhs = side(u, a, sa)
    v_terms, rhs = side(v, b, sb)
    return SignedSolution(u_terms, v_terms, lhs, rhs, sr_equals(lhs, rhs))


def search_signed(inst: OreInstance, jobs: int = 1):
    """Bounded search for (1 +/- a) u = (1 +/- b) v in Z[M].

    Supports live in the pool, coefficients in [-c, c] without zero, at
    most ``max_support`` support elements per side, u = v = 0 excluded.
    The search runs serially; ``jobs`` is accepted for compatibility and
    changes nothing.

    Canonical seeding: a seed is a (side, pool index) with a positive
    coefficient, and the DFS from it adds no element ordered before the
    seed in (side, index) order.  A U-seed (0, s) allows U elements from s
    on and any V element; a V-seed (1, s) allows no U element and V
    elements from s on.  The answer is that of the unrestricted search,
    which seeds every (side, index, +/-coefficient).  A DFS reaches every
    solution that extends its partial (u, v), because some remaining
    support element must cover the least key of D.  The equation is
    linear, so (-u, -v) is a solution whenever (u, v) is, and the first
    seed s* from which the unrestricted search finds anything has a
    positive coefficient.  No solution has a support element ordered
    before s*, or an earlier seed would have found it or its negation.
    The floor only removes branches that contain such an element, so the
    DFS from s* meets the same first solution, and the seeds before s*
    still find nothing.  This is canonical augmentation (B. D. McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
    """
    if not inst.signed or not inst.coeff_bound:
        raise ModeMismatchError("signed search needs signed mode and a coefficient bound")
    sa, sb = inst.signs
    c = inst.coeff_bound
    n = inst.max_support
    t = _Tables(inst)
    images_a, images_b, cover_u, cover_v = t.images_a, t.images_b, t.cover_u, t.cover_v
    coeffs = _coeff_order(c)
    nodes = 0

    def apply_u(D, gi, lam):
        kg, kag = images_a[gi]
        _bump(D, kg, lam)
        _bump(D, kag, sa * lam)

    def apply_v(D, hi, lam):
        kh, kbh = images_b[hi]
        _bump(D, kh, -lam)
        _bump(D, kbh, -sb * lam)

    def dfs(D, u, v, u_floor, v_floor):
        nonlocal nodes
        nodes += 1
        if not D:
            return dict(u), dict(v)
        kappa = min(D)
        if len(u) < n:
            for gi in cover_u.get(kappa, ()):
                if gi < u_floor or gi in u:
                    continue
                for lam in coeffs:
                    apply_u(D, gi, lam)
                    u[gi] = lam
                    hit = dfs(D, u, v, u_floor, v_floor)
                    del u[gi]
                    apply_u(D, gi, -lam)
                    if hit:
                        return hit
        if len(v) < n:
            for hi in cover_v.get(kappa, ()):
                if hi < v_floor or hi in v:
                    continue
                for lam in coeffs:
                    apply_v(D, hi, lam)
                    v[hi] = lam
                    hit = dfs(D, u, v, u_floor, v_floor)
                    del v[hi]
                    apply_v(D, hi, -lam)
                    if hit:
                        return hit
        return None

    size = len(t.pool)
    seeds = ((side, idx, lam) for side in (0, 1) for idx in range(size)
             for lam in range(1, c + 1))
    hit = None
    for side, idx, lam in seeds:
        D: dict = {}
        if side == 0:
            apply_u(D, idx, lam)
            hit = dfs(D, {idx: lam}, {}, idx, 0)
        else:
            apply_v(D, idx, lam)
            hit = dfs(D, {}, {idx: lam}, size, idx)
        if hit:
            break
    del dfs  # frees the tables now, as in search_common_multiple
    if hit is None:
        return Exhausted(inst.bounds(), size, nodes)
    sol = expand_signed(
        inst.backend, inst.a, inst.b, inst.signs,
        [(lam, t.pool[i]) for i, lam in hit[0].items()],
        [(lam, t.pool[i]) for i, lam in hit[1].items()],
    )
    if not sol.verified:
        raise VerificationError("signed solution failed verification")
    return sol


# ---------------------------------------------------------------------------
# relation graph
# ---------------------------------------------------------------------------

VertexId = tuple  # (canonical key, occurrence id)


@dataclass(frozen=True)
class GraphEdge:
    source: VertexId
    target: VertexId
    label: str


@dataclass
class RelationGraph:
    vertices: tuple
    elements: dict  # canonical key -> element
    a_edges: tuple
    b_edges: tuple


def _assign_edges(backend, factor, members, label) -> tuple[list, dict]:
    """One labelled edge factor*g -> g per member, with occurrence ids
    handed out in sorted-stable order."""
    key = backend.canonical_key
    raw = sorted(
        (key(backend.multiply(factor, g)), key(g), g) for g in members
    )
    counter: dict = {}
    edges = []
    elements = {}
    for src_key, tgt_key, g in raw:
        src_occ = counter.get(src_key, 0)
        counter[src_key] = src_occ + 1
        tgt_occ = counter.get(tgt_key, 0)
        counter[tgt_key] = tgt_occ + 1
        edges.append(GraphEdge((src_key, src_occ), (tgt_key, tgt_occ), label))
        elements[src_key] = backend.multiply(factor, g)
        elements[tgt_key] = g
    return edges, elements


def build_relation_graph(backend, a, b, sol: Solution) -> RelationGraph:
    """Vertex multiset of both expanded sides plus one a- and one b-edge
    incidence per vertex."""
    if not sol.verified:
        raise VerificationError("refusing to build a graph from an unverified solution")
    left = [backend.canonical_key(x) for x in sr_as_multiset(sol.lhs)]
    right = [backend.canonical_key(x) for x in sr_as_multiset(sol.rhs)]
    if sorted(left) != sorted(right):
        raise VerificationError("vertex multiset mismatch between the two sides")
    a_edges, elems_a = _assign_edges(backend, a, sol.U, "a")
    b_edges, elems_b = _assign_edges(backend, b, sol.V, "b")
    counts: dict = {}
    for k in left:
        counts[k] = counts.get(k, 0) + 1
    vertices = tuple((k, i) for k in sorted(counts) for i in range(counts[k]))
    incident_a = [e.source for e in a_edges] + [e.target for e in a_edges]
    incident_b = [e.source for e in b_edges] + [e.target for e in b_edges]
    if sorted(incident_a) != list(vertices) or sorted(incident_b) != list(vertices):
        raise VerificationError("per-label incidence invariant violated")
    elements = {**elems_a, **elems_b}
    return RelationGraph(vertices, elements, tuple(a_edges), tuple(b_edges))


@dataclass
class AlternatingRelation:
    word: Word
    verified: bool


def evaluate_label_word(backend, a, b, word: Word):
    """Evaluate a word over the labels {a, b} in the backend's envelope."""
    env = backend.envelope()
    ea = backend.embed_to_envelope(a)
    eb = backend.embed_to_envelope(b)
    x = env.identity
    for gen, exp in word:
        if gen.name == "a":
            letter = ea
        elif gen.name == "b":
            letter = eb
        else:
            raise ValueError(f"label word may only use a and b, found {gen}")
        x = env.multiply(x, letter if exp > 0 else env.inverse(letter))
    return env, x


def extract_cycles(graph: RelationGraph, backend, a, b) -> list[AlternatingRelation]:
    """Decompose the graph into cycles and read off their label words.

    Traversal starts at the minimal unvisited vertex with its a-incidence;
    moving along an edge's direction reads the label, moving against it the
    inverse.  Every cycle word must evaluate to the identity.
    """
    a_inc: dict = {}
    b_inc: dict = {}
    for edge in graph.a_edges:
        a_inc[edge.source] = (edge, "src")
        a_inc[edge.target] = (edge, "tgt")
    for edge in graph.b_edges:
        b_inc[edge.source] = (edge, "src")
        b_inc[edge.target] = (edge, "tgt")
    visited = set()
    relations = []
    for start in graph.vertices:
        if start in visited:
            continue
        letters = []
        current = start
        use_a = True
        while True:
            visited.add(current)
            edge, role = (a_inc if use_a else b_inc)[current]
            if role == "src":
                letters.append((Generator(edge.label), 1))
                current = edge.target
            else:
                letters.append((Generator(edge.label), -1))
                current = edge.source
            use_a = not use_a
            if current == start and use_a:
                break
        word = tuple(letters)
        env, value = evaluate_label_word(backend, a, b, word)
        if not env.is_identity(value):
            raise VerificationError("cycle label does not evaluate to the identity")
        relations.append(AlternatingRelation(word, True))
    return relations


def relation_to_solution(backend, a, b, word: Word, pool=None) -> Solution:
    """Rebuild a solution from an alternating relation by walking its cycle.

    The walk starts at the identity and steps v -> label^-exponent * v, so
    each step realises one graph edge.  On group backends the vertex set is
    right-translated so its minimal vertex becomes the identity.  On monoid
    backends the walk happens in the group envelope and every right
    translation by a pool element is attempted until all vertices land in
    the pool; failing that is a normal negative outcome.
    """
    n = len(word)
    if n < 2 or n % 2:
        raise NotARelationError("label word must have positive even length")
    names = [g.name for g, _ in word]
    if set(names) - {"a", "b"} or any(names[i] == names[i + 1] for i in range(n - 1)):
        raise NotARelationError("label word must strictly alternate between a and b")
    env, value = evaluate_label_word(backend, a, b, word)
    if not env.is_identity(value):
        raise NotARelationError("word does not evaluate to the identity")
    ea = backend.embed_to_envelope(a)
    eb = backend.embed_to_envelope(b)
    v = env.identity
    vertices = [v]
    u_targets = []
    v_targets = []
    for gen, exp in word:
        letter = ea if gen.name == "a" else eb
        nxt = env.multiply(env.inverse(letter), v) if exp > 0 else env.multiply(letter, v)
        target = nxt if exp > 0 else v
        (u_targets if gen.name == "a" else v_targets).append(target)
        v = nxt
        vertices.append(v)
    if not env.equals(v, env.identity):
        raise VerificationError("cycle walk did not close")

    if backend.is_group:
        mu = min(vertices, key=backend.canonical_key)
        t = backend.inverse(mu)
        U = [backend.multiply(x, t) for x in u_targets]
        V = [backend.multiply(x, t) for x in v_targets]
        return verify_solution(backend, a, b, U, V)

    if pool is None:
        raise ValueError("monoid backends need a candidate pool for embedding")
    by_env_key = {
        env.canonical_key(backend.embed_to_envelope(p)): p for p in pool
    }
    for t_elem in sorted(pool, key=backend.canonical_key):
        ft = backend.embed_to_envelope(t_elem)
        U = []
        V = []
        ok = True
        for bucket, targets in ((U, u_targets), (V, v_targets)):
            for x in targets:
                p = by_env_key.get(env.canonical_key(env.multiply(x, ft)))
                if p is None:
                    ok = False
                    break
                bucket.append(p)
            if not ok:
                break
        if ok:
            return verify_solution(backend, a, b, U, V)
    raise NotEmbeddableError(
        "vertices not embeddable in the monoid within pool translations"
    )
