"""Bounded search for nonzero common right multiples of (1+a) and (1+b),
plus the relation-graph constructions connecting solutions to alternating
relations.

The unsigned search looks for multisets U, V over a finite pool with
(1+a)*U = (1+b)*V in Z+[M]; the signed search for u, v with coefficients
in [-c, c] and (1 +/- a) u = (1 +/- b) v in Z[M].  Both run one DFS that
backtracks on the deficit D = lhs - rhs: the minimal uncovered element
must be covered by an element still to be added, so the branching
factor is tiny.  The DFS from a seed never adds an element ordered before
the seed, so no solution is searched for twice (see ``_search``).
Exhaustion within the stated bounds is a normal, certifiable outcome.

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
from itertools import groupby

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


def enumerate_pool(backend: Backend, length: int, max_index: int | None = None) -> list:
    """Ball of radius ``length`` over the generating set, sorted.

    Group backends include inverse letters.  The identity is always present.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    letters = [g for _, g in backend.generators(max_index)]
    if backend.is_group:
        letters += [backend.inverse(g) for g in letters]
    seen = {backend.identity}
    frontier = [backend.identity]
    for _ in range(length):
        grown = []
        for x in frontier:
            for letter in letters:
                y = backend.multiply(x, letter)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return sorted(seen)


def make_instance(backend, a, b, max_support, pool_length, pool_max_index=None,
                  signed=False, coeff_bound=None, signs=(1, 1)) -> OreInstance:
    if max_support < 0:
        raise ValueError("max support n must be nonnegative")
    if signed and (coeff_bound is None or coeff_bound < 1):
        raise ValueError("coefficient bound c must be at least 1")
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
    u: tuple  # (coeff, element) pairs, sorted by element
    v: tuple
    lhs: SemiringElement
    rhs: SemiringElement
    verified: bool


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
    return Solution(tuple(sorted(U)), tuple(sorted(V)), lhs, rhs, True)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _coeff_order(bound: int) -> list:
    return [s * m for m in range(1, bound + 1) for s in (1, -1)]


class _Tables:
    """Pool images under a and b, built once per search.

    Side 0 is u, side 1 is v.  ``images[side][i]`` holds g = pool[i] and
    a*g (side 0) or b*g (side 1); ``cover[side][k]`` lists, in pool order,
    the i whose images include k.  ``steps[side]`` lists (lam, d1, d2) in
    ``coeffs`` order: adding lam*g to u adds lam to the deficit D at g and
    sa*lam at a*g, adding lam*h to v subtracts lam at h and sb*lam at b*h.
    Every element is replaced by its rank in sorted order, so the DFS
    compares and hashes small ints; rank order is element order, so
    ``min(D)`` picks the same element as it would on the elements
    themselves.
    """

    def __init__(self, inst: OreInstance, coeffs):
        backend = inst.backend
        self.pool = list(inst.pool)
        triples = [(g, backend.multiply(inst.a, g), backend.multiply(inst.b, g)) for g in self.pool]
        rank = {x: r for r, x in enumerate(sorted({x for xs in triples for x in xs}))}
        sa, sb = inst.signs
        self.steps = ([(lam, lam, sa * lam) for lam in coeffs],
                      [(lam, -lam, -sb * lam) for lam in coeffs])
        images_a, images_b = self.images = ([], [])
        cover_u, cover_v = self.cover = ({}, {})
        for i, (kg, kag, kbg) in enumerate(triples):
            kg, kag, kbg = rank[kg], rank[kag], rank[kbg]
            images_a.append((kg, kag))
            images_b.append((kg, kbg))
            for k in {kg, kag}:
                cover_u.setdefault(k, []).append(i)
            for k in {kg, kbg}:
                cover_v.setdefault(k, []).append(i)


def _shift(D: dict, k1, d1: int, k2, d2: int) -> None:
    """Add d1 to D at k1 and d2 at k2, dropping entries that reach zero."""
    new = D.get(k1, 0) + d1
    if new:
        D[k1] = new
    else:
        del D[k1]
    new = D.get(k2, 0) + d2
    if new:
        D[k2] = new
    else:
        del D[k2]


def _search(inst: OreInstance, coeffs, seeds, distinct: bool, movers):
    """First solution in seed-then-depth-first order, as the (coefficient,
    element) terms of u and v, or an Exhausted report.

    The DFS backtracks on the deficit D = (1 + sa*a) u - (1 + sb*b) v.  Some
    element still to be added must cover the least key kappa of D, so the
    DFS adds only elements whose images include kappa, on the sides that
    ``movers[D[kappa] > 0]`` lists.  In Z+[M] that is the short side alone
    (u where D[kappa] < 0, v where it is > 0), and by left cancellativity
    at most two pool elements per side cover a key, so the branching factor
    is tiny.  In Z[M] either side may cover kappa.  So a DFS reaches every
    solution that extends its partial (u, v).  Each side holds at most
    ``max_support`` elements; with ``distinct`` an element is added to a
    side at most once (Z[M] supports are sets, Z+[M] ones multisets).
    Candidates are tried in pool order and, per element, in ``coeffs``
    order, so the result is deterministic.

    Canonical seeding: ``seeds`` lists (side, pool index, floors) in seed
    order; each seed starts a DFS with each of its positive coefficients,
    and that DFS adds no element to a side below the side's floor.  So each
    solution is met only from its least element in seed order (canonical
    augmentation, B. D. McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998).  The answer is that of the unrestricted
    search, which seeds every element of u in Z+[M] and every (side, index,
    +/-coefficient) in Z[M]:

    - Z+[M] seeds u only.  Seed s has floors (s, 0): u elements from s on,
      any v element.  Let s* be the first seed from which the unrestricted
      search finds anything.  No solution has a u element below s*, or an
      earlier seed would have found it.
    - Z[M] seeds u, then v.  A u-seed s has floors (s, 0); a v-seed s has
      floors (size, s): no u element, v elements from s on.  The equation
      is linear, so (-u, -v) is a solution whenever (u, v) is, and the
      first seed s* from which the unrestricted search finds anything has a
      positive coefficient.  No solution has a support element ordered
      before s*, or an earlier seed would have found it or its negation.

    In both, the floor only removes branches that contain such an element,
    so the DFS from s* meets the same first solution, and the seeds before
    s* still find nothing.
    """
    t = _Tables(inst, coeffs)
    n = inst.max_support
    # per side: the pool indices added, the (coefficient, element) terms of
    # a solution (gathered as the DFS unwinds), its tables, and the floor of
    # the current seed
    sides = [[[], [], t.cover[side], t.images[side], t.steps[side], 0] for side in (0, 1)]
    # movers with each side number replaced by that side's entry
    plan = [[sides[side] for side in allowed] for allowed in movers]
    nodes = 0

    def dfs(D):
        nonlocal nodes
        nodes += 1
        if not D:
            return True
        kappa = min(D)
        for members, terms, cover, images, steps, floor in plan[D[kappa] > 0]:
            if len(members) == n:
                continue
            for gi in cover.get(kappa, ()):
                if gi < floor or distinct and gi in members:
                    continue
                j1, j2 = images[gi]
                members.append(gi)
                for lam, d1, d2 in steps:
                    E = D.copy()
                    _shift(E, j1, d1, j2, d2)
                    if dfs(E):
                        terms.append((lam, t.pool[gi]))
                        return True
                members.pop()
        return False

    hit = False
    for side, i, floors in seeds:
        sides[0][-1], sides[1][-1] = floors
        members, terms, _, images, steps, _ = sides[side]
        j1, j2 = images[i]
        members.append(i)
        for lam, d1, d2 in steps:
            if lam > 0:
                D: dict = {}
                _shift(D, j1, d1, j2, d2)
                hit = dfs(D)
                if hit:
                    terms.append((lam, t.pool[i]))
                    break
        members.pop()
        if hit:
            break
    # dfs holds itself through its closure; unbinding it frees the tables on
    # return instead of at the next cyclic garbage collection.
    del dfs
    if not hit:
        return Exhausted(inst.bounds(), len(t.pool), nodes)
    return sides[0][1], sides[1][1]


def search_common_multiple(inst: OreInstance, jobs: int = 1):
    """First solution (U, V) of (1+a)*U = (1+b)*V in Z+[M], multisets over
    the pool with |U| = |V| <= max_support, or an Exhausted report (see
    ``_search``).  The search runs serially; ``jobs`` is accepted for
    compatibility and changes nothing."""
    if inst.signed:
        raise ModeMismatchError("use search_signed for signed instances")
    seeds = ((0, s, (s, 0)) for s in range(len(inst.pool)))
    # only the short side can cover kappa: u where D[kappa] < 0, v where > 0
    found = _search(inst, (1,), seeds, False, ((0,), (1,)))
    if isinstance(found, Exhausted):
        return found
    U, V = ([g for _, g in terms] for terms in found)
    return verify_solution(inst.backend, inst.a, inst.b, U, V)


def expand_signed(backend, a, b, signs, u, v) -> SignedSolution:
    """Both sides of (1 + sa*a) u = (1 + sb*b) v in Z[M].

    ``u`` and ``v`` are (coefficient, element) terms; they come back
    sorted by element, and ``verified`` says whether the two sides agree.
    """

    def side(terms, factor, sign):
        terms = tuple(sorted(terms, key=lambda term: term[1]))
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
    """First solution of (1 +/- a) u = (1 +/- b) v in Z[M], or an Exhausted
    report (see ``_search``).  Supports live in the pool, coefficients in
    [-c, c] without zero, at most ``max_support`` support elements per
    side, u = v = 0 excluded.  The search runs serially; ``jobs`` is
    accepted for compatibility and changes nothing."""
    if not inst.signed or not inst.coeff_bound:
        raise ModeMismatchError("signed search needs signed mode and a coefficient bound")
    size = len(inst.pool)
    seeds = ((side, s, (size, s) if side else (s, 0)) for side in (0, 1) for s in range(size))
    # either side can cover kappa, whatever the sign of D[kappa]
    found = _search(inst, _coeff_order(inst.coeff_bound), seeds, True, ((0, 1), (0, 1)))
    if isinstance(found, Exhausted):
        return found
    sol = expand_signed(inst.backend, inst.a, inst.b, inst.signs, *found)
    if not sol.verified:
        raise VerificationError("signed solution failed verification")
    return sol


# ---------------------------------------------------------------------------
# relation graph
# ---------------------------------------------------------------------------

VertexId = tuple  # (element, occurrence id)


@dataclass(frozen=True)
class GraphEdge:
    source: VertexId
    target: VertexId
    label: str


@dataclass
class RelationGraph:
    vertices: tuple
    a_edges: tuple
    b_edges: tuple


def _assign_edges(backend, factor, members, label) -> list:
    """One labelled edge factor*g -> g per member, with occurrence ids
    handed out in sorted-stable order."""
    counter: dict = {}
    edges = []
    for src, tgt in sorted((backend.multiply(factor, g), g) for g in members):
        src_occ = counter.get(src, 0)
        counter[src] = src_occ + 1
        tgt_occ = counter.get(tgt, 0)
        counter[tgt] = tgt_occ + 1
        edges.append(GraphEdge((src, src_occ), (tgt, tgt_occ), label))
    return edges


def build_relation_graph(backend, a, b, sol: Solution) -> RelationGraph:
    """Vertex multiset of both expanded sides plus one a- and one b-edge
    incidence per vertex."""
    if not sol.verified:
        raise VerificationError("refusing to build a graph from an unverified solution")
    left = sr_as_multiset(sol.lhs)
    if left != sr_as_multiset(sol.rhs):
        raise VerificationError("vertex multiset mismatch between the two sides")
    a_edges = _assign_edges(backend, a, sol.U, "a")
    b_edges = _assign_edges(backend, b, sol.V, "b")
    vertices = tuple((x, i) for x, run in groupby(left) for i, _ in enumerate(run))
    incident_a = [e.source for e in a_edges] + [e.target for e in a_edges]
    incident_b = [e.source for e in b_edges] + [e.target for e in b_edges]
    if sorted(incident_a) != list(vertices) or sorted(incident_b) != list(vertices):
        raise VerificationError("per-label incidence invariant violated")
    return RelationGraph(vertices, tuple(a_edges), tuple(b_edges))


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
    env = backend.envelope()
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
    # v is now the inverse of the word's value
    if not env.is_identity(v):
        raise NotARelationError("word does not evaluate to the identity")

    if backend.is_group:
        t = backend.inverse(min(vertices))
        U = [backend.multiply(x, t) for x in u_targets]
        V = [backend.multiply(x, t) for x in v_targets]
        return verify_solution(backend, a, b, U, V)

    if pool is None:
        raise ValueError("monoid backends need a candidate pool for embedding")
    by_envelope = {backend.embed_to_envelope(p): p for p in pool}
    for t_elem in sorted(pool):
        ft = backend.embed_to_envelope(t_elem)
        U = []
        V = []
        ok = True
        for bucket, targets in ((U, u_targets), (V, v_targets)):
            for x in targets:
                p = by_envelope.get(env.multiply(x, ft))
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
