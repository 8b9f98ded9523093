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

The converse bounds the unsigned search from outside the pool: a solution
of mass m spells alternating relations of length at most 2m, so when
``alternating_relation_length`` finds no trivial alternating word of
length <= 2n, no pool holds a solution of mass <= n.  ``solve``, the entry
point of the CLI and of ``verify``, runs that meet-in-the-middle check
before an unsigned DFS and reports the exhaustion without building the
search tables when it proves this.  That report needs only the pool's
size, and an instance enumerates its pool only when something reads the
elements.  On the positive monoid the size is counted: an element is a
forest diagram, it has a word over x0 .. x_K exactly when every caret's
root index plus its right steps from that root is at most K, and the
balls are counted by the generating functions of such trees
(``thompson.posmon_ball_size``).  So a posmon exhaustion that the check
proves builds no pool at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

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
    """Bounds of a search for (1 + sa*a) u = (1 + sb*b) v.  The coefficient
    bound c alone picks the ring: Z[M] with c, else Z+[M] with signs ++.

    The pool, the ball of radius L over the generators, is enumerated when
    something first reads its elements; ``pool_size`` is counted without it
    where the backend can count (``Backend.ball_size``)."""

    backend: Backend
    a: object
    b: object
    max_support: int
    pool_length: int
    pool_max_index: int | None = None
    coeff_bound: int | None = None
    signs: tuple[int, int] = (1, 1)

    @property
    def signed(self) -> bool:
        return self.coeff_bound is not None

    @cached_property
    def pool(self) -> tuple:
        return tuple(enumerate_pool(self.backend, self.pool_length, self.pool_max_index))

    @cached_property
    def pool_size(self) -> int:
        size = self.backend.ball_size(self.pool_length, self.pool_max_index)
        return len(self.pool) if size is None else size

    def bounds(self) -> dict:
        return {
            "n": self.max_support,
            "L": self.pool_length,
            "K": self.pool_max_index,
            "c": self.coeff_bound,
        }


def _check_pool_bounds(backend: Backend, length: int, max_index: int | None) -> None:
    if length < 0:
        raise ValueError("length must be nonnegative")
    if backend.alphabet.kind == "indexed" and max_index is not None and max_index < 0:
        raise ValueError("at least one generator is needed")


def enumerate_pool(backend: Backend, length: int, max_index: int | None = None) -> list:
    """Ball of radius ``length`` over the generating set, sorted.

    Group backends include inverse letters.  The identity is always present.
    Where the backend counts its balls, the count must match the ball.
    """
    _check_pool_bounds(backend, length, max_index)
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
    counted = backend.ball_size(length, max_index)
    if counted is not None and counted != len(seen):
        raise VerificationError(
            f"the ball of L = {length}, K = {max_index} has {len(seen)} elements, "
            f"its count says {counted}")
    return sorted(seen)


def make_instance(backend, a, b, max_support, pool_length, pool_max_index=None,
                  coeff_bound=None, signs=(1, 1)) -> OreInstance:
    """The instance over the ball of radius ``pool_length``, in Z[M] when
    ``coeff_bound`` is set.  Signs are +/-1, and (1, 1) unless it is set.
    The bounds are checked here; the pool is left to its first reader."""
    if max_support < 0:
        raise ValueError("max support n must be nonnegative")
    if coeff_bound is not None and coeff_bound < 1:
        raise ValueError("coefficient bound c must be at least 1")
    if any(s not in (1, -1) for s in signs):
        raise ValueError(f"signs must be +1 or -1, got {signs!r}")
    if coeff_bound is None and tuple(signs) != (1, 1):
        raise ValueError("signs other than ++ need a coefficient bound c")
    _check_pool_bounds(backend, pool_length, pool_max_index)
    return OreInstance(
        backend, a, b, max_support,
        pool_length=pool_length, pool_max_index=pool_max_index,
        coeff_bound=coeff_bound, signs=signs,
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


class _Tables:
    """The graph Gamma_E of the pool E, built once per search; it holds no
    ring data.  Its vertices are E, aE and bE, each element replaced by its
    rank in sorted order, so the DFS compares and hashes small ints and
    ``min(D)`` picks the same element as on the elements themselves.  Side
    0 is u, side 1 is v: ``images[side][i]`` holds the ends of the edge of
    g = pool[i], the ranks of g and a*g (side 0) or b*g (side 1), and
    ``cover[side][k]`` lists, in pool order, the i whose edge meets k.
    """

    def __init__(self, inst: OreInstance):
        backend = inst.backend
        triples = [(g, backend.multiply(inst.a, g), backend.multiply(inst.b, g)) for g in inst.pool]
        rank = {x: r for r, x in enumerate(sorted({x for xs in triples for x in xs}))}
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


def _search(inst: OreInstance):
    """First solution in seed-then-depth-first order, as the (coefficient,
    element) terms of u and v, or an Exhausted report.

    The ring shapes the search here alone.  The DFS backtracks on the
    deficit D = (1 + sa*a) u - (1 + sb*b) v: lam*g in u adds lam at g and
    sa*lam at a*g, lam*h in v subtracts lam at h and sb*lam at b*h, with
    lam = 1 in Z+[M] and lam = 1, -1, .., c, -c in Z[M].  An element still
    to be added must cover the least key kappa of D, so the DFS adds only
    elements whose images include kappa, on the sides that
    ``movers[D[kappa] > 0]`` lists.  In Z+[M] that is the short side alone
    (u where D[kappa] < 0, v where it is > 0), and by left cancellativity
    at most two pool elements per side cover a key, so the branching factor
    is tiny.  In Z[M] either side may cover kappa.  So a DFS reaches every
    solution that extends its partial (u, v).  Each side holds at most
    ``max_support`` elements, and in Z[M] an element is added to a side at
    most once (its supports are sets, those of Z+[M] multisets).
    Candidates are tried in pool order and, per element, in lam order, so
    the result is deterministic.

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
    n, size, distinct = inst.max_support, len(inst.pool), inst.signed
    if distinct:
        coeffs = [s * m for m in range(1, inst.coeff_bound + 1) for s in (1, -1)]
        seeds = ((side, s, (size, s) if side else (s, 0)) for side in (0, 1) for s in range(size))
        movers = ((0, 1), (0, 1))  # either side can cover kappa
    else:
        coeffs = [1]
        seeds = ((0, s, (s, 0)) for s in range(size))
        movers = ((0,), (1,))  # only the short side: u where D[kappa] < 0
    sa, sb = inst.signs
    steps = ([(lam, lam, sa * lam) for lam in coeffs], [(lam, -lam, -sb * lam) for lam in coeffs])
    t = _Tables(inst)
    # per side: the pool indices added, the (coefficient, element) terms of
    # a solution (gathered as the DFS unwinds), its tables, its (lam, d1, d2)
    # steps, and the floor of the current seed
    sides = [[[], [], t.cover[side], t.images[side], steps[side], 0] for side in (0, 1)]
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
                        terms.append((lam, inst.pool[gi]))
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
                    terms.append((lam, inst.pool[i]))
                    break
        members.pop()
        if hit:
            break
    # dfs holds itself through its closure; unbinding it frees the tables on
    # return instead of at the next cyclic garbage collection.
    del dfs
    if not hit:
        return Exhausted(inst.bounds(), inst.pool_size, nodes)
    return sides[0][1], sides[1][1]


def search_common_multiple(inst: OreInstance, jobs: int = 1):
    """First solution (U, V) of (1+a)*U = (1+b)*V in Z+[M], multisets over
    the pool with |U| = |V| <= max_support, or an Exhausted report (see
    ``_search``).  The search runs serially; ``jobs`` is accepted for
    compatibility and changes nothing."""
    if inst.signed:
        raise ModeMismatchError("use search_signed for signed instances")
    found = _search(inst)
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
    if not inst.signed:
        raise ModeMismatchError("signed search needs a coefficient bound")
    found = _search(inst)
    if isinstance(found, Exhausted):
        return found
    sol = expand_signed(inst.backend, inst.a, inst.b, inst.signs, *found)
    if not sol.verified:
        raise VerificationError("signed solution failed verification")
    return sol


@dataclass(frozen=True)
class RelationCheck:
    """Outcome of ``alternating_relation_length``: ``length`` is the least
    length of a trivial alternating word, or None; ``decided`` is False when
    the budget stopped the check short of length 2n; ``multiplies`` counts
    the envelope multiplies it made."""

    length: int | None
    decided: bool
    multiplies: int


def alternating_relation_length(backend, a, b, n: int, budget: int) -> RelationCheck:
    """Least length 2k <= 2n of a trivial alternating word over a^+-1,
    b^+-1 in the backend's envelope, by meet in the middle.

    Level k holds A_k and B_k, the values of the alternating words of
    length k that start with a and with b, over all sign choices; each
    level is the one before multiplied on the right by both signs of the
    next letter.  An alternating word of length 2k that starts with a is
    u w with u in A_k, and w^-1 starts with a letter of w's last label,
    which is b, so w^-1 is a word of B_k; conversely u v^-1 alternates for
    u in A_k and v in B_k.  So such a word is trivial exactly when A_k and
    B_k meet.  A trivial word that starts with b rotates, by one letter,
    into a trivial word of the same length that starts with a.  Level k
    costs 2 (|A_(k-1)| + |B_(k-1)|) <= 2^(k+1) multiplies; the check stops
    undecided as soon as the next level would take the count past
    ``budget``.

    Soundness of "none up to 2n" for the unsigned search: a solution U, V
    of mass m >= 1 has a relation graph (``build_relation_graph``) with m
    a-edges and m b-edges, 2m edges in all, and every vertex carries one
    a- and one b-incidence.  So the graph is a disjoint union of cycles that
    alternate a- and b-edges, each of even length at most 2m.
    ``extract_cycles`` starts each cycle at an a-incidence, and ``_walk``
    proves each cycle word trivial in the envelope.  Length 2 is the case
    a = b^-+1, met at level 1.  So a solution of mass m <= n gives a
    trivial alternating word of length <= 2n that starts with a, and when
    no A_k meets B_k for k <= n, no pool holds a solution of mass <= n.
    """
    env = backend.envelope()
    x, y = backend.embed_to_envelope(a), backend.embed_to_envelope(b)
    letters = ((x, env.inverse(x)), (y, env.inverse(y)))
    A, B = set(letters[0]), set(letters[1])
    multiplies = 0
    for k in range(1, n + 1):
        if k > 1:
            cost = 2 * (len(A) + len(B))
            if multiplies + cost > budget:
                return RelationCheck(None, False, multiplies)
            multiplies += cost
            # letter k of a word of A_k is an a-letter when k is odd
            A = {env.multiply(v, s) for v in A for s in letters[(k - 1) % 2]}
            B = {env.multiply(v, s) for v in B for s in letters[k % 2]}
        if not A.isdisjoint(B):
            return RelationCheck(2 * k, True, multiplies)
    return RelationCheck(None, True, multiplies)


def solve(inst: OreInstance):
    """The search outcome of an instance, as ``search_signed`` or
    ``search_common_multiple`` gives it.

    An unsigned instance first runs ``alternating_relation_length`` with a
    budget of 2 |pool| multiplies, the cost of the search tables, so the
    check never costs more than the work it can save.  When it proves that
    no alternating word of length <= 2n is trivial, no solution of mass <=
    n exists and the outcome is an Exhausted report with 0 nodes; otherwise
    the DFS runs.  Signed instances always run the DFS: Z[M] solutions
    spell relations of any even length.
    """
    if inst.signed:
        return search_signed(inst)
    check = alternating_relation_length(
        inst.backend, inst.a, inst.b, inst.max_support, 2 * inst.pool_size)
    if check.decided and check.length is None:
        return Exhausted(inst.bounds(), inst.pool_size, 0)
    return search_common_multiple(inst)


# ---------------------------------------------------------------------------
# relation graph
# ---------------------------------------------------------------------------

VertexId = tuple  # (element, occurrence id)


@dataclass(frozen=True)
class GraphEdge:
    source: VertexId
    target: VertexId


@dataclass
class RelationGraph:
    vertices: tuple
    a_edges: tuple
    b_edges: tuple


def _assign_edges(backend, factor, members) -> list:
    """One edge factor*g -> g per member, with occurrence ids
    handed out in sorted-stable order."""
    counter: dict = {}
    edges = []
    for src, tgt in sorted((backend.multiply(factor, g), g) for g in members):
        src_occ = counter.get(src, 0)
        counter[src] = src_occ + 1
        tgt_occ = counter.get(tgt, 0)
        counter[tgt] = tgt_occ + 1
        edges.append(GraphEdge((src, src_occ), (tgt, tgt_occ)))
    return edges


def build_relation_graph(backend, a, b, sol: Solution) -> RelationGraph:
    """Vertex multiset of both expanded sides plus one a- and one b-edge
    incidence per vertex."""
    if not sol.verified:
        raise VerificationError("refusing to build a graph from an unverified solution")
    left = sr_as_multiset(sol.lhs)
    if left != sr_as_multiset(sol.rhs):
        raise VerificationError("vertex multiset mismatch between the two sides")
    a_edges = _assign_edges(backend, a, sol.U)
    b_edges = _assign_edges(backend, b, sol.V)
    vertices = tuple((x, i) for x, run in groupby(left) for i, _ in enumerate(run))
    for edges in (a_edges, b_edges):
        if sorted([e.source for e in edges] + [e.target for e in edges]) != list(vertices):
            raise VerificationError("per-label incidence invariant violated")
    return RelationGraph(vertices, tuple(a_edges), tuple(b_edges))


@dataclass
class AlternatingRelation:
    word: Word
    verified: bool


def _walk(backend, a, b, word: Word):
    """Walk a label word over {a, b} in the backend's envelope.

    The walk starts at the identity and steps v -> label^-exponent * v, so
    each letter realises one graph edge label*t -> t: its target t is the
    vertex the step enters when the exponent is +1 and the one it leaves
    when it is -1.  Returns the envelope, the vertices visited and the
    targets of the a-edges and of the b-edges, in word order.  The last
    vertex is the inverse of the word's value, so it is the identity
    exactly when the word is a relation.
    """
    env = backend.envelope()
    letters = {"a": backend.embed_to_envelope(a), "b": backend.embed_to_envelope(b)}
    steps = {name: (env.inverse(x), x) for name, x in letters.items()}  # by exponent < 0
    targets = {"a": [], "b": []}
    v = env.identity
    vertices = [v]
    for gen, exp in word:
        nxt = env.multiply(steps[gen.name][exp < 0], v)
        targets[gen.name].append(nxt if exp > 0 else v)
        v = nxt
        vertices.append(v)
    return env, vertices, targets["a"], targets["b"]


def extract_cycles(graph: RelationGraph, backend, a, b) -> list[AlternatingRelation]:
    """Decompose the graph into cycles and read off their label words.

    Traversal starts at the minimal unvisited vertex with its a-incidence;
    moving along an edge's direction reads the label, moving against it the
    inverse.  Every cycle word must evaluate to the identity.
    """
    # per label: vertex -> (other end of its edge, exponent read leaving it)
    tables = ({}, {})
    for table, edges in zip(tables, (graph.a_edges, graph.b_edges)):
        for edge in edges:
            table[edge.source] = (edge.target, 1)
            table[edge.target] = (edge.source, -1)
    labels = (Generator("a"), Generator("b"))
    visited = set()
    relations = []
    for start in graph.vertices:
        if start in visited:
            continue
        letters = []
        current = start
        side = 0
        while True:
            visited.add(current)
            current, exp = tables[side][current]
            letters.append((labels[side], exp))
            side = 1 - side
            if current == start and not side:
                break
        word = tuple(letters)
        env, vertices, _, _ = _walk(backend, a, b, word)
        if not env.is_identity(vertices[-1]):
            raise VerificationError("cycle label does not evaluate to the identity")
        relations.append(AlternatingRelation(word, True))
    return relations


def relation_to_solution(backend, a, b, word: Word, pool=None) -> Solution:
    """Rebuild a solution from an alternating relation by walking its cycle
    (see ``_walk``).

    On group backends the vertex set is right-translated so its minimal
    vertex becomes the identity.  On monoid backends the walk happens in
    the group envelope and every right translation by a pool element, in
    sorted order, is attempted until all edge targets land in the pool;
    failing that is a normal negative outcome.
    """
    n = len(word)
    if n < 2 or n % 2:
        raise NotARelationError("label word must have positive even length")
    names = [g.name for g, _ in word]
    if set(names) - {"a", "b"} or any(names[i] == names[i + 1] for i in range(n - 1)):
        raise NotARelationError("label word must strictly alternate between a and b")
    env, vertices, u_targets, v_targets = _walk(backend, a, b, word)
    if not env.is_identity(vertices[-1]):
        raise NotARelationError("word does not evaluate to the identity")

    if backend.is_group:
        t = backend.inverse(min(vertices))
        U = [backend.multiply(x, t) for x in u_targets]
        V = [backend.multiply(x, t) for x in v_targets]
        return verify_solution(backend, a, b, U, V)

    if pool is None:
        raise ValueError("monoid backends need a candidate pool for embedding")
    embedded = [(backend.embed_to_envelope(p), p) for p in pool]
    by_envelope = dict(embedded)
    targets = u_targets + v_targets
    for ft, _ in sorted(embedded, key=itemgetter(1)):
        found = []
        for x in targets:
            p = by_envelope.get(env.multiply(x, ft))
            if p is None:
                break
            found.append(p)
        else:
            k = len(u_targets)
            return verify_solution(backend, a, b, found[:k], found[k:])
    raise NotEmbeddableError(
        "vertices not embeddable in the monoid within pool translations"
    )
