"""Unpruned serial Ore searches, and the expansion of a solution's two
sides, the pool and the relation check built from plain ``multiply``
calls, kept as the oracle for differential tests.

These are the searches ``orecert.ore`` ran before canonical seeding: every
seed (and, in the signed search, both signs of every seed coefficient)
starts a full DFS, and canonical keys are compared as they are.  They are
slow and obviously complete; the pruned searches must return the same
first solution and never expand more nodes.
"""

from __future__ import annotations

from orecert.errors import ModeMismatchError, VerificationError
from orecert.ore import Exhausted, RelationCheck, SignedSolution, Solution


class _Tables:
    def __init__(self, inst):
        backend = inst.backend
        key = backend.canonical_key
        self.pool = list(inst.pool)
        self.images_a = []
        self.images_b = []
        cover_u: dict = {}
        cover_v: dict = {}
        for i, g in enumerate(self.pool):
            kg = key(g)
            kag = key(backend.multiply(inst.a, g))
            kbg = key(backend.multiply(inst.b, g))
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


def _expand(backend, factor, sign, terms) -> dict:
    """(1 + sign*factor) times the sum of lam*g over the (lam, g) terms,
    as a dict of nonzero coefficients: one ``multiply`` per term, and no
    call into ``orecert.semiring``."""
    out: dict = {}
    for lam, g in terms:
        _bump(out, g, lam)
        _bump(out, backend.multiply(factor, g), sign * lam)
    return out


def reference_common_multiple(inst):
    if inst.signed:
        raise ModeMismatchError("use reference_signed for signed instances")
    t = _Tables(inst)
    n = inst.max_support
    nodes = [0]

    def from_seed(seed: int):
        D: dict = {}
        k1, k2 = t.images_a[seed]
        _bump(D, k1, 1)
        _bump(D, k2, 1)
        U = [seed]
        V: list[int] = []

        def dfs():
            nodes[0] += 1
            if not D:
                return list(U), list(V)
            kappa = min(D)
            if D[kappa] < 0:
                if len(U) == n:
                    return None
                for gi in t.cover_u.get(kappa, ()):
                    j1, j2 = t.images_a[gi]
                    _bump(D, j1, 1)
                    _bump(D, j2, 1)
                    U.append(gi)
                    hit = dfs()
                    U.pop()
                    _bump(D, j1, -1)
                    _bump(D, j2, -1)
                    if hit:
                        return hit
            else:
                if len(V) == n:
                    return None
                for hi in t.cover_v.get(kappa, ()):
                    j1, j2 = t.images_b[hi]
                    _bump(D, j1, -1)
                    _bump(D, j2, -1)
                    V.append(hi)
                    hit = dfs()
                    V.pop()
                    _bump(D, j1, 1)
                    _bump(D, j2, 1)
                    if hit:
                        return hit
            return None

        return dfs()

    hit = None
    for seed in range(len(t.pool)):
        hit = from_seed(seed)
        if hit:
            break
    if hit is None:
        return Exhausted(inst.bounds(), len(t.pool), nodes[0])
    U = sorted(t.pool[i] for i in hit[0])
    V = sorted(t.pool[i] for i in hit[1])
    lhs = _expand(inst.backend, inst.a, 1, [(1, g) for g in U])
    rhs = _expand(inst.backend, inst.b, 1, [(1, g) for g in V])
    if lhs != rhs:
        raise VerificationError("solution failed verification")
    return Solution(tuple(U), tuple(V), lhs, rhs, True)


def _coeff_order(bound: int):
    out = []
    for m in range(1, bound + 1):
        out.append(m)
        out.append(-m)
    return out


def reference_signed(inst):
    if not inst.signed or not inst.coeff_bound:
        raise ModeMismatchError("signed search needs signed mode and a coefficient bound")
    sa, sb = inst.signs
    c = inst.coeff_bound
    n = inst.max_support
    t = _Tables(inst)
    coeffs = _coeff_order(c)
    nodes = [0]

    def apply_u(D, gi, lam):
        kg, kag = t.images_a[gi]
        _bump(D, kg, lam)
        _bump(D, kag, sa * lam)

    def apply_v(D, hi, lam):
        kh, kbh = t.images_b[hi]
        _bump(D, kh, -lam)
        _bump(D, kbh, -sb * lam)

    def from_seed(seed):
        side, idx, lam = seed
        D: dict = {}
        u: dict[int, int] = {}
        v: dict[int, int] = {}
        if side == 0:
            apply_u(D, idx, lam)
            u[idx] = lam
        else:
            apply_v(D, idx, lam)
            v[idx] = lam

        def dfs():
            nodes[0] += 1
            if not D:
                return dict(u), dict(v)
            kappa = min(D)
            for gi in t.cover_u.get(kappa, ()):
                if gi in u or len(u) == n:
                    continue
                for lam2 in coeffs:
                    apply_u(D, gi, lam2)
                    u[gi] = lam2
                    hit = dfs()
                    del u[gi]
                    apply_u(D, gi, -lam2)
                    if hit:
                        return hit
            for hi in t.cover_v.get(kappa, ()):
                if hi in v or len(v) == n:
                    continue
                for lam2 in coeffs:
                    apply_v(D, hi, lam2)
                    v[hi] = lam2
                    hit = dfs()
                    del v[hi]
                    apply_v(D, hi, -lam2)
                    if hit:
                        return hit
            return None

        return dfs()

    seeds = [
        (side, idx, lam)
        for side in (0, 1)
        for idx in range(len(t.pool))
        for lam in coeffs
    ]
    hit = None
    for seed in seeds:
        hit = from_seed(seed)
        if hit:
            break
    if hit is None:
        return Exhausted(inst.bounds(), len(t.pool), nodes[0])
    backend = inst.backend
    u_terms = sorted(
        ((backend.canonical_key(t.pool[i]), t.pool[i], lam) for i, lam in hit[0].items())
    )
    v_terms = sorted(
        ((backend.canonical_key(t.pool[i]), t.pool[i], lam) for i, lam in hit[1].items())
    )
    lhs = _expand(backend, inst.a, sa, [(lam, g) for _, g, lam in u_terms])
    rhs = _expand(backend, inst.b, sb, [(lam, g) for _, g, lam in v_terms])
    if lhs != rhs:
        raise VerificationError("signed solution failed verification")
    return SignedSolution(
        tuple((lam, g) for _, g, lam in u_terms),
        tuple((lam, g) for _, g, lam in v_terms),
        lhs, rhs, True,
    )


def reference_pool(backend, length, max_index=None):
    """The ball of radius ``length``, sorted: a breadth-first search that
    multiplies every element of each sphere by every letter (and, on a
    group, every inverse letter), with no skip."""
    letters = [g for _, g in backend.generators(max_index)]
    if backend.is_group:
        letters += [backend.inverse(g) for g in letters]
    seen = {backend.identity}
    frontier = [backend.identity]
    for _ in range(length):
        frontier = [y for y in {backend.multiply(x, g) for x in frontier for g in letters}
                    if y not in seen]
        seen.update(frontier)
    return sorted(seen)


def reference_relation_length(backend, a, b, n, budget):
    """``ore.alternating_relation_length`` with every level built by
    ``multiply``, and the same multiply count and budget rule."""
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
            A = {env.multiply(v, s) for v in A for s in letters[(k - 1) % 2]}
            B = {env.multiply(v, s) for v in B for s in letters[k % 2]}
        if not A.isdisjoint(B):
            return RelationCheck(2 * k, True, multiplies)
    return RelationCheck(None, True, multiplies)
