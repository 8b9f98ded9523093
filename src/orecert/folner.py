"""Exact translation-invariance ratios for finite sets, and a greedy grower.

For a finite set E and generator a the report carries |aE & E| and
|aE ^ E| together with the exact ratios over |E|.  Left translation is
injective on cancellative backends, so |aE| = |E| is asserted and
|aE ^ E| = 2(|E| - |aE & E|).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from operator import add
from typing import NamedTuple

from .errors import OrecertError, VerificationError
from .groups.base import Backend


class GeneratorStats(NamedTuple):
    label: str
    intersection: int
    symdiff: int
    intersection_ratio: Fraction
    symdiff_ratio: Fraction


class FolnerReport(NamedTuple):
    size: int
    per_generator: tuple[GeneratorStats, ...]
    min_intersection_ratio: Fraction
    max_symdiff_ratio: Fraction


def _report(labels, size: int, intersections) -> FolnerReport:
    """The report of a set of ``size`` elements whose translate by the
    generator labelled ``labels[i]`` meets it in ``intersections[i]``
    elements."""
    stats = tuple(
        GeneratorStats(
            label, inter, 2 * (size - inter),
            Fraction(inter, size), Fraction(2 * (size - inter), size),
        )
        for label, inter in zip(labels, intersections)
    )
    return FolnerReport(
        size,
        stats,
        min(s.intersection_ratio for s in stats),
        max(s.symdiff_ratio for s in stats),
    )


def folner_ratios(backend: Backend, E, generators) -> FolnerReport:
    """Exact counts for every generator; ``generators`` is a list of
    (label, element) pairs and E a nonempty iterable of elements."""
    elements = set(E)
    if not elements:
        raise ValueError("E must be nonempty")
    if not generators:
        raise ValueError("at least one generator is needed")
    counts = []
    for label, gen in generators:
        shifted = {backend.multiply(gen, e) for e in elements}
        if len(shifted) != len(elements):
            raise VerificationError(f"left translation by {label} not injective")
        counts.append(len(shifted & elements))
    return _report([label for label, _ in generators], len(elements), counts)


def parse_ratio(name: str, text: str) -> Fraction:
    """``text``, an integer, a decimal or p/q, as an exact ratio.  Exponent
    notation is refused before ``Fraction`` reads it, since ``Fraction``
    builds 10**|exponent| first: ``1e-3000000`` would take seconds.  So are
    digits outside ASCII and ``_``, which ``Fraction`` would also read, as
    ``words.parse_int`` refuses them in integers.  Every refusal names the
    option: ``Fraction``'s own messages (``Fraction(1, 0)``) do not."""
    if "e" in text or "E" in text:
        raise OrecertError(
            f"{name}: exponent notation is not accepted; give an integer, a decimal or p/q")
    if not text.isascii() or "_" in text:
        raise OrecertError(f"{name}: not a ratio in ASCII digits: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise OrecertError(f"{name}: not a ratio: {text!r}") from None


def check_delta(report: FolnerReport, delta) -> bool:
    """Strict intersection criterion: |aE & E| > delta |E| for every a."""
    return report.min_intersection_ratio > Fraction(delta)


def check_epsilon(report: FolnerReport, epsilon) -> bool:
    """Strict near-invariance criterion: |aE ^ E| < epsilon |E| for every a."""
    return report.max_symdiff_ratio < Fraction(epsilon)


def greedy_folner_search(backend: Backend, generators, epsilon, budget: int):
    """Grow E from {1}, each step adding the left-translate frontier element
    that minimises the worst symmetric-difference ratio (ties to the smaller
    element).  Returns (E, report, success); on failure the best set
    seen is returned with its report.

    The grower keeps, for each generator g, the set S_g = {g e : e in E}
    and the count I_g = |S_g & E|.  Adding a frontier element k gives
    S'_g = S_g + {gk} and E' = E + {k}, so I'_g = I_g + d_g(k) with the
    increment

        d_g(k) = [k in S_g] + [gk in E] + [gk = k].

    The four sets S_g & E, S_g & {k}, {gk} & E and {gk} & {k} are disjoint:
    k is not in E, and gk is not in S_g (below), so gk can meet neither of
    the first two, and gk = k rules out gk in E.  Left translation by g is
    injective on E' exactly when gk is not in S_g, since g is already
    injective on E; a step at which some frontier element k has gk in S_g
    raises VerificationError, as folner_ratios raises on E', naming the
    first such generator of the least such k.  Every candidate gives a set
    of size n = |E| + 1, whose worst symmetric-difference ratio is
    2 (n - min_g I'_g) / n, so comparing (n - min_g (I_g + d_g(k)), k) as
    integers picks the element, and the tie, that comparing the exact ratios
    picks.

    The increments are kept, not recomputed: adding k' to E puts gk' in S_g
    and k' in E and changes nothing else, so per generator g only two
    entries change.  The frontier element gk' gains [gk' in S_g], and the
    frontier element c with gc = k' gains [gc in E]; c is looked up in a
    map from gk back to k over the elements multiplied so far.  Any other
    element c with gc = gk' now has gc in S_g, so it is marked colliding.
    The scored frontier is grouped by increment vector, each group a heap,
    so all of a group's elements score alike and its least element is the
    heap's top: the least (score, top) over the groups is the least
    (score, k) over the frontier, the element a rescan of the sorted
    frontier picks.  An element moves to another group only when an entry
    of its vector grows, so it joins each group at most once, and the
    entries it leaves behind are dropped when they reach a heap's top.

    Each element of E and of the frontier is multiplied by each generator
    once, at the first step that scores it (or, for 1, when it is added),
    so a new frontier element is not multiplied when the budget ends the
    run first.  One exact ratio per step, 2m/n with m = n - min_g I_g,
    decides the target and the best set, compared in integers: 2m/n < p/q
    exactly when 2mq < pn, as n, q > 0, and 2m/n < 2m'/n' exactly when
    m n' < m' n.  The returned set's report is built once, from its
    counts, and equals folner_ratios of E.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if not generators:
        raise ValueError("at least one generator is needed")
    epsilon = Fraction(epsilon)
    labels = [label for label, _ in generators]
    current: dict = {}  # E, as keys in order of addition
    shifted = [set() for _ in generators]  # S_g
    counts = [0] * len(generators)  # I_g
    products: dict = {}  # k -> (g k for each generator g), for each element scored
    preimages = [{} for _ in generators]  # g k -> [k], over the elements scored
    increments: dict = {}  # k -> d(k), for each scored frontier element k
    groups: dict = {}  # d -> heap of the scored frontier elements k with d(k) = d
    fresh: dict = {}  # the frontier elements not scored yet, as keys
    colliding: set = set()  # frontier elements k with g k in S_g for some g

    def score(k) -> tuple:
        ks = products[k] = tuple([backend.multiply(g, k) for _, g in generators])
        d = []
        for S, pre, gk in zip(shifted, preimages, ks):
            if gk in S:
                colliding.add(k)
            pre.setdefault(gk, []).append(k)
            d.append((k in S) + (gk in current) + (gk == k))
        return tuple(d)

    def admit(k, d) -> None:
        counts[:] = map(add, counts, d)
        current[k] = None
        bumped = []  # (c, i) once for each 1 that d_i(c) gains
        for i, (S, pre, gk) in enumerate(zip(shifted, preimages, products[k])):
            S.add(gk)
            colliding.update(c for c in pre[gk] if c in increments)
            if gk in increments:
                bumped.append((gk, i))
            elif gk not in current:
                fresh[gk] = None
            bumped += [(c, i) for c in pre.get(k, ()) if c in increments]
        for c, i in bumped:
            d = increments[c]
            increments[c] = d[:i] + (d[i] + 1,) + d[i + 1 :]
        for c in {c for c, _ in bumped}:
            heappush(groups.setdefault(increments[c], []), c)

    one = backend.identity
    admit(one, score(one))
    best_size = 0  # the best set seen is the first best_size of E
    while True:
        size = len(current)
        moved = size - min(counts)  # the ratio is 2 moved / size
        if 2 * moved * epsilon.denominator < epsilon.numerator * size:
            return sorted(current), _report(labels, size, counts), True
        if not best_size or moved * best_size < best_moved * size:
            best_moved, best_size, best_counts = moved, size, tuple(counts)
        if size >= budget or not (fresh or increments):
            return sorted(list(current)[:best_size]), _report(labels, best_size, best_counts), False
        for k in fresh:
            d = increments[k] = score(k)
            heappush(groups.setdefault(d, []), k)
        fresh.clear()
        if colliding:
            k = min(colliding)
            label = next(label for label, S, gk in zip(labels, shifted, products[k]) if gk in S)
            raise VerificationError(f"left translation by {label} not injective")
        pick = None
        for d in list(groups):
            heap = groups[d]
            while heap and increments.get(heap[0]) != d:
                heappop(heap)
            if not heap:
                del groups[d]
                continue
            trial = (size + 1 - min(map(add, counts, d)), heap[0], d)
            if pick is None or trial < pick:
                pick = trial
        _, k, d = pick
        heappop(groups[d])
        del increments[k]
        admit(k, d)
