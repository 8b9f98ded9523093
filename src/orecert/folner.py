"""Exact translation-invariance ratios for finite sets, and a greedy grower.

For a finite set E and generator a the report carries |aE & E| and
|aE ^ E| together with the exact ratios over |E|.  Left translation is
injective on cancellative backends, so |aE| = |E| is asserted and
|aE ^ E| = 2(|E| - |aE & E|).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import OrecertError, VerificationError
from .groups.base import Backend


@dataclass(frozen=True)
class GeneratorStats:
    label: str
    intersection: int
    symdiff: int
    intersection_ratio: Fraction
    symdiff_ratio: Fraction


@dataclass(frozen=True)
class FolnerReport:
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
    builds 10**|exponent| first: ``1e-3000000`` would take seconds."""
    if "e" in text or "E" in text:
        raise OrecertError(
            f"{name}: exponent notation is not accepted; give an integer, a decimal or p/q")
    return Fraction(text)


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
    and the count I_g = |S_g & E|, and scores a candidate k outside E from
    them.  Adding k gives S'_g = S_g + {gk} and E' = E + {k}, so

        I'_g = I_g + [k in S_g] + [gk in E] + [gk = k].

    The four sets S_g & E, S_g & {k}, {gk} & E and {gk} & {k} are disjoint:
    k is not in E, and gk is not in S_g (below), so gk can meet neither of
    the first two, and gk = k rules out gk in E.  Left translation by g is
    injective on E' exactly when gk is not in S_g, since g is already
    injective on E; a candidate with gk in S_g raises VerificationError, as
    folner_ratios raises on E'.  Every candidate gives a set of size
    n = |E| + 1, whose worst symmetric-difference ratio is
    2 (n - min_g I'_g) / n, so comparing (n - min_g I'_g, k) as integers
    picks the element, and the tie, that comparing the exact ratios picks.
    Each element of E and of the frontier is multiplied by each generator
    once, the first time it is scored (or, for 1, added).  One exact ratio
    per step decides the target and the best set, and the returned set's
    report is built once, from its counts, and equals folner_ratios of E.
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
    frontier: set = set()  # the elements of the S_g outside E
    products: dict = {}  # k -> (g k for each generator g)

    def counts_with(k) -> list:
        if k not in products:
            products[k] = tuple(backend.multiply(g, k) for _, g in generators)
        out = []
        for label, S, count, gk in zip(labels, shifted, counts, products[k]):
            if gk in S:
                raise VerificationError(f"left translation by {label} not injective")
            out.append(count + (k in S) + (gk in current) + (gk == k))
        return out

    def add(k, new_counts) -> None:
        counts[:] = new_counts
        current[k] = None
        frontier.discard(k)
        for S, gk in zip(shifted, products[k]):
            S.add(gk)
            if gk not in current:
                frontier.add(gk)

    one = backend.identity
    add(one, counts_with(one))
    best_ratio = None  # the best set seen is the first best_size of E
    while True:
        size = len(current)
        ratio = Fraction(2 * (size - min(counts)), size)
        if ratio < epsilon:
            return sorted(current), _report(labels, size, counts), True
        if best_ratio is None or ratio < best_ratio:
            best_ratio, best_size, best_counts = ratio, size, tuple(counts)
        if size >= budget or not frontier:
            return sorted(list(current)[:best_size]), _report(labels, best_size, best_counts), False
        pick = None
        for k in sorted(frontier):
            trial = counts_with(k)
            score = size + 1 - min(trial)
            if pick is None or score < pick[0]:
                pick = (score, k, trial)
        _, k, trial = pick
        add(k, trial)
