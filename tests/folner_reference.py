"""The quadratic greedy Folner grower, kept as the oracle for differential
tests.

This is the grower ``orecert.folner`` ran before it scored candidates
incrementally: every frontier candidate is scored by a full
``folner_ratios`` call on a fresh copy of E.  It is slow and obviously
right; the incremental grower must return the same set, report and
success flag.
"""

from __future__ import annotations

from fractions import Fraction

from orecert.folner import folner_ratios
from orecert.groups.base import Backend


def greedy_folner_search(backend: Backend, generators, epsilon, budget: int):
    """Grow E from {1}, each step adding the left-translate frontier element
    that minimises the worst symmetric-difference ratio (ties to the smaller
    canonical key).  Returns (E, report, success); on failure the best set
    seen is returned with its report.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    epsilon = Fraction(epsilon)
    current = {backend.canonical_key(backend.identity): backend.identity}
    best = dict(current)
    best_report = folner_ratios(backend, current.values(), generators)
    while True:
        report = folner_ratios(backend, current.values(), generators)
        if report.max_symdiff_ratio < best_report.max_symdiff_ratio:
            best = dict(current)
            best_report = report
        if report.max_symdiff_ratio < epsilon:
            return _sorted_set(backend, current), report, True
        if len(current) >= budget:
            return _sorted_set(backend, best), best_report, False
        frontier: dict = {}
        for _, gen in generators:
            for e in current.values():
                y = backend.multiply(gen, e)
                k = backend.canonical_key(y)
                if k not in current:
                    frontier[k] = y
        if not frontier:
            return _sorted_set(backend, best), best_report, False
        scored = []
        for k in sorted(frontier):
            trial = dict(current)
            trial[k] = frontier[k]
            trial_report = folner_ratios(backend, trial.values(), generators)
            scored.append((trial_report.max_symdiff_ratio, k))
        _, pick = min(scored)
        current[pick] = frontier[pick]


def _sorted_set(backend, keyed: dict) -> list:
    return [keyed[k] for k in sorted(keyed)]
