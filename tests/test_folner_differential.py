"""Differential test: the incremental greedy Folner grower against the
quadratic reference grower in ``tests/folner_reference.py``.

Both growers run at every budget from 1 to 40 and every epsilon below, on
the same memoising backend.  The memo makes the reference affordable: a
backend product or key is computed once per pair of element objects, and
the reference's ``folner_ratios`` call once per tuple of element objects.
Elements are immutable and the memos keep them alive, so object identity
stands for the element and the cached answers are the ones a fresh call
would give.
"""

from __future__ import annotations

from fractions import Fraction

import folner_reference
import pytest

from orecert.folner import folner_ratios, greedy_folner_search
from orecert.groups import make_backend
from orecert.groups.base import Backend

# (backend, pool index, one more generator or None).  With the standard
# generators alone, deleting the term [g k = k] or [g k in E] from the
# grower's count update changes no run below; the extra generators 1 and
# a^-1 make each of them matter.
CASES = [
    ("zm:2", None, None),
    ("zm:2", None, ""),
    ("zm:2", None, "A"),
    ("zm:3", None, None),
    ("mb:2", None, None),
    ("f", None, None),
    ("posmon", None, None),
    ("posmon", 3, None),
    ("f", 3, None),
]
EPSILONS = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(2), Fraction(21, 10)]
BUDGETS = range(1, 41)


class MemoBackend(Backend):
    """``multiply`` and ``canonical_key`` of ``inner``, cached by the
    identity of their operands; the identity element is one object."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.name = inner.name
        self._identity = inner.identity
        self._products: dict = {}
        self._keys: dict = {}

    @property
    def identity(self):
        return self._identity

    def multiply(self, x, y):
        hit = self._products.get((id(x), id(y)))
        if hit is None:
            hit = self._products[id(x), id(y)] = (x, y, self.inner.multiply(x, y))
        return hit[2]

    def canonical_key(self, x):
        hit = self._keys.get(id(x))
        if hit is None:
            hit = self._keys[id(x)] = (x, self.inner.canonical_key(x))
        return hit[1]

    def canonical_str(self, x):
        return self.inner.canonical_str(x)


@pytest.fixture
def memo_ratios(monkeypatch):
    """One memo per test, so per backend and generator list."""
    memo: dict = {}

    def ratios(backend, E, generators):
        E = tuple(E)
        hit = memo.get(tuple(map(id, E)))
        if hit is None:
            hit = memo[tuple(map(id, E))] = (E, folner_ratios(backend, E, generators))
        return hit[1]

    monkeypatch.setattr(folner_reference, "folner_ratios", ratios)


@pytest.mark.parametrize("selector,pool_idx,extra", CASES)
def test_incremental_grower_matches_reference(memo_ratios, selector, pool_idx, extra):
    raw = make_backend(selector)
    backend = MemoBackend(raw)
    generators = raw.generators(pool_idx)
    if extra is not None:
        generators.append((extra or "1", raw.from_text(extra)))
    for epsilon in EPSILONS:
        for budget in BUDGETS:
            E, report, success = greedy_folner_search(backend, generators, epsilon, budget)
            E_ref, report_ref, success_ref = folner_reference.greedy_folner_search(
                backend, generators, epsilon, budget
            )
            where = (selector, pool_idx, extra, epsilon, budget)
            assert [raw.canonical_str(e) for e in E] == [
                raw.canonical_str(e) for e in E_ref
            ], where
            assert report.size == report_ref.size, where
            assert report.per_generator == report_ref.per_generator, where
            assert report.min_intersection_ratio == report_ref.min_intersection_ratio, where
            assert report.max_symdiff_ratio == report_ref.max_symdiff_ratio, where
            assert success is success_ref, where


class Cyclic(Backend):
    """Z/n, the integers 0 .. n-1 under addition mod n."""

    identity = 0

    def __init__(self, n: int):
        self.n = n
        self.name = f"cyclic:{n}"

    def multiply(self, x, y):
        return (x + y) % self.n

    def canonical_key(self, x):
        return x

    def canonical_str(self, x):
        return str(x)


@pytest.mark.parametrize("n,steps", [(7, (1, 3)), (12, (1, 3, 4)), (15, (1, 3))])
def test_incremental_grower_matches_reference_on_a_finite_group(n, steps):
    # In a small group one addition often raises the increments of several
    # candidates, and the frontier runs out: a grower that regrouped only
    # the first candidate an addition touches passes every case above, but
    # not these.
    backend = Cyclic(n)
    generators = [(str(s), s) for s in steps]
    for epsilon in EPSILONS:
        for budget in range(1, n + 2):
            E, report, success = greedy_folner_search(backend, generators, epsilon, budget)
            assert (E, report, success) == folner_reference.greedy_folner_search(
                backend, generators, epsilon, budget), (epsilon, budget)
