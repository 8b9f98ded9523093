import io
from fractions import Fraction

import folner_reference
import pytest

from orecert import cli, folner
from orecert.errors import VerificationError
from orecert.folner import (
    check_delta,
    check_epsilon,
    folner_ratios,
    greedy_folner_search,
)
from orecert.groups import Backend, MbBackend, PosMonoidBackend, ZmBackend

ZM = ZmBackend(2)
PM = PosMonoidBackend()


def box(n):
    return [(i, j) for i in range(n) for j in range(n)]


def test_box_ratios():
    report = folner_ratios(ZM, box(10), ZM.generators())
    a_stats = report.per_generator[0]
    assert a_stats.intersection == 90
    assert a_stats.intersection_ratio == Fraction(9, 10)
    assert a_stats.symdiff == 20
    assert a_stats.symdiff_ratio == Fraction(1, 5)


def test_singleton():
    report = folner_ratios(ZM, [(0, 0)], ZM.generators())
    for s in report.per_generator:
        assert s.intersection == 0
        assert s.symdiff == 2


def test_identity_generator():
    report = folner_ratios(ZM, box(4), [("e", ZM.identity)])
    assert report.per_generator[0].intersection_ratio == 1
    assert report.per_generator[0].symdiff == 0


def test_posmon_example():
    E = [PM.from_text(t) for t in ("", "x0", "x1")]
    report = folner_ratios(PM, E, [("x0", PM.from_text("x0"))])
    s = report.per_generator[0]
    assert s.intersection == 1
    assert s.intersection_ratio == Fraction(1, 3)
    assert s.symdiff == 4
    assert s.symdiff_ratio == Fraction(4, 3)


def test_translation_preserves_size():
    mb = MbBackend(2)
    E = [mb.from_text(t) for t in ("", "a", "b", "a b", "b a")]
    report = folner_ratios(mb, E, mb.generators())
    assert report.size == 5  # distinct, and aE checked internally


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        folner_ratios(ZM, [], ZM.generators())


def test_box_closed_form():
    for n in range(1, 51):
        report = folner_ratios(ZM, box(n), ZM.generators())
        for s in report.per_generator:
            assert s.symdiff_ratio == Fraction(2, n)


def test_checks_are_strict():
    report = folner_ratios(ZM, box(10), ZM.generators())
    assert check_delta(report, Fraction(1, 2))
    assert not check_delta(report, Fraction(9, 10))
    assert not check_epsilon(report, Fraction(1, 10))
    assert not check_epsilon(report, Fraction(1, 5))
    assert check_epsilon(report, Fraction(1, 5) + Fraction(1, 1000))


def test_greedy_succeeds_on_zm():
    E, report, success = greedy_folner_search(ZM, ZM.generators(), Fraction(1, 2), 200)
    assert success
    recheck = folner_ratios(ZM, E, ZM.generators())
    assert check_epsilon(recheck, Fraction(1, 2))


def test_greedy_loose_epsilon_immediate():
    # Ratios never exceed 2, so any strict bound above 2 accepts {1} at once.
    E, report, success = greedy_folner_search(ZM, ZM.generators(), Fraction(21, 10), 5)
    assert success
    assert len(E) == 1


def test_greedy_epsilon_two_needs_growth():
    # A singleton has symdiff ratio exactly 2, which the strict check rejects.
    E, report, success = greedy_folner_search(ZM, ZM.generators(), Fraction(2), 5)
    assert success
    assert len(E) > 1


def test_greedy_posmon_small_budget_fails_gracefully():
    gens = PM.generators(1)
    E, report, success = greedy_folner_search(PM, gens, Fraction(1, 10), 12)
    assert not success
    assert 1 <= len(E) <= 12
    assert report.max_symdiff_ratio >= Fraction(1, 10)


def test_no_generators_rejected():
    with pytest.raises(ValueError, match="at least one generator is needed"):
        folner_ratios(ZM, box(2), [])
    with pytest.raises(ValueError, match="at least one generator is needed"):
        greedy_folner_search(ZM, [], Fraction(1, 2), 5)


@pytest.mark.parametrize("backend,budget", [(MbBackend(2), 40), (PosMonoidBackend(), 30)])
def test_grower_work_is_linear_in_budget(monkeypatch, backend, budget):
    # Each element of E and of the frontier is multiplied by each generator
    # once, and the frontier holds at most G |E| elements; rescoring every
    # candidate with folner_ratios made about G^2 budget^3 / 6 products.
    calls = {"multiply": 0, "folner_ratios": 0}
    multiply, ratios = backend.multiply, folner.folner_ratios

    def counted_multiply(x, y):
        calls["multiply"] += 1
        return multiply(x, y)

    def counted_ratios(*args):
        calls["folner_ratios"] += 1
        return ratios(*args)

    monkeypatch.setattr(backend, "multiply", counted_multiply)
    monkeypatch.setattr(folner, "folner_ratios", counted_ratios)
    generators = backend.generators()
    G = len(generators)
    E, _, success = greedy_folner_search(backend, generators, Fraction(1, 10), budget)
    assert not success
    assert G * budget <= calls["multiply"] <= G * (G + 1) * budget
    assert calls["folner_ratios"] == 0


class Collapsing(Backend):
    """0, 1, 2 under addition capped at 2: a 1 = a 2 = 2, so left
    translation by a is not injective on {0, 1, 2}."""

    name = "collapsing"
    identity = 0

    def multiply(self, x, y):
        return min(x + y, 2)

    def canonical_key(self, x):
        return x

    def canonical_str(self, x):
        return str(x)

    def generators(self, max_index=None):
        return [("a", 1)]


def test_non_injective_translation_is_rejected(monkeypatch):
    stub = Collapsing()
    message = "left translation by a not injective"
    with pytest.raises(VerificationError, match=message):
        folner_ratios(stub, [0, 1, 2], stub.generators())
    for grower in (greedy_folner_search, folner_reference.greedy_folner_search):
        with pytest.raises(VerificationError, match=message):
            grower(stub, stub.generators(), Fraction(1, 10), 5)
    monkeypatch.setattr(cli, "make_backend", lambda selector: stub)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["folner", "--backend", "collapsing", "--epsilon", "1/10"], out, err)
    assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {message}\n")
