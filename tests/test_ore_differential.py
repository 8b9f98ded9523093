"""The canonically seeded searches against the unpruned reference searches.

Canonical seeding may only skip branches that hold no solution, so on
every instance both searches must emit the same certificate bytes, and an
exhaustion must not cost more DFS nodes than the reference spends.
"""

import pytest

from ore_reference import reference_common_multiple, reference_signed

from orecert import certificates as certs
from orecert.groups import make_backend
from orecert.ore import Exhausted, make_instance, search_common_multiple, search_signed

# (backend, a, b, n, L, K)
UNSIGNED = [
    ("zm:2", "a", "b", 2, 1, None),
    ("zm:2", "a", "b", 3, 2, None),
    ("zm:2", "a", "a b", 3, 2, None),
    ("zm:2", "a^2", "b", 4, 2, None),
    ("zm:2", "a", "a", 1, 1, None),
    ("zm:3", "a", "b", 2, 1, None),
    ("zm:3", "a b", "c", 3, 1, None),
    ("zm:3", "a", "b c", 2, 2, None),
    ("mb:2", "a", "b", 3, 2, None),
    ("mb:2", "a", "b", 4, 3, None),
    ("mb:2", "a", "a^2", 2, 2, None),
    ("mb:2", "a b", "b", 3, 2, None),
    ("posmon", "x0", "x1", 6, 5, 5),
    ("posmon", "x0", "x1", 4, 3, 3),
    ("posmon", "x0", "x0 x1", 3, 3, 3),
    ("posmon", "x0", "x0", 1, 1, 1),
    ("posmon", "x1", "x0", 3, 3, 3),
    ("f", "x0", "x1", 5, 3, 3),
    ("f", "x0", "x1", 3, 2, 2),
    ("f", "x0", "x0 x1", 3, 2, 2),
    ("f", "x1", "x0", 3, 2, 2),
]

SIGNED_SLICES = [
    ("zm:2", "a", "b", 2, 1, None),
    # b = 1: with the minus sign every v solves (1 - b) v = 0, so only a
    # V-seed finds a solution.
    ("zm:2", "a", "a A", 2, 1, None),
    ("mb:2", "a", "b", 2, 1, None),
    ("mb:2", "a", "a^2", 2, 1, None),
    ("posmon", "x0", "x1", 2, 2, 2),
    ("posmon", "x0", "x0 x0", 2, 1, 1),
    ("f", "x0", "x1", 2, 1, 1),
]
SIGNED = [
    (*spec, signs, c)
    for spec in SIGNED_SLICES
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    for c in (1, 2)
]


def _instance(name, a, b, n, L, K, **kw):
    backend = make_backend(name)
    return make_instance(backend, backend.from_text(a), backend.from_text(b), n, L, K, **kw)


def _certificate(inst, outcome) -> str:
    if isinstance(outcome, Exhausted):
        return certs.dumps(certs.exhausted_certificate(inst))
    if inst.signed:
        return certs.dumps(certs.signed_certificate(inst, outcome))
    return certs.dumps(certs.solution_certificate(inst, outcome))


def _agree(inst, pruned, reference):
    assert type(pruned) is type(reference)
    assert _certificate(inst, pruned) == _certificate(inst, reference)
    if isinstance(reference, Exhausted):
        assert pruned.nodes <= reference.nodes


@pytest.mark.parametrize("spec", UNSIGNED, ids=lambda s: " ".join(map(str, s)))
def test_unsigned_matches_reference(spec):
    inst = _instance(*spec)
    _agree(inst, search_common_multiple(inst), reference_common_multiple(inst))


@pytest.mark.parametrize("spec", SIGNED, ids=lambda s: " ".join(map(str, s)))
def test_signed_matches_reference(spec):
    *slice_, signs, c = spec
    inst = _instance(*slice_, coeff_bound=c, signs=signs)
    _agree(inst, search_signed(inst), reference_signed(inst))


def test_grid_finds_solutions_and_exhaustions():
    # The grid must exercise both outcomes, or byte identity proves little.
    kinds = {type(reference_common_multiple(_instance(*s))).__name__ for s in UNSIGNED}
    assert kinds == {"Solution", "Exhausted"}
    signed = {
        type(reference_signed(_instance(*s[:6], coeff_bound=s[7], signs=s[6]))).__name__
        for s in SIGNED
    }
    assert signed == {"SignedSolution", "Exhausted"}


def test_pruned_node_counts():
    # Deterministic work counters of the pruned searches; a change to the
    # seeding floors shows here even when the answers stay the same.
    unsigned = {("posmon", "x0", "x1", 6, 5, 5): 9963, ("f", "x0", "x1", 5, 3, 3): 920}
    for spec, nodes in unsigned.items():
        assert search_common_multiple(_instance(*spec)).nodes == nodes
    signed = {
        ("mb:2", "a", "b", 3, 2, None, (-1, -1), 2): 5316,
        ("posmon", "x0", "x1", 4, 3, 3, (1, 1), 1): 1716,
        ("zm:2", "a", "b^2", 2, 1, None, (1, -1), 2): 156,
    }
    for (*spec, signs, c), nodes in signed.items():
        inst = _instance(*spec, coeff_bound=c, signs=signs)
        assert search_signed(inst).nodes == nodes
