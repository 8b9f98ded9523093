"""Cycles that a search found, walked back into solutions, and the standard
generator lists of every backend."""

import pytest

from test_ore_differential import UNSIGNED, _instance

from orecert.groups import make_backend
from orecert.ore import (
    Exhausted,
    build_relation_graph,
    extract_cycles,
    relation_to_solution,
    search_common_multiple,
)


def _solved(spec) -> bool:
    return not isinstance(search_common_multiple(_instance(*spec)), Exhausted)


SOLVED = [spec for spec in UNSIGNED if _solved(spec)]


def test_grid_has_nine_solved_instances():
    assert len(SOLVED) == 9
    assert sorted({spec[0] for spec in SOLVED}) == ["mb:2", "posmon", "zm:2", "zm:3"]


@pytest.mark.parametrize("spec", SOLVED, ids=lambda s: " ".join(map(str, s)))
def test_extracted_cycles_walk_back_into_the_pool(spec):
    inst = _instance(*spec)
    backend, a, b = inst.backend, inst.a, inst.b
    sol = search_common_multiple(inst)
    graph = build_relation_graph(backend, a, b, sol)
    pool = set(inst.pool)
    for rel in extract_cycles(graph, backend, a, b):
        rebuilt = relation_to_solution(backend, a, b, rel.word, pool=inst.pool)
        assert rebuilt.verified
        assert rebuilt.mass == len(rel.word) // 2
        assert set(rebuilt.U) <= pool and set(rebuilt.V) <= pool


A = "t=(1,0); flow={((0,0),a):1}"
B = "t=(0,1); flow={((0,0),b):1}"
X = [
    ("x0", "CCLLL/CLCLL"),
    ("x1", "CLCCLLL/CLCLCLL"),
    ("x2", "CLCLCCLLL/CLCLCLCLL"),
    ("x3", "CLCLCLCCLLL/CLCLCLCLCLL"),
]
P = [(f"x{i}", f"x{i}") for i in range(4)]
GENERATORS = {
    # a named alphabet ignores max_index
    "zm:2": {k: [("a", "(1,0)"), ("b", "(0,1)")] for k in (None, 0, 3, -1)},
    "zm:3": {k: [("a", "(1,0,0)"), ("b", "(0,1,0)"), ("c", "(0,0,1)")]
             for k in (None, 0, 3, -1)},
    "mb:2": {k: [("a", A), ("b", B)] for k in (None, 0, 3, -1)},
    "f": {None: X[:2], 0: X[:1], 3: X, -1: []},
    "posmon": {None: P[:2], 0: P[:1], 3: P, -1: []},
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("max_index", [None, 0, 3, -1])
def test_generator_lists(name, max_index):
    backend = make_backend(name)
    got = [(label, backend.canonical_str(g)) for label, g in backend.generators(max_index)]
    assert got == GENERATORS[name][max_index]
