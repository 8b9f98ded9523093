"""Free metabelian groups MB_m via net edge flows.

A word traces a path through the Cayley graph of Z^m starting at the
origin.  An element is the pair (abelianization vector t, flow), where the
flow records, for every directed edge of the grid, the number of forward
traversals minus backward traversals.  Edges point in the positive
coordinate direction, so one edge carries a single signed integer; zero
entries are dropped.  An element is the identity iff t = 0 and the flow is
empty.  The element is a tuple (t, flow), and so its own canonical key.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import BackendMismatchError
from ..words import Alphabet, Generator, Word
from .base import Backend, vector_from_str, vector_str

# An edge (base, d) runs from vertex `base` to `base + e_d`.
Edge = tuple[tuple[int, ...], int]
FlowItems = tuple[tuple[Edge, int], ...]


class FlowElement(NamedTuple):
    t: tuple[int, ...]
    flow: FlowItems  # sorted, no zero values


def _freeze(flow: dict[Edge, int]) -> FlowItems:
    return tuple(sorted((e, v) for e, v in flow.items() if v != 0))


class MbBackend(Backend):
    is_group = True

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.name = f"mb:{rank}"
        self.alphabet = Alphabet.named(rank)

    @property
    def identity(self) -> FlowElement:
        return FlowElement((0,) * self.rank, ())

    def generator_element(self, gen) -> FlowElement:
        i = self.alphabet.position(gen)
        t = tuple(1 if j == i else 0 for j in range(self.rank))
        return FlowElement(t, ((((0,) * self.rank, i), 1),))

    def from_word(self, w: Word) -> FlowElement:
        pos = [0] * self.rank
        flow: dict[Edge, int] = {}
        for gen, exp in w:
            i = self.alphabet.position(gen)
            if exp > 0:
                edge = (tuple(pos), i)
                pos[i] += 1
                delta = 1
            else:
                pos[i] -= 1
                edge = (tuple(pos), i)
                delta = -1
            flow[edge] = flow.get(edge, 0) + delta
        return FlowElement(tuple(pos), _freeze(flow))

    def multiply(self, x: FlowElement, y: FlowElement) -> FlowElement:
        if len(x.t) != self.rank or len(y.t) != self.rank:
            raise BackendMismatchError("rank mismatch")
        flow = dict(x.flow)
        for (base, d), v in y.flow:
            edge = (tuple(b + s for b, s in zip(base, x.t)), d)
            flow[edge] = flow.get(edge, 0) + v
        return FlowElement(
            tuple(a + b for a, b in zip(x.t, y.t)), _freeze(flow)
        )

    def inverse(self, x: FlowElement) -> FlowElement:
        inv_t = tuple(-a for a in x.t)
        flow = {
            (tuple(b - s for b, s in zip(base, x.t)), d): -v
            for (base, d), v in x.flow
        }
        return FlowElement(inv_t, _freeze(flow))

    def is_identity(self, x: FlowElement) -> bool:
        return not any(x.t) and not x.flow

    # The element is its own key; kept per class so bench/tracer.py can wrap it.
    def canonical_key(self, x: FlowElement) -> FlowElement:
        return x

    def canonical_str(self, x: FlowElement) -> str:
        entries = ", ".join(
            f"(({','.join(str(c) for c in base)}),{self.alphabet.names[d]}):{v}"
            for (base, d), v in x.flow
        )
        return f"t={vector_str(x.t)}; flow={{{entries}}}"

    def element_from_str(self, s: str) -> FlowElement:
        head, _, tail = s.partition("; flow=")
        if not head.startswith("t=") or not tail.startswith("{") or not tail.endswith("}"):
            raise ValueError(f"not a flow element: {s!r}")
        t = vector_from_str(head[2:])
        if len(t) != self.rank:
            raise BackendMismatchError(f"expected rank {self.rank}, got {len(t)}")
        flow: dict[Edge, int] = {}
        body = tail[1:-1].strip()
        if body:
            for entry in body.split(", "):
                edge_part, _, value = entry.rpartition(":")
                if not (edge_part.startswith("((") and edge_part.endswith(")")):
                    raise ValueError(f"bad flow entry: {entry!r}")
                inner = edge_part[1:-1]  # "(b1,...,bm),name"
                base_part, _, name = inner.rpartition(",")
                base = vector_from_str(base_part)
                d = self.alphabet.position(Generator(name))
                flow[(base, d)] = int(value)
        x = FlowElement(t, _freeze(flow))
        if boundary_defect(x):
            raise ValueError(f"flow violates the boundary condition: {s!r}")
        return x

    def generators(self, max_index=None):
        return [
            (self.alphabet.names[i], self.generator_element(self.alphabet.generator(i)))
            for i in range(self.rank)
        ]


def boundary_defect(x: FlowElement) -> dict[tuple[int, ...], int]:
    """Violations of the flow boundary condition; empty means consistent.

    At every vertex the net outflow must equal [v = origin] - [v = t].
    """
    rank = len(x.t)
    net: dict[tuple[int, ...], int] = {}
    for (base, d), v in x.flow:
        head = tuple(b + (1 if j == d else 0) for j, b in enumerate(base))
        net[base] = net.get(base, 0) + v
        net[head] = net.get(head, 0) - v
    origin = (0,) * rank
    expected = {}
    if origin != x.t:
        expected[origin] = 1
        expected[x.t] = -1
    defects = {}
    for v in set(net) | set(expected):
        d = net.get(v, 0) - expected.get(v, 0)
        if d:
            defects[v] = d
    return defects
