"""Free metabelian groups MB_m via net edge flows.

A word traces a path through the Cayley graph of Z^m starting at the
origin.  An element is the pair (abelianization vector t, flow), where the
flow records, for every directed edge of the grid, the number of forward
traversals minus backward traversals.  Edges point in the positive
coordinate direction, so one edge carries a single signed integer; zero
entries are dropped.  An element is the identity iff t = 0 and the flow is
empty.  The element is a tuple (t, flow), and so its own canonical key.

``element_from_str`` reads only what ``canonical_str`` writes, each flow
entry in one pass: every base has m coordinates, every name is in the
alphabet, every integer is written canonically, every value is nonzero
and the edges strictly increase, so no text reads to a flow outside Z^m
and each element has one text.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import add, itemgetter
from typing import NamedTuple

from ..errors import BackendMismatchError
from ..words import Alphabet, Word
from .base import Backend, vector_from_str, vector_str

# An edge (base, d) runs from vertex `base` to `base + e_d`.
Edge = tuple[tuple[int, ...], int]
FlowItems = tuple[tuple[Edge, int], ...]


class FlowElement(NamedTuple):
    t: tuple[int, ...]
    flow: FlowItems  # sorted, no zero values


def _freeze(flow: dict[Edge, int]) -> FlowItems:
    return tuple(sorted((e, v) for e, v in flow.items() if v != 0))


def _splice(t: tuple[int, ...], flow: FlowItems, edge: Edge, v: int) -> FlowElement:
    """(t, flow with v added on ``edge``), the sorted flow kept sorted."""
    j = bisect_left(flow, edge, key=itemgetter(0))
    if j < len(flow) and flow[j][0] == edge:
        v += flow[j][1]
        return FlowElement(t, flow[:j] + (((edge, v),) if v else ()) + flow[j + 1 :])
    return FlowElement(t, flow[:j] + ((edge, v),) + flow[j:])


class MbBackend(Backend):
    is_group = True

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.name = f"mb:{rank}"
        self.alphabet = Alphabet.named(rank)
        self._positions = {name: i for i, name in enumerate(self.alphabet.names)}
        # a flow entry ((b1,...,bm),name):v as ``canonical_str`` writes it,
        # with m = rank coordinates, integers as str writes them and v != 0
        coord = "(?:0|-?[1-9][0-9]*)"
        self._entry = re.compile(
            r"\(\((%s(?:,%s){%d})\),([%s])\):(-?[1-9][0-9]*)"
            % (coord, coord, rank - 1, "".join(self.alphabet.names))
        ).fullmatch

    @property
    def identity(self) -> FlowElement:
        return FlowElement((0,) * self.rank, ())

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
        t = tuple(map(add, x.t, y.t))
        if len(y.flow) == 1:
            # One edge is a letter a_d^v: the boundary condition puts it at
            # (0, d) for v = 1 and at (-e_d, d) for v = -1.  So x a_d^v adds v
            # on (x.t, d) or (t, d).
            (((_, d), v),) = y.flow
            return _splice(t, x.flow, (x.t if v > 0 else t, d), v)
        if len(x.flow) == 1:
            # a_d^v y adds v on that edge to y's flow shifted by x.t, and the
            # shift keeps the flow sorted
            s, ((edge, v),) = x.t, x.flow
            flow = tuple(((tuple(map(add, base, s)), d), w) for (base, d), w in y.flow)
            return _splice(t, flow, edge, v)
        flow = dict(x.flow)
        for (base, d), v in y.flow:
            edge = (tuple(map(add, base, x.t)), d)
            flow[edge] = flow.get(edge, 0) + v
        return FlowElement(t, _freeze(flow))

    def inverse(self, x: FlowElement) -> FlowElement:
        inv_t = tuple(-a for a in x.t)
        flow = {
            (tuple(b - s for b, s in zip(base, x.t)), d): -v
            for (base, d), v in x.flow
        }
        return FlowElement(inv_t, _freeze(flow))

    # The element is its own key; kept per class so bench/tracer.py can wrap it.
    def canonical_key(self, x: FlowElement) -> FlowElement:
        return x

    def canonical_str(self, x: FlowElement) -> str:
        entries = ", ".join(
            f"(({','.join(map(str, base))}),{self.alphabet.names[d]}):{v}"
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
        flow: list[tuple[Edge, int]] = []
        body = tail[1:-1]
        if body:
            entry_match, positions = self._entry, self._positions
            for entry in body.split(", "):
                m = entry_match(entry)
                if m is None:
                    raise ValueError(f"bad flow entry: {entry!r}")
                edge = (tuple(map(int, m[1].split(","))), positions[m[2]])
                if flow and not flow[-1][0] < edge:
                    raise ValueError(f"flow entries out of order at {entry!r}")
                flow.append((edge, int(m[3])))
        x = FlowElement(t, tuple(flow))
        if boundary_defect(x):
            raise ValueError(f"flow violates the boundary condition: {s!r}")
        return x


def boundary_defect(x: FlowElement) -> dict[tuple[int, ...], int]:
    """Violations of the flow boundary condition; empty means consistent.

    At every vertex the net outflow must equal [v = origin] - [v = t].
    """
    rank = len(x.t)
    net: dict[tuple[int, ...], int] = {}
    for (base, d), v in x.flow:
        head = base[:d] + (base[d] + 1,) + base[d + 1 :]  # base + e_d
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
