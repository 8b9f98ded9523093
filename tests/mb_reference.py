"""The MB_m element reader and flow boundary check as they were before the
reader took each flow entry in one pass, kept verbatim as the oracle for
differential tests: the reader must return the same element, or raise the
same error with the same message, on every text, and the check must find
the same defects."""

from __future__ import annotations

from orecert.errors import BackendMismatchError
from orecert.groups.metabelian import FlowElement, _freeze
from orecert.words import Generator, parse_int


def vector_from_str(s: str) -> tuple[int, ...]:
    """``groups.base.vector_from_str`` as it read: whitespace around the
    vector is dropped and each coordinate goes through ``parse_int``."""
    body = s.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a vector: {s!r}")
    inner = body[1:-1]
    if not inner:
        return ()
    return tuple(map(parse_int, inner.split(",")))


def element_from_str(backend, s: str) -> FlowElement:
    """``backend.element_from_str(s)`` for an ``MbBackend``, as it read."""
    head, _, tail = s.partition("; flow=")
    if not head.startswith("t=") or not tail.startswith("{") or not tail.endswith("}"):
        raise ValueError(f"not a flow element: {s!r}")
    t = vector_from_str(head[2:])
    if len(t) != backend.rank:
        raise BackendMismatchError(f"expected rank {backend.rank}, got {len(t)}")
    flow = {}
    body = tail[1:-1].strip()
    if body:
        for entry in body.split(", "):
            edge_part, _, value = entry.rpartition(":")
            if not (edge_part.startswith("((") and edge_part.endswith(")")):
                raise ValueError(f"bad flow entry: {entry!r}")
            inner = edge_part[1:-1]  # "(b1,...,bm),name"
            base_part, _, name = inner.rpartition(",")
            base = vector_from_str(base_part)
            d = backend.alphabet.position(Generator(name))
            flow[(base, d)] = parse_int(value)
    x = FlowElement(t, _freeze(flow))
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
