"""Monoid and group backends sharing one element-arithmetic contract."""

from ..words import parse_int
from .abelian import ZmBackend
from .base import Backend
from .metabelian import FlowElement, MbBackend, boundary_defect
from .thompson import (
    FBackend,
    NormalForm,
    PosMonoidBackend,
    TreePair,
    pos_normalize,
    tree_from_str,
    tree_leaves,
)
from .trace import AltTrace, TraceStep, alt_trace, verify_trace


def make_backend(selector: str) -> Backend:
    """Build a backend from a selector such as ``zm:2``, ``mb:3``, ``f``,
    or ``posmon``."""
    kind, colon, arg = selector.partition(":")
    if kind == "zm":
        return ZmBackend(parse_int(arg) if arg else 2)
    if kind == "mb":
        return MbBackend(parse_int(arg) if arg else 2)
    if kind == "f" and not colon:
        return FBackend()
    if kind == "posmon" and not colon:
        return PosMonoidBackend()
    raise ValueError(f"unknown backend selector {selector!r}")


__all__ = [
    "AltTrace",
    "Backend",
    "FBackend",
    "FlowElement",
    "MbBackend",
    "NormalForm",
    "PosMonoidBackend",
    "TraceStep",
    "TreePair",
    "ZmBackend",
    "alt_trace",
    "boundary_defect",
    "make_backend",
    "pos_normalize",
    "tree_from_str",
    "tree_leaves",
    "verify_trace",
]
