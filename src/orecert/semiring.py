"""Exact arithmetic in Z[M] over any backend.

An element is a dict from backend elements to nonzero integer
coefficients.  Backend elements are their own keys (see ``groups.base``),
so ``==`` on two elements is equality in Z[M].  Z+[M] is the part of Z[M]
with positive coefficients, and sums and products keep it, so an element
does not record its ring.  Positivity is checked where it is read: the
multiset view (``sr_as_multiset``).
"""

from __future__ import annotations

from .errors import ModeMismatchError


def sr_add_terms(acc: dict, terms) -> dict:
    """Add each (element, coefficient) pair of ``terms`` to ``acc`` in
    place, dropping coefficients that reach zero; returns ``acc``."""
    for g, c in terms:
        new = acc.get(g, 0) + c
        if new:
            acc[g] = new
        else:
            acc.pop(g, None)
    return acc


def sr_add(x: dict, y: dict) -> dict:
    return sr_add_terms(dict(x), y.items())


def sr_mul(backend, x: dict, y: dict) -> dict:
    mul = backend.multiply
    return sr_add_terms(
        {}, ((mul(g1, g2), c1 * c2) for g1, c1 in x.items() for g2, c2 in y.items()))


def sr_scale(x: dict, n: int) -> dict:
    return {g: n * c for g, c in x.items()} if n else {}


def sr_as_multiset(x: dict) -> list:
    """Elements of a Z+[M] value listed with multiplicity, sorted."""
    out = []
    for elem in sorted(x):
        coeff = x[elem]
        if coeff < 1:
            raise ModeMismatchError("multiset view is only defined in Z+[M]")
        out.extend([elem] * coeff)
    return out


def sr_text(backend, x: dict) -> str:
    """``c*g`` terms in element order, joined by `` + ``; ``0`` if empty."""
    if not x:
        return "0"
    cs = backend.canonical_str
    return " + ".join(f"{x[g]}*{cs(g)}" for g in sorted(x))
