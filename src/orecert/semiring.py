"""Exact arithmetic in Z[M] over any backend.

An element is a finite map from backend elements to nonzero integer
coefficients; backend elements are their own keys (see ``groups.base``).
Z+[M] is the part of Z[M] with positive coefficients, and sums and
products keep it, so an element does not record its ring.  Positivity is
checked where it is read: the multiset view (``sr_as_multiset``).
"""

from __future__ import annotations

from .errors import BackendMismatchError, ModeMismatchError
from .groups.base import Backend


class SemiringElement:
    __slots__ = ("backend", "coeffs")

    def __init__(self, backend: Backend, coeffs: dict):
        self.backend = backend
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(backend: Backend) -> "SemiringElement":
        return SemiringElement(backend, {})

    @staticmethod
    def monomial(backend: Backend, element, coeff: int = 1) -> "SemiringElement":
        return SemiringElement(backend, {element: coeff} if coeff else {})

    @staticmethod
    def one(backend: Backend) -> "SemiringElement":
        return SemiringElement.monomial(backend, backend.identity)

    @staticmethod
    def from_terms(backend: Backend, terms) -> "SemiringElement":
        """The sum of lam*g over the (lam, g) pairs of ``terms``."""
        acc = SemiringElement.zero(backend)
        for lam, g in terms:
            acc = sr_add(acc, SemiringElement.monomial(backend, g, lam))
        return acc

    # -- views ---------------------------------------------------------------

    def items(self):
        """(element, coefficient) pairs in element order."""
        for element in sorted(self.coeffs):
            yield element, self.coeffs[element]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        cs = self.backend.canonical_str
        return " + ".join(f"{c}*{cs(e)}" for e, c in self.items())

    def __repr__(self) -> str:
        return f"<Z[{self.backend.name}] {self}>"


def _check_compat(x: SemiringElement, y: SemiringElement) -> None:
    if x.backend != y.backend:
        raise BackendMismatchError(f"{x.backend.name} vs {y.backend.name}")


def sr_add(x: SemiringElement, y: SemiringElement) -> SemiringElement:
    _check_compat(x, y)
    coeffs = dict(x.coeffs)
    for g, c in y.coeffs.items():
        new = coeffs.get(g, 0) + c
        if new:
            coeffs[g] = new
        else:
            coeffs.pop(g, None)
    return SemiringElement(x.backend, coeffs)


def sr_mul(x: SemiringElement, y: SemiringElement) -> SemiringElement:
    _check_compat(x, y)
    backend = x.backend
    coeffs: dict = {}
    for g1, c1 in x.coeffs.items():
        for g2, c2 in y.coeffs.items():
            g = backend.multiply(g1, g2)
            new = coeffs.get(g, 0) + c1 * c2
            if new:
                coeffs[g] = new
            else:
                coeffs.pop(g, None)
    return SemiringElement(backend, coeffs)


def sr_scale(x: SemiringElement, n: int) -> SemiringElement:
    return SemiringElement(x.backend, {g: n * c for g, c in x.coeffs.items()} if n else {})


def sr_equals(x: SemiringElement, y: SemiringElement) -> bool:
    _check_compat(x, y)
    return x.coeffs == y.coeffs


def sr_as_multiset(x: SemiringElement) -> list:
    """Elements of a Z+[M] value listed with multiplicity, sorted."""
    out = []
    for elem, coeff in x.items():
        if coeff < 1:
            raise ModeMismatchError("multiset view is only defined in Z+[M]")
        out.extend([elem] * coeff)
    return out


def sr_text(x: SemiringElement) -> str:
    return str(x)
