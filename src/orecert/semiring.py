"""Exact arithmetic in Z+[M] and Z[M] over any backend.

An element is a finite map from backend elements to nonzero integer
coefficients; backend elements are their own keys (see ``groups.base``).
Unsigned elements (Z+[M]) admit no subtraction and never store a
coefficient below one.
"""

from __future__ import annotations

from .errors import BackendMismatchError, ModeMismatchError
from .groups.base import Backend


class SemiringElement:
    __slots__ = ("backend", "signed", "coeffs")

    def __init__(self, backend: Backend, signed: bool, coeffs: dict):
        if not signed:
            bad = {k: c for k, c in coeffs.items() if c < 1}
            if bad:
                raise ModeMismatchError(f"nonpositive coefficients in Z+[M]: {bad}")
        self.backend = backend
        self.signed = signed
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(backend: Backend, signed: bool = False) -> "SemiringElement":
        return SemiringElement(backend, signed, {})

    @staticmethod
    def monomial(backend: Backend, element, coeff: int = 1, signed: bool = False):
        if coeff == 0:
            return SemiringElement.zero(backend, signed)
        return SemiringElement(backend, signed, {element: coeff})

    @staticmethod
    def one(backend: Backend, signed: bool = False) -> "SemiringElement":
        return SemiringElement.monomial(backend, backend.identity, 1, signed)

    @staticmethod
    def from_elements(backend: Backend, elements, signed: bool = False):
        acc = SemiringElement.zero(backend, signed)
        for e in elements:
            acc = sr_add(acc, SemiringElement.monomial(backend, e, 1, signed))
        return acc

    # -- views ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def mass(self) -> int:
        return sum(self.coeffs.values())

    def support_size(self) -> int:
        return len(self.coeffs)

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
        mode = "Z" if self.signed else "Z+"
        return f"<{mode}[{self.backend.name}] {self}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemiringElement):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.signed == other.signed
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.backend, self.signed, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        return sr_add(self, other)

    def __mul__(self, other):
        return sr_mul(self, other)


def _check_compat(x: SemiringElement, y: SemiringElement) -> None:
    if x.backend != y.backend:
        raise BackendMismatchError(f"{x.backend.name} vs {y.backend.name}")
    if x.signed != y.signed:
        raise ModeMismatchError("cannot mix Z[M] and Z+[M] operands")


def sr_add(x: SemiringElement, y: SemiringElement) -> SemiringElement:
    _check_compat(x, y)
    coeffs = dict(x.coeffs)
    for g, c in y.coeffs.items():
        new = coeffs.get(g, 0) + c
        if new:
            coeffs[g] = new
        else:
            coeffs.pop(g, None)
    return SemiringElement(x.backend, x.signed, coeffs)


def sr_neg(x: SemiringElement) -> SemiringElement:
    if not x.signed:
        raise ModeMismatchError("negation needs signed mode")
    return SemiringElement(x.backend, True, {g: -c for g, c in x.coeffs.items()})


def sr_sub(x: SemiringElement, y: SemiringElement) -> SemiringElement:
    if not x.signed or not y.signed:
        raise ModeMismatchError("subtraction needs signed mode")
    return sr_add(x, sr_neg(y))


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
    return SemiringElement(backend, x.signed, coeffs)


def sr_scale(x: SemiringElement, n: int) -> SemiringElement:
    if n == 0:
        return SemiringElement.zero(x.backend, x.signed)
    if n < 0 and not x.signed:
        raise ModeMismatchError("negative scaling needs signed mode")
    return SemiringElement(x.backend, x.signed, {g: n * c for g, c in x.coeffs.items()})


def sr_equals(x: SemiringElement, y: SemiringElement) -> bool:
    _check_compat(x, y)
    return x.coeffs == y.coeffs


def sr_left_factor(c, x: SemiringElement) -> SemiringElement:
    """(1 + c) * x, with c a backend element."""
    translated = sr_mul(SemiringElement.monomial(x.backend, c, 1, x.signed), x)
    return sr_add(x, translated)


def sr_as_multiset(x: SemiringElement) -> list:
    """Elements of an unsigned value listed with multiplicity, sorted."""
    if x.signed:
        raise ModeMismatchError("multiset view is only defined in Z+[M]")
    out = []
    for elem, coeff in x.items():
        out.extend([elem] * coeff)
    return out


def sr_text(x: SemiringElement) -> str:
    return str(x)
