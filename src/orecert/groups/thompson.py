"""Thompson's group F as reduced pairs of caret strings, and its positive monoid.

A tree is its preorder caret string: ``C`` is a caret, followed by its
left and then its right subtree, and ``L`` is a leaf, so ``CCLLL`` is a
caret whose left child is a caret.  No tree string is a proper prefix of
another.  A group element is a pair (domain tree, range tree) with equal
leaf counts, read as the piecewise-linear map sending the i-th domain
interval onto the i-th range interval.  Pairs are stored reduced, so
equality is string equality, and the pair is its own canonical key: since
the strings are prefix-free, pairs sort as their text ``domain/range``
does.

Multiplication stacks the two diagrams: the left factor's range tree and
the right factor's domain tree are refined to their common refinement and
the matching carets are copied onto the outer trees.  With the generator
pairs below this satisfies x_j x_i = x_i x_{j+1} for i < j, which is the
defining relation family of F and of its positive monoid.  No helper
recurses, so trees of any depth are fine.

The positive monoid backend keeps elements in rewriting normal form: the
rule x_j x_i -> x_i x_{j+1} (i < j) is terminating and confluent on
positive words, and the irreducible words are exactly the non-decreasing
index sequences.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from ..errors import NegativeExponentError
from ..words import Alphabet, Word
from .base import Backend


def tree_leaves(t: str) -> int:
    return t.count("L")


def _subtree_end(t: str, i: int) -> int:
    """End of the subtree that starts at ``t[i]``."""
    # A caret asks for one more subtree and a leaf completes one, so
    # ``need`` cannot reach 0 within its next ``need`` characters: read
    # them in one count.
    need = 1
    while need:
        j = i + need
        need += need - 2 * t.count("L", i, j)
        i = j
    return i


def tree_from_str(s: str) -> str:
    """Check that ``s`` is one caret string, and return it."""
    bad = s.strip("CL")
    if bad:
        raise ValueError(f"bad tree character {bad[0]!r}")
    # With one more leaf than carets the scan stays inside ``s``.
    if s.count("L") != s.count("C") + 1 or _subtree_end(s, 0) != len(s):
        raise ValueError(f"not one tree: {s!r}")
    return s


def _refine(a: str, b: str) -> tuple[list[str], list[str]]:
    """The subtree of the common refinement of ``a`` and ``b`` below each
    leaf of ``a``, and below each leaf of ``b``."""
    below_a: list[str] = []
    below_b: list[str] = []
    i = j = 0
    while i < len(a):
        if a[i] == b[j]:
            if a[i] == "L":
                below_a.append("L")
                below_b.append("L")
            i += 1
            j += 1
        elif a[i] == "L":
            k = _subtree_end(b, j)
            below_a.append(b[j:k])
            below_b.extend("L" * ((k - j + 1) // 2))
            i += 1
            j = k
        else:
            k = _subtree_end(a, i)
            below_b.append(a[i:k])
            below_a.extend("L" * ((k - i + 1) // 2))
            i = k
            j += 1
    return below_a, below_b


def _graft(t: str, below: list[str]) -> str:
    # The last piece of the split is the empty string after the last leaf.
    return "".join(map(add, t.split("L"), below))


def _cherries(pieces: list[str]) -> list[int]:
    """Leaf index of the left leaf of each ``CLL`` that ``pieces`` were split at."""
    at = []
    leaves = 0
    for piece in pieces[:-1]:
        leaves += piece.count("L")
        at.append(leaves)
        leaves += 2
    return at


def _contract(pieces: list[str], at: list[int], common: set[int]) -> str:
    cuts = ["L" if leaf in common else "CLL" for leaf in at]
    return "".join(map(add, pieces, cuts)) + pieces[-1]


class TreePair(NamedTuple):
    domain: str
    range: str


def _reduced(domain: str, rng: str) -> TreePair:
    # A ``CLL`` is a caret over two leaves; where both trees have one over
    # the same two leaves, the pair stays the same map without it.  Every
    # such caret goes in one sweep, and the contractions may expose more.
    while True:
        dom_pieces = domain.split("CLL")
        rng_pieces = rng.split("CLL")
        dom_at = _cherries(dom_pieces)
        rng_at = _cherries(rng_pieces)
        common = set(dom_at).intersection(rng_at)
        if not common:
            return TreePair(domain, rng)
        domain = _contract(dom_pieces, dom_at, common)
        rng = _contract(rng_pieces, rng_at, common)


class FBackend(Backend):
    is_group = True

    def __init__(self):
        self.name = "f"
        self.alphabet = Alphabet.indexed()

    @property
    def identity(self) -> TreePair:
        return TreePair("L", "L")

    def generator_element(self, gen) -> TreePair:
        return self.generator_pair(self.alphabet.position(gen))

    def generator_pair(self, i: int) -> TreePair:
        if i < 0:
            raise ValueError("generator index must be nonnegative")
        return TreePair("CL" * i + "CCLLL", "CL" * i + "CLCLL")

    def multiply(self, x: TreePair, y: TreePair) -> TreePair:
        below_x, below_y = _refine(x.range, y.domain)
        return _reduced(_graft(x.domain, below_x), _graft(y.range, below_y))

    def inverse(self, x: TreePair) -> TreePair:
        return TreePair(x.range, x.domain)

    def is_identity(self, x: TreePair) -> bool:
        return x.domain == "L" and x.range == "L"

    # The element is its own key; kept per class so bench/tracer.py can wrap it.
    def canonical_key(self, x: TreePair) -> TreePair:
        return x

    def canonical_str(self, x: TreePair) -> str:
        return x.domain + "/" + x.range

    def element_from_str(self, s: str) -> TreePair:
        dom, sep, rng = s.partition("/")
        if not sep:
            raise ValueError(f"not a tree pair: {s!r}")
        if tree_leaves(tree_from_str(dom)) != tree_leaves(tree_from_str(rng)):
            raise ValueError("leaf counts differ")
        return _reduced(dom, rng)

    def generators(self, max_index: int | None = None):
        top = 1 if max_index is None else max_index
        return [(f"x{i}", self.generator_pair(i)) for i in range(top + 1)]


NormalForm = tuple[int, ...]


def _append_generator(nf: NormalForm, q: int) -> NormalForm:
    # Right-multiplying a normal form by x_q: every trailing index p > q is
    # bumped to p+1 and q is inserted before them.
    cut = len(nf)
    while cut > 0 and nf[cut - 1] > q:
        cut -= 1
    return nf[:cut] + (q,) + tuple(p + 1 for p in nf[cut:])


def pos_normalize(w: Word) -> NormalForm:
    """Normal form of a positive word over x0, x1, ..., built by inserting
    its letters one at a time."""
    for gen, exp in w:
        if exp != 1:
            raise NegativeExponentError(f"positive word expected, found {gen}^-1")
    nf: NormalForm = ()
    for gen, _ in w:
        nf = _append_generator(nf, gen.index)
    return nf


class PosMonoidBackend(Backend):
    is_group = False

    def __init__(self):
        self.name = "posmon"
        self.alphabet = Alphabet.indexed()
        self._envelope = FBackend()

    @property
    def identity(self) -> NormalForm:
        return ()

    def generator_element(self, gen) -> NormalForm:
        i = self.alphabet.position(gen)
        return (i,)

    def from_word(self, w: Word) -> NormalForm:
        return pos_normalize(w)

    def multiply(self, x: NormalForm, y: NormalForm) -> NormalForm:
        for q in y:
            x = _append_generator(x, q)
        return x

    def is_identity(self, x: NormalForm) -> bool:
        return not x

    # The element is its own key; kept per class so bench/tracer.py can wrap it.
    def canonical_key(self, x: NormalForm):
        return x

    def canonical_str(self, x: NormalForm) -> str:
        if not x:
            return "1"
        return " ".join(f"x{i}" for i in x)

    def element_from_str(self, s: str) -> NormalForm:
        s = s.strip()
        if s == "1":
            return ()
        return self.from_word(self.parse(s))

    def generators(self, max_index: int | None = None):
        top = 1 if max_index is None else max_index
        return [(f"x{i}", (i,)) for i in range(top + 1)]

    def envelope(self) -> FBackend:
        return self._envelope

    def embed_to_envelope(self, x: NormalForm) -> TreePair:
        pair = self._envelope.identity
        for i in x:
            pair = self._envelope.multiply(pair, self._envelope.generator_pair(i))
        return pair
