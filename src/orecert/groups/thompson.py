"""Thompson's group F as reduced tree pairs, and its positive monoid.

Trees are nested tuples: a leaf is ``()`` and a caret is ``(left, right)``.
A group element is a pair (domain tree, range tree) with equal leaf counts,
read as the piecewise-linear map sending the i-th domain interval onto the
i-th range interval.  Pairs are stored reduced, so equality is structural.

Multiplication stacks the two diagrams: the left factor's range tree and
the right factor's domain tree are refined to their common refinement and
the matching carets are copied onto the outer trees.  With the generator
pairs below this satisfies x_j x_i = x_i x_{j+1} for i < j, which is the
defining relation family of F and of its positive monoid.

The positive monoid backend keeps elements in rewriting normal form: the
rule x_j x_i -> x_i x_{j+1} (i < j) is terminating and confluent on
positive words, and the irreducible words are exactly the non-decreasing
index sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import NegativeExponentError, VerificationError
from ..words import Alphabet, Word
from .base import Backend

Tree = tuple  # () is a leaf, (left, right) a caret

LEAF: Tree = ()


def tree_leaves(t: Tree) -> int:
    if not t:
        return 1
    return tree_leaves(t[0]) + tree_leaves(t[1])


def tree_to_str(t: Tree) -> str:
    if not t:
        return "L"
    return "C" + tree_to_str(t[0]) + tree_to_str(t[1])


def tree_from_str(s: str) -> Tree:
    def parse(pos: int) -> tuple[Tree, int]:
        if pos >= len(s):
            raise ValueError(f"truncated tree string {s!r}")
        if s[pos] == "L":
            return LEAF, pos + 1
        if s[pos] == "C":
            left, pos = parse(pos + 1)
            right, pos = parse(pos)
            return (left, right), pos
        raise ValueError(f"bad tree character {s[pos]!r}")

    tree, end = parse(0)
    if end != len(s):
        raise ValueError(f"trailing characters in tree string {s!r}")
    return tree


def _merge(s: Tree, t: Tree) -> Tree:
    # Common refinement: caret wherever either tree has one.
    if not s:
        return t
    if not t:
        return s
    return (_merge(s[0], t[0]), _merge(s[1], t[1]))


def _subtrees_at_leaves(t: Tree, refined: Tree) -> list[Tree]:
    # refined must contain t; returns refined's subtree under each leaf of t.
    if not t:
        return [refined]
    if not refined:
        raise VerificationError("tree is not a refinement")
    return _subtrees_at_leaves(t[0], refined[0]) + _subtrees_at_leaves(t[1], refined[1])


def _graft(t: Tree, subtrees: list[Tree]) -> Tree:
    it = iter(subtrees)

    def rec(node: Tree) -> Tree:
        if not node:
            return next(it)
        return (rec(node[0]), rec(node[1]))

    out = rec(t)
    for _ in it:
        raise VerificationError("leftover subtrees while grafting")
    return out


def _sibling_leaf_starts(t: Tree) -> list[int]:
    """Leaf indices i such that leaves i and i+1 are children of one caret."""
    starts: list[int] = []

    def rec(node: Tree, base: int) -> int:
        if not node:
            return 1
        left, right = node
        if not left and not right:
            starts.append(base)
            return 2
        n_left = rec(left, base)
        return n_left + rec(right, base + n_left)

    rec(t, 0)
    return starts


def _contract_at(t: Tree, i: int) -> Tree:
    def rec(node: Tree, base: int) -> tuple[Tree, int]:
        if not node:
            return node, 1
        left, right = node
        if not left and not right:
            if base == i:
                return LEAF, 2
            return node, 2
        new_left, n_left = rec(left, base)
        new_right, n_right = rec(right, base + n_left)
        return (new_left, new_right), n_left + n_right

    out, _ = rec(t, 0)
    return out


@dataclass(frozen=True)
class TreePair:
    domain: Tree
    range: Tree


def _reduce_pair(domain: Tree, rng: Tree) -> TreePair:
    while True:
        common = set(_sibling_leaf_starts(domain)) & set(_sibling_leaf_starts(rng))
        if not common:
            return TreePair(domain, rng)
        i = min(common)
        domain = _contract_at(domain, i)
        rng = _contract_at(rng, i)


class FBackend(Backend):
    is_group = True

    def __init__(self):
        self.name = "f"
        self.alphabet = Alphabet.indexed()
        self._gen_cache: dict[int, TreePair] = {}

    @property
    def identity(self) -> TreePair:
        return TreePair(LEAF, LEAF)

    def generator_element(self, gen) -> TreePair:
        return self.generator_pair(self.alphabet.position(gen))

    def generator_pair(self, i: int) -> TreePair:
        if i < 0:
            raise ValueError("generator index must be nonnegative")
        pair = self._gen_cache.get(i)
        if pair is None:
            domain: Tree = ((LEAF, LEAF), LEAF)
            rng: Tree = (LEAF, (LEAF, LEAF))
            for _ in range(i):
                domain = (LEAF, domain)
                rng = (LEAF, rng)
            pair = TreePair(domain, rng)
            self._gen_cache[i] = pair
        return pair

    def multiply(self, x: TreePair, y: TreePair) -> TreePair:
        common = _merge(x.range, y.domain)
        domain = _graft(x.domain, _subtrees_at_leaves(x.range, common))
        rng = _graft(y.range, _subtrees_at_leaves(y.domain, common))
        return _reduce_pair(domain, rng)

    def inverse(self, x: TreePair) -> TreePair:
        return TreePair(x.range, x.domain)

    def is_identity(self, x: TreePair) -> bool:
        return x.domain == LEAF and x.range == LEAF

    def equals(self, x: TreePair, y: TreePair) -> bool:
        return x == y

    def canonical_key(self, x: TreePair) -> str:
        return self.canonical_str(x)

    def canonical_str(self, x: TreePair) -> str:
        return tree_to_str(x.domain) + "/" + tree_to_str(x.range)

    def element_from_str(self, s: str) -> TreePair:
        dom, sep, rng = s.partition("/")
        if not sep:
            raise ValueError(f"not a tree pair: {s!r}")
        pair = _reduce_pair(tree_from_str(dom), tree_from_str(rng))
        if tree_leaves(pair.domain) != tree_leaves(pair.range):
            raise ValueError("leaf counts differ")
        return pair

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


def pos_normalize(w: Word, strategy: str = "fold", rng: random.Random | None = None) -> NormalForm:
    """Normal form of a positive word over x0, x1, ...

    ``fold`` inserts letters one at a time (the fast path used by the
    backend).  ``leftmost``, ``rightmost`` and ``random`` repeatedly rewrite
    a single adjacent violation; all strategies agree because the rewriting
    system is confluent.
    """
    for gen, exp in w:
        if exp != 1:
            raise NegativeExponentError(f"positive word expected, found {gen}^-1")
    indices = tuple(gen.index for gen, _ in w)
    if strategy == "fold":
        nf: NormalForm = ()
        for q in indices:
            nf = _append_generator(nf, q)
        return nf
    seq = list(indices)
    while True:
        spots = [i for i in range(len(seq) - 1) if seq[i] > seq[i + 1]]
        if not spots:
            return tuple(seq)
        if strategy == "leftmost":
            i = spots[0]
        elif strategy == "rightmost":
            i = spots[-1]
        elif strategy == "random":
            i = (rng or random).choice(spots)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        j, k = seq[i], seq[i + 1]
        seq[i], seq[i + 1] = k, j + 1


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
