"""Thompson's group F on nested-tuple tree pairs, kept as the oracle for
differential tests.

This is the F backend ``orecert.groups.thompson`` ran before elements
became pairs of caret strings: a leaf is ``()``, a caret ``(left, right)``,
and every helper recurses on depth, so words of length beyond a few
hundred exceed the recursion limit.  ``from_word`` multiplies left to
right, one letter at a time.  The string backend must give the same
``canonical_str`` on every word both can evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

from orecert.errors import VerificationError
from orecert.groups.base import Backend
from orecert.words import Alphabet, Word


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

    def from_word(self, w: Word) -> TreePair:
        x = self.identity
        for letter in w:
            x = self.multiply(x, self.letter_element(letter))
        return x

    def letter_element(self, letter) -> TreePair:
        gen, exp = letter
        g = self.generator_element(gen)
        return g if exp > 0 else self.inverse(g)

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
