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

A general product stacks the two diagrams: the left factor's range tree
and the right factor's domain tree are refined to their common refinement
and the matching carets are copied onto the outer trees.  With the
generator pairs below this satisfies x_j x_i = x_i x_{j+1} for i < j, which
is the defining relation family of F and of its positive monoid.  A product
with one generator letter is a local edit instead: right-multiplying by
x_k splits tree k of the range forest, the subtrees hanging off the range
tree's right spine, and x_k^-1 joins trees k and k+1 (Belk and Brown,
"Forest diagrams for elements of Thompson's group F", IJAC 15, 2005); then
the few carets the edit leaves common to both trees are contracted.
``_times_letter`` makes that edit on the two strings, for single products.
``from_word`` freely reduces the word, folds each block of 128 letters
from the identity with ``_fold``, which keeps the range tree as a list of
its forest's trees between letters, and multiplies the block results
pairwise.  No helper recurses, so trees of any depth are fine.

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


def _leaf_at(t: str, m: int) -> int:
    """Position of leaf ``m`` (counted from 0) of ``t``."""
    # Start each window at the next leaf; ``need`` leaves take at least
    # ``need`` characters, so a window that holds them all ends with the
    # one sought.
    i, need = 0, m + 1
    while True:
        i = t.find("L", i)
        j = i + need
        found = t.count("L", i, j)
        if found == need:
            return t.rfind("L", i, j)
        need -= found
        i = j


def _as_letter(x: TreePair) -> tuple[int, int] | None:
    """(k, e) when ``x`` is the generator pair of x_k^e, else None."""
    domain, rng = x
    if domain.endswith("CCLLL") and rng.endswith("CLCLL"):
        e = 1
    elif domain.endswith("CLCLL") and rng.endswith("CCLLL"):
        e = -1
    else:
        return None
    # k disjoint matches of CL in the first 2k characters tile them
    k = (len(domain) - 5) // 2
    if domain.count("CL", 0, 2 * k) == k and rng.count("CL", 0, 2 * k) == k:
        return k, e
    return None


def _times_letter(x: TreePair, k: int, e: int) -> TreePair:
    """The reduced pair ``x`` times x_k^e (e = +-1), as a local edit.

    x_k has domain tree S(C(C A B) N) and range tree S(C A (C B N)), where
    S is a right spine of k carets over single leaves.  So the product
    walks k steps down the right spine of x's range tree R; where R lacks
    a caret of x_k^e's domain tree, it adds that caret to R and the same
    caret at the same leaf index of the domain tree D (the last leaf, or
    leaf m of a left child, found by ``_leaf_at``).  Then it rotates the
    node at depth k, C(C A B)N <-> C A (C B N), which keeps the order of
    the leaves.

    The result is reduced once the one new cherry (caret over two leaves)
    that the rotation can make is contracted wherever it is common to both
    trees, and so on up.  (D, R) is reduced, and an added caret only turns
    a leaf into a cherry, so after the refinement the only cherries common
    to both trees are the added carets at the same leaf index.  The
    rotation breaks each of them: an added caret on the spine has a caret
    as right child, and an added child of the depth-k node is the caret
    that the rotation takes apart.  The rotation's only new caret that can
    be a cherry is C B N (C A B for e = -1); where carets were added, its
    leaves are not siblings in D, so only a rotation of carets R already
    had can leave a common cherry.  Contracting a common cherry changes
    nothing but the parent of the new leaf in each tree, so the next
    common cherry, if any, is that parent in both trees with the new leaf
    on the same side.  Each contraction removes a caret that some letter
    added, so over a whole word the contractions cost amortised linear
    time.

    This is the step for single products, ``multiply`` and
    ``right_multiplier`` by a letter, which apply one letter to many small
    elements.  ``from_word`` folds whole words with ``_fold`` instead, which
    keeps the range tree as a forest across letters.
    """
    domain, rng = x
    p = 0
    for depth in range(k + 1):
        if rng[p] == "L":
            # the spine ends in the last leaf: graft the rest of x_k^e's
            # trees there; their cherries sit at different leaf indices
            spine = "CL" * (k - depth)
            dom_end, rng_end = ("CCLLL", "CLCLL") if e > 0 else ("CLCLL", "CCLLL")
            return TreePair(domain[:-1] + spine + dom_end, rng[:-1] + spine + rng_end)
        if depth < k:
            p = _subtree_end(rng, p + 1)
    # rng[p] is the caret at depth k
    if e > 0:
        if rng[p + 1] == "L":
            # add a caret at leaf m, then C(CLL)N -> CL(CLN)
            q = _leaf_at(domain, rng.count("L", 0, p + 1))
            return TreePair(domain[:q] + "CLL" + domain[q + 1 :], rng[:p] + "CLCL" + rng[p + 2 :])
        a_end = _subtree_end(rng, p + 2)
        # C(C A B)N -> C A (C B N): the caret moves from p + 1 to a_end - 1
        rng = rng[: p + 1] + rng[p + 2 : a_end] + "C" + rng[a_end:]
        r = a_end - 1
    else:
        a_end = _subtree_end(rng, p + 1)
        if rng[a_end] == "L":
            # add a caret at the last leaf, then C A (CLL) -> C(C A L)L
            return TreePair(domain[:-1] + "CLL", rng[: p + 1] + "C" + rng[p + 1 : a_end] + "LL")
        # C A (C B N) -> C(C A B)N: the caret moves from a_end to p + 1
        rng = rng[: p + 1] + "C" + rng[p + 1 : a_end] + rng[a_end + 1 :]
        r = p + 1
    if not rng.startswith("CLL", r):
        return TreePair(domain, rng)
    d = _leaf_at(domain, rng.count("L", 0, r)) - 1
    # r and d start a cherry over the same leaves when both read CLL
    while d >= 0 and domain.startswith("CLL", d):
        domain = domain[:d] + "L" + domain[d + 3 :]
        rng = rng[:r] + "L" + rng[r + 3 :]
        # the parent of R's new leaf is a cherry starting one character
        # before it (the leaf on the left) or two (on the right), or none
        if r >= 1 and rng.startswith("CLL", r - 1):
            back = 1
        elif r >= 2 and rng.startswith("CLL", r - 2):
            back = 2
        else:
            break
        d -= back
        r -= back
    return TreePair(domain, rng)


def _fold(letters: list[int]) -> TreePair:
    """The reduced pair of a word folded from the identity, one letter at
    a time; ``letters`` holds x_k as k and x_k^-1 as ~k.

    The fold keeps the pair as (D, S): D is the domain tree and S the range
    forest, the subtrees S_0 .. S_(m-1) that hang off the range tree's right
    spine, so R = C S_0 C S_1 ... C S_(m-1) L.  Right-multiplying by x_k
    splits tree k and by x_k^-1 joins trees k and k+1 (Belk and Brown), so
    each step of ``_times_letter`` becomes an edit of one or two list
    entries: the spine is list indexing, and D changes only where a caret
    is added or contracted.  With m = len(S):

    - k >= m: graft the rest of x_k^e's trees onto the last leaf of both
      trees, as ``_times_letter`` does: S gains k - m entries L, then L, L
      for x_k or CLL for x_k^-1;
    - x_k, S_k = L: add a caret over S_k's leaf, leaf q of D, where q
      counts the leaves of S_0 .. S_(k-1), then split it: S_k, S_(k+1) = L, L;
    - x_k, S_k = C A B: S_k, S_(k+1) = A, B;
    - x_k^-1, m = k+1: add a caret at the last leaf of both trees, then
      join: S_k = C S_k L;
    - x_k^-1 otherwise: S_k = C S_k S_(k+1).

    The argument of ``_times_letter`` carries over: the pair stays reduced
    once the one new caret that can be a cherry (a caret over two leaves)
    is contracted where it is common to both trees, and then its parents.
    Where a caret was added, no common cherry arises.  A split's new caret
    is the spine caret over B, a cherry only when B = L and it ends the
    spine; contracting it pops S and turns D's final CLL into L.  A join's
    new caret is a cherry only when S_k and S_(k+1) were both L; it
    contracts to S_k = L and, at leaf q of D, CLL to L.  The next common
    cherry, if any, is the new leaf's parent in both trees.  In the range
    tree that parent is a spine caret, a cherry only at the spine end, over
    S's last entry L and the last leaf, where D's cherry over the same
    leaves is a final CLL: so the climb pops S while S ends in L and D in
    CLL.  Each contraction removes a caret that some letter added, so over
    a word the contractions cost amortised linear time.

    ``_times_letter`` stays the step for single products: turning a pair
    into its forest and back costs more than one step on the strings, so
    the forest pays only where it is kept across letters.
    """
    domain, trees = "L", []
    for c in letters:
        m = len(trees)
        if c >= 0:
            k = c
            if k >= m:
                j = k - m
                domain = domain[:-1] + "CL" * j + "CCLLL"
                trees += ["L"] * (j + 2)
                continue
            t = trees[k]
            if t == "L":
                # a subtree of n characters has (n + 1) / 2 leaves
                q = _leaf_at(domain, (sum(map(len, trees[:k])) + k) // 2)
                domain = domain[:q] + "CLL" + domain[q + 1 :]
                trees.insert(k, "L")
                continue
            a_end = _subtree_end(t, 1)
            b = t[a_end:]
            trees[k : k + 1] = t[1:a_end], b
            if b != "L" or k + 1 < m:
                continue
        else:
            k = ~c
            if k + 1 >= m:
                if k >= m:
                    j = k - m
                    domain = domain[:-1] + "CL" * j + "CLCLL"
                    trees += ["L"] * j + ["CLL"]
                else:
                    domain = domain[:-1] + "CLL"
                    trees[k] = "C" + trees[k] + "L"
                continue
            s = trees[k]
            t = trees.pop(k + 1)
            if s != "L" or t != "L":
                trees[k] = "C" + s + t
                continue
            d = _leaf_at(domain, (sum(map(len, trees[:k])) + k) // 2) - 1
            if not domain.startswith("CLL", d):
                trees[k] = "CLL"
                continue
            domain = domain[:d] + "L" + domain[d + 3 :]
            if k + 1 < len(trees):
                continue
        # a new or contracted cherry ends the spine: contract it, and then
        # its parents, while D's last two leaves are siblings too
        while trees and trees[-1] == "L" and domain.endswith("CLL"):
            trees.pop()
            domain = domain[:-3] + "L"
    return TreePair(domain, "".join(["C" + s for s in trees]) + "L")


# Letters folded one at a time before products turn pairwise.  A letter
# step may still copy the domain string or a subtree of the range forest,
# so one fold over a whole word is quadratic where the trees keep growing.
# Blocks of 32 to 128 letters timed alike on random words; 128 was the
# fastest on the f-words benchmark and on x0^100000 (BENCH_16.json).
_BLOCK = 128


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

    def from_word(self, w: Word) -> TreePair:
        # The word is freely reduced as it is read, since F is a group.
        # Each block of the reduced word folds on the range forest, one
        # letter at a time, every step a local edit; the blocks then
        # multiply pairwise, level by level, so a power's trees grow one
        # letter at a time only within a block.  An empty word is one empty
        # block.
        position = self.alphabet.position
        letters: list[int] = []
        for gen, e in w:
            c = position(gen) if e > 0 else ~position(gen)
            if letters and letters[-1] == ~c:
                letters.pop()
            else:
                letters.append(c)
        xs = [_fold(letters[i : i + _BLOCK]) for i in range(0, max(len(letters), 1), _BLOCK)]
        while len(xs) > 1:
            pairs = [self.multiply(x, y) for x, y in zip(xs[::2], xs[1::2])]
            xs = pairs + xs[-1:] if len(xs) % 2 else pairs
        return xs[0]

    def multiply(self, x: TreePair, y: TreePair) -> TreePair:
        letter = _as_letter(y)
        if letter:
            return _times_letter(x, *letter)
        letter = _as_letter(x)
        if letter:
            # x_k^e y = (y^-1 x_k^-e)^-1
            k, e = letter
            domain, rng = _times_letter(TreePair(y.range, y.domain), k, -e)
            return TreePair(rng, domain)
        below_x, below_y = _refine(x.range, y.domain)
        return _reduced(_graft(x.domain, below_x), _graft(y.range, below_y))

    def right_multiplier(self, y: TreePair):
        letter = _as_letter(y)
        if letter:
            k, e = letter
            return lambda x: _times_letter(x, k, e)
        return super().right_multiplier(y)

    def inverse(self, x: TreePair) -> TreePair:
        return TreePair(x.range, x.domain)

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


NormalForm = tuple[int, ...]


def _append_generator(nf: NormalForm, q: int) -> NormalForm:
    # Right-multiplying a normal form by x_q: every trailing index p > q is
    # bumped to p+1 and q is inserted before them.
    cut = len(nf)
    while cut > 0 and nf[cut - 1] > q:
        cut -= 1
    return nf[:cut] + (q,) + tuple(p + 1 for p in nf[cut:])


def pos_normalize(w: Word) -> NormalForm:
    """Normal form of a positive word over x0, x1, ..., built by reading it
    right to left and multiplying each letter on the left.

    The letters read so far form a non-decreasing list.  A new letter x_q
    enters at its front; while the next p is below the letter's index,
    x_q x_p = x_p x_(q+1) moves the letter past p, raising its index by
    one and leaving p as it is.  It stops before the first p at or above
    its index, above every letter it passed and below none after it, so
    the list stays non-decreasing: the monoid's normal form."""
    for gen, exp in w:
        if exp != 1:
            raise NegativeExponentError(f"positive word expected, found {gen}^-1")
    nf: list[int] = []
    for gen, _ in reversed(w):
        q = gen.index
        j = 0
        for p in nf:
            if p >= q:
                break
            q += 1
            j += 1
        nf.insert(j, q)
    return tuple(nf)


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Product of two coefficient lists of equal length, truncated to it."""
    out = [0] * len(p)
    for i, c in enumerate(p):
        if c:
            for j, d in enumerate(q[: len(p) - i]):
                out[i + j] += c * d
    return out


def posmon_ball_size(length: int, max_index: int | None) -> int:
    """Number of positive elements of F with a word of at most ``length``
    letters over x0 .. x_K, K = ``max_index`` (1 when it is None), K >= 0.

    A positive element is a forest diagram (Belk and Brown, "Forest
    diagrams for elements of Thompson's group F", IJAC 15, 2005): binary
    trees hanging from roots 0, 1, 2, ..., all but finitely many a bare
    leaf, distinct forests for distinct elements.  Multiplying by x_q on
    the left joins the trees at roots q and q+1 under a new caret at root
    q and moves every later tree one root to the left, so each letter adds
    one caret and every word of an element has as many letters as it has
    carets.  For a caret v let r(v) be the root of its tree and s(v) the
    number of right steps from that root down to v.  The element has a word
    over x0 .. x_K exactly when r(v) + s(v) <= K for every caret v:

    - each letter keeps the condition: the new caret has r + s = q <= K,
      the carets of the right tree trade one root for one right step, and
      no other caret's r + s grows;
    - conversely, the root caret of the rightmost nontrivial tree, at root
      q, has r + s = q <= K, and splitting it off gives a forest that
      keeps the condition (only trivial trees move right), has one caret
      less and gives the element back when multiplied on the left by x_q.

    So the tree at root r is one whose carets all have s <= K - r, and
    there is none past root K.  Let t(n, d) count the trees with n carets
    and all s <= d: t(0, d) = 1, t(n, -1) = 0 for n >= 1, and
    t(n, d) = sum over i + j = n - 1 of t(i, d) t(j, d - 1), the left
    subtree keeping the bound and the right one losing a step.  With
    G_d(z) = sum over n of t(n, d) z^n, the ball has
    sum over k <= L of [z^k] prod over r = 0 .. K of G_(K-r)(z) elements.
    No tree with n <= L carets has s >= L, so every G_d with d >= L agrees
    with G_L up to z^L, and the product takes their power by squaring.
    """
    K = 1 if max_index is None else max_index
    top = min(K, length)
    rows = [[1] + [0] * length]  # t(., d) for d = -1, 0, .., top
    for _ in range(top + 1):
        below, row = rows[-1], [1]
        for n in range(1, length + 1):
            row.append(sum(row[i] * below[n - 1 - i] for i in range(n)))
        rows.append(row)
    total = [1] + [0] * length
    for row in rows[1:]:
        total = _poly_mul(total, row)
    power, extra = rows[-1], K - top  # the factors G_d with top < d <= K
    while extra:
        if extra & 1:
            total = _poly_mul(total, power)
        power = _poly_mul(power, power)
        extra >>= 1
    return sum(total)


def posmon_in_ball(x: NormalForm, length: int, max_index: int | None) -> bool:
    """Whether the positive element ``x`` has a word of at most ``length``
    letters over x0 .. x_K, K = ``max_index`` (1 when it is None), K >= 0:
    by the forest criterion of ``posmon_ball_size``, it has at most
    ``length`` carets and r + s <= K for every caret."""
    K = 1 if max_index is None else max_index
    # the largest s over the carets of the tree at each root, -1 for a bare
    # leaf; the normal form's letters join trees from its last one back
    heights: list[int] = []
    for q in reversed(x):
        heights += [-1] * (q + 2 - len(heights))
        heights[q : q + 2] = [max(0, heights[q], heights[q + 1] + 1)]
    return len(x) <= length and all(r + h <= K for r, h in enumerate(heights) if h >= 0)


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

    def ball_size(self, length: int, max_index: int | None = None) -> int:
        return posmon_ball_size(length, max_index)

    def in_ball(self, x: NormalForm, length: int, max_index: int | None = None) -> bool:
        return posmon_in_ball(x, length, max_index)

    def envelope(self) -> FBackend:
        return self._envelope

    def embed_to_envelope(self, x: NormalForm) -> TreePair:
        return self._envelope.from_word([(self.alphabet.generator(i), 1) for i in x])
