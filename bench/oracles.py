"""Reference arithmetic that shares no code with ``src/orecert``.

Each oracle models one backend with its own representation and its own
parser for the program's canonical strings:

* ``ZmOracle``: Z^m as integer vectors, products are vector sums;
* ``FoxOracle``: MB_m as (abelianisation, Fox derivatives projected to
  Z[Z^m]), products by the product rule d(xy) = dx + x.dy;
* ``PLOracle``: Thompson's group F as dyadic piecewise-linear maps of
  [0, 1] with ``Fraction`` breakpoints, the product xy meaning "x, then y";
* ``PosmonOracle``: the positive monoid of F as words brought to normal
  form by bubble rewriting x_j x_i -> x_i x_{j+1} (i < j).

Elements are hashable canonical values, so equality is ``==``.  A word is a
sequence of (generator index, exponent) pairs with exponents +1 or -1;
named letters a, b, c ... have indices 0, 1, 2 ...

``self_check`` runs every oracle on known relations; the benchmark calls
it before it trusts any oracle.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

NAMES = "abcdefghijklmnopqrstuvw"

_TOKEN = re.compile(r"(x\d+|[a-wA-W])(?:\^(-?\d+))?$")


def parse_text(text: str) -> list:
    """Words as the program prints them: ``a b^-1 A x3 x0^-1``."""
    word = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad letter {token!r}")
        name, power = m.group(1), int(m.group(2) or 1)
        if name[0] == "x":
            gen, sign = int(name[1:]), 1
        else:
            gen, sign = NAMES.index(name.lower()), (-1 if name.isupper() else 1)
        total = sign * power
        word.extend([(gen, 1 if total > 0 else -1)] * abs(total))
    return word


def named_text(word) -> str:
    return " ".join(NAMES[g] + ("^-1" if e < 0 else "") for g, e in word)


def indexed_text(word) -> str:
    return " ".join(f"x{g}" + ("^-1" if e < 0 else "") for g, e in word)


def invert(word) -> list:
    return [(g, -e) for g, e in reversed(word)]


class _Oracle:
    is_group = True

    def word(self, word):
        """Product of the letters, evaluated by halving so long words stay
        cheap for the PL oracle."""
        if not word:
            return self.identity
        if len(word) == 1:
            g, e = word[0]
            x = self.gen(g)
            return x if e > 0 else self.inv(x)
        mid = len(word) // 2
        return self.mul(self.word(word[:mid]), self.word(word[mid:]))

    def letters(self, max_index):
        """Pool letters: the generators, and their inverses in a group."""
        gens = [self.gen(i) for i in range(max_index + 1)]
        return gens + ([self.inv(g) for g in gens] if self.is_group else [])

    def ball(self, radius, max_index):
        """Distinct elements of word length at most ``radius``."""
        letters = self.letters(max_index)
        seen = {self.identity}
        frontier = [self.identity]
        for _ in range(radius):
            grown = []
            for x in frontier:
                for s in letters:
                    y = self.mul(x, s)
                    if y not in seen:
                        seen.add(y)
                        grown.append(y)
            frontier = grown
        return seen


class ZmOracle(_Oracle):
    def __init__(self, rank):
        self.rank = rank
        self.identity = (0,) * rank

    def gen(self, i):
        if i >= self.rank:
            raise ValueError(f"generator {i} outside rank {self.rank}")
        return tuple(int(j == i) for j in range(self.rank))

    def mul(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def inv(self, x):
        return tuple(-p for p in x)

    def parse(self, s):
        body = s.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"not a vector: {s!r}")
        t = tuple(int(c) for c in body[1:-1].split(","))
        if len(t) != self.rank:
            raise ValueError(f"rank {len(t)} != {self.rank}")
        return t

    def letters(self, max_index=None):
        return super().letters(self.rank - 1)


def _add_poly(acc: dict, poly, shift, scale) -> None:
    for vec, c in poly:
        k = tuple(p + q for p, q in zip(vec, shift))
        acc[k] = acc.get(k, 0) + scale * c


def _freeze(poly: dict):
    return tuple(sorted((k, c) for k, c in poly.items() if c))


_FLOW_ENTRY = re.compile(r"\(\(([-\d,]+)\),([a-w])\):(-?\d+)")


class FoxOracle(_Oracle):
    """Element = (t, (d_0, ..., d_{m-1})): t the exponent-sum vector, d_i the
    i-th Fox derivative pushed down to Z[Z^m], a sorted tuple of
    (exponent vector, coefficient)."""

    def __init__(self, rank):
        self.rank = rank
        self.identity = ((0,) * rank, ((),) * rank)

    def gen(self, i):
        return self.from_word([(i, 1)])

    def from_word(self, word):
        """Fox calculus letter by letter: d(w x_i) = dw + w.dx_i and
        d(w x_i^-1) = dw - w x_i^-1 . dx_i."""
        prefix = [0] * self.rank
        derivs = [dict() for _ in range(self.rank)]
        for i, e in word:
            if e < 0:
                prefix[i] -= 1
            key = tuple(prefix)
            derivs[i][key] = derivs[i].get(key, 0) + e
            if e > 0:
                prefix[i] += 1
        return tuple(prefix), tuple(_freeze(d) for d in derivs)

    def mul(self, x, y):
        tx, dx = x
        ty, dy = y
        out = []
        for i in range(self.rank):
            acc = dict(dx[i])
            _add_poly(acc, dy[i], tx, 1)
            out.append(_freeze(acc))
        return tuple(p + q for p, q in zip(tx, ty)), tuple(out)

    def inv(self, x):
        tx, dx = x
        t = tuple(-p for p in tx)
        out = []
        for i in range(self.rank):
            acc: dict = {}
            _add_poly(acc, dx[i], t, -1)
            out.append(_freeze(acc))
        return t, tuple(out)

    def parse(self, s):
        head, sep, tail = s.partition("; flow=")
        if not (sep and head.startswith("t=(") and head.endswith(")")):
            raise ValueError(f"not a flow element: {s!r}")
        t = tuple(int(c) for c in head[3:-1].split(","))
        body = tail.strip()
        if not (body.startswith("{") and body.endswith("}")) or len(t) != self.rank:
            raise ValueError(f"not a flow element: {s!r}")
        inner = body[1:-1]
        entries = _FLOW_ENTRY.findall(inner)
        if len(entries) != (inner.count(":") if inner else 0):
            raise ValueError(f"bad flow entries in {s!r}")
        derivs = [dict() for _ in range(self.rank)]
        for base, name, value in entries:
            vec = tuple(int(c) for c in base.split(","))
            derivs[NAMES.index(name)][vec] = int(value)
        return t, tuple(_freeze(d) for d in derivs)

    def letters(self, max_index=None):
        return super().letters(self.rank - 1)


_ONE = Fraction(1)
_ZERO = Fraction(0)


def _normal_pl(points):
    """Drop breakpoints where the slope does not change."""
    out = [points[0]]
    for k in range(1, len(points) - 1):
        (x0, y0), (x1, y1), (x2, y2) = out[-1], points[k], points[k + 1]
        if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
            out.append(points[k])
    out.append(points[-1])
    return tuple(out)


def _leaf_cuts(tree: str):
    """Interval endpoints of the leaves of a caret string, read without
    recursion: 'C' splits the current dyadic interval, 'L' closes it."""
    cuts = [_ZERO]
    stack = [(_ZERO, _ONE)]
    for pos, ch in enumerate(tree):
        if not stack:
            raise ValueError(f"trailing characters in tree {tree!r}")
        lo, hi = stack.pop()
        if ch == "C":
            mid = (lo + hi) / 2
            stack.append((mid, hi))
            stack.append((lo, mid))
        elif ch == "L":
            cuts.append(hi)
        else:
            raise ValueError(f"bad tree character {ch!r} at {pos}")
    if stack:
        raise ValueError(f"truncated tree {tree!r}")
    return cuts


class PLOracle(_Oracle):
    """F as increasing dyadic PL homeomorphisms of [0, 1]: a tuple of
    breakpoints (x, y) from (0, 0) to (1, 1), with no collinear interior
    point, so equal maps have equal tuples."""

    identity = ((_ZERO, _ZERO), (_ONE, _ONE))

    def __init__(self):
        self._gens = {}

    def gen(self, i):
        x = self._gens.get(i)
        if x is None:
            # x_i is the identity left of s = 1 - 2^-i and a copy of x_0,
            # (1/4 -> 1/2, 1/2 -> 3/4), scaled into [s, 1].
            w = Fraction(1, 2**i)
            s = 1 - w
            pts = [(_ZERO, _ZERO)] + ([(s, s)] if i else [])
            pts += [(s + w / 4, s + w / 2), (s + w / 2, s + 3 * w / 4), (_ONE, _ONE)]
            x = self._gens[i] = tuple(pts)
        return x

    def mul(self, f, g):
        """The map "apply f, then g", breakpoints merged in one sweep over
        the images of f's breakpoints and g's breakpoints."""
        ys = sorted({y for _, y in f} | {u for u, _ in g})
        out = []
        i = j = 0
        for y in ys:
            while f[i + 1][1] < y:
                i += 1
            while g[j + 1][0] < y:
                j += 1
            (x0, y0), (x1, y1) = f[i], f[i + 1]
            (u0, v0), (u1, v1) = g[j], g[j + 1]
            x = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            z = v0 + (y - u0) * (v1 - v0) / (u1 - u0)
            out.append((x, z))
        return _normal_pl(out)

    def inv(self, f):
        return tuple((y, x) for x, y in f)

    def apply(self, f, x):
        for (x0, y0), (x1, y1) in zip(f, f[1:]):
            if x0 <= x <= x1:
                return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
        raise ValueError(f"{x} outside [0, 1]")

    def parse(self, s):
        dom, sep, rng = s.partition("/")
        if not sep:
            raise ValueError(f"not a tree pair: {s!r}")
        xs, ys = _leaf_cuts(dom), _leaf_cuts(rng)
        if len(xs) != len(ys):
            raise ValueError("leaf counts differ")
        return _normal_pl(list(zip(xs, ys)))


class PosmonOracle(_Oracle):
    """Positive monoid of F: a non-decreasing index tuple."""

    is_group = False
    identity = ()

    def gen(self, i):
        return (i,)

    def inv(self, x):
        raise ValueError("the positive monoid has no inverses")

    @staticmethod
    def normal(indices):
        """Append letters one at a time and bubble each new letter left,
        one application of x_j x_i -> x_i x_{j+1} per swap."""
        seq: list = []
        for q in indices:
            seq.append(q)
            k = len(seq) - 1
            while k > 0 and seq[k - 1] > seq[k]:
                j, i = seq[k - 1], seq[k]
                seq[k - 1], seq[k] = i, j + 1
                k -= 1
        return tuple(seq)

    @staticmethod
    def normal_by_passes(indices):
        """The same rewriting applied at the leftmost violation, pass after
        pass; used only to check confluence."""
        seq = list(indices)
        changed = True
        while changed:
            changed = False
            for k in range(len(seq) - 1):
                if seq[k] > seq[k + 1]:
                    seq[k], seq[k + 1] = seq[k + 1], seq[k] + 1
                    changed = True
        return tuple(seq)

    def word(self, word):
        if any(e < 0 for _, e in word):
            raise ValueError("negative letter in a positive word")
        return self.normal([g for g, _ in word])

    def mul(self, x, y):
        return self.normal(x + y)

    def parse(self, s):
        s = s.strip()
        if s == "1":
            return ()
        word = parse_text(s)
        nf = tuple(g for g, _ in word)
        if any(e < 0 for _, e in word) or list(nf) != sorted(nf):
            raise ValueError(f"not a normal form: {s!r}")
        return nf

    def text(self, x) -> str:
        return " ".join(f"x{i}" for i in x) if x else "1"


def oracle_for(backend: str):
    kind, _, arg = backend.partition(":")
    if kind == "zm":
        return ZmOracle(int(arg))
    if kind == "mb":
        return FoxOracle(int(arg))
    if kind == "f":
        return PLOracle()
    if kind == "posmon":
        return PosmonOracle()
    raise ValueError(f"no oracle for {backend!r}")


# ---------------------------------------------------------------------------
# monoid-ring images and the signed meet-in-the-middle enumeration
# ---------------------------------------------------------------------------


def left_image(oracle, factor, sign, terms) -> dict:
    """(1 + sign * factor) * sum(coeff * g) as {element: coefficient}."""
    out: dict = {}
    for coeff, g in terms:
        for elem, c in ((g, coeff), (oracle.mul(factor, g), sign * coeff)):
            out[elem] = out.get(elem, 0) + c
    return {k: c for k, c in out.items() if c}


def signed_solutions(oracle, a, b, signs, pool, n, c) -> int:
    """Number of pairs (u, v), not both zero, with (1 + sa a) u =
    (1 + sb b) v, supports of at most n pool elements per side and
    coefficients in [-c, c] without zero.  Each side's images are tabulated
    once, then matched through a dictionary."""
    sa, sb = signs
    pool = sorted(pool)
    coeffs = [k for m in range(1, c + 1) for k in (m, -m)]
    img_a = {g: ((g, 1), (oracle.mul(a, g), sa)) for g in pool}
    img_b = {g: ((g, 1), (oracle.mul(b, g), sb)) for g in pool}

    def images(table):
        for k in range(n + 1):
            for support in itertools.combinations(pool, k):
                for lams in itertools.product(coeffs, repeat=k):
                    acc: dict = {}
                    for g, lam in zip(support, lams):
                        for elem, s in table[g]:
                            acc[elem] = acc.get(elem, 0) + s * lam
                    yield frozenset((e, v) for e, v in acc.items() if v)

    left: dict = {}
    for img in images(img_a):
        left[img] = left.get(img, 0) + 1
    total = sum(left.get(img, 0) for img in images(img_b))
    return total - 1  # u = v = 0


# ---------------------------------------------------------------------------
# self-checks on known relations
# ---------------------------------------------------------------------------


def _random_word(rng, gens, length, positive=False):
    return [(rng.randrange(gens), 1 if positive or rng.random() < 0.5 else -1)
            for _ in range(length)]


def self_check() -> None:
    """Raise AssertionError unless every oracle reproduces known facts."""
    rng = random.Random(20210101)

    z = ZmOracle(3)
    assert z.word(parse_text("a b A B")) == z.identity
    assert z.word(parse_text("a^2 c")) == (2, 0, 1)
    assert z.parse("(2,0,-1)") == (2, 0, -1)
    assert len(z.ball(2, None)) == 25  # |x|_1 <= 2 in Z^3

    fox = FoxOracle(2)
    comm = parse_text("a b A B")
    assert fox.word(comm) != fox.identity
    # metabelian law: [a,b] commutes with its conjugate by a
    conj = invert(parse_text("a")) + comm + parse_text("a")
    assert fox.word(comm + conj + invert(comm) + invert(conj)) == fox.identity
    assert fox.word(parse_text("a A b B")) == fox.identity
    for _ in range(50):
        u = _random_word(rng, 2, rng.randrange(12))
        v = _random_word(rng, 2, rng.randrange(12))
        assert fox.from_word(u + v) == fox.mul(fox.from_word(u), fox.from_word(v))
        assert fox.word(u) == fox.from_word(u)
        assert fox.mul(fox.word(u), fox.inv(fox.word(u))) == fox.identity
    assert fox.parse("t=(1,0); flow={((0,0),a):1}") == fox.gen(0)
    assert fox.parse("t=(0,0); flow={}") == fox.identity
    assert len(fox.ball(2, None)) == 17  # no relation of length <= 4 but [a,b]

    pl = PLOracle()
    for i in range(5):
        for j in range(i + 1, 6):
            assert pl.mul(pl.gen(j), pl.gen(i)) == pl.mul(pl.gen(i), pl.gen(j + 1))
    assert pl.mul(pl.gen(0), pl.gen(1)) != pl.mul(pl.gen(1), pl.gen(0))
    # [x0 x1^-1, x0^-1 x1 x0] = 1, the second defining relation of F
    p, q = parse_text("x0 x1^-1"), parse_text("x0^-1 x1 x0")
    assert pl.word(invert(p) + invert(q) + p + q) == pl.identity
    assert pl.parse("CCLLL/CLCLL") == pl.gen(0)
    assert pl.parse("CLCLCCLLL/CLCLCLCLL") == pl.gen(2)
    assert pl.parse("L/L") == pl.identity == pl.parse("CLL/CLL")
    assert pl.apply(pl.gen(0), Fraction(1, 8)) == Fraction(1, 4)
    for _ in range(30):
        u = _random_word(rng, 4, rng.randrange(20))
        assert pl.mul(pl.word(u), pl.word(invert(u))) == pl.identity
        v = _random_word(rng, 4, rng.randrange(20))
        assert pl.word(u + v) == pl.mul(pl.word(u), pl.word(v))

    pm = PosmonOracle()
    assert pm.word(parse_text("x1 x0")) == (0, 2)
    assert pm.word(parse_text("x2 x1 x0")) == (0, 2, 4)
    for _ in range(50):
        w = [g for g, _ in _random_word(rng, 5, rng.randrange(15), positive=True)]
        nf = pm.normal(w)
        assert nf == pm.normal_by_passes(w) and list(nf) == sorted(nf)
        # the positive monoid embeds in F: a word and its normal form agree
        assert pl.word([(g, 1) for g in w]) == pl.word([(g, 1) for g in nf])
    assert pm.parse("x0 x2 x4") == (0, 2, 4) and pm.parse("1") == ()

    # meet in the middle: (1-a)(1-b) = (1-b)(1-a) in Z[Z^2], and the
    # solutions of that slice are exactly +/-(1 - b, 1 - a).
    z2 = ZmOracle(2)
    pool = z2.ball(1, None)
    assert signed_solutions(z2, z2.gen(0), z2.gen(1), (-1, -1), pool, 2, 1) == 2
    assert signed_solutions(z2, z2.gen(0), z2.gen(0), (1, 1), [z2.identity], 1, 1) == 2
