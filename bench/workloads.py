"""The three workloads: their operations, generated from a seed, and the
checks that judge each operation's output against ``oracles``.

An operation is one CLI invocation.  ``check(code, out)`` raises
``CheckError`` when the exit code or the output is wrong; it reads only the
output text and the oracles, never a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from oracles import (
    PosmonOracle,
    PLOracle,
    indexed_text,
    invert,
    left_image,
    named_text,
    oracle_for,
    parse_text,
    signed_solutions,
)

EXIT_OK, EXIT_EXHAUSTED = 0, 3
VERIFIED = "verified: ok\n"


class CheckError(Exception):
    pass


def need(cond, message) -> None:
    if not cond:
        raise CheckError(message)


class Op:
    """One CLI call; ``save`` names a file in the run directory that gets
    the call's standard output, for a later ``verify`` or ``extract``."""

    __slots__ = ("argv", "check", "save")

    def __init__(self, argv, check, save=None):
        self.argv = argv
        self.check = check
        self.save = save


def _verify_op(path):
    def check(code, out):
        need(code == EXIT_OK and out == VERIFIED, f"verify said {code}: {out!r}")

    return Op(["verify", path], check)


# ---------------------------------------------------------------------------
# ore-roundtrip
# ---------------------------------------------------------------------------

# Unsigned slices (backend, a, b, n, L, K).  The paper proves that Z+[M] has
# no common right multiple of 1+a and 1+b for MB_2 with (a, b), and for the
# positive monoid of F with (x0, x1); in F itself a solution would spell an
# alternating relation in x0, x1, and those are nontrivial.  So every one of
# these slices must end exhausted.
#
# The largest is posmon (7,5,5), 0.2 s with its pool of 1,785 elements.
# (7,6,6), with 10,605 elements, takes 1.5 s and as long again to verify:
# two thirds of a round, so a 30-second run would call it only about 8
# times, and the fastest of so few calls moves by a fifth between runs.
THEOREM_SLICES = [
    ("posmon", "x0", "x1", 7, 5, 5),
    ("posmon", "x0", "x1", 6, 5, 5),
    ("posmon", "x0", "x1", 5, 5, 5),
    ("posmon", "x0", "x1", 4, 4, 4),
    ("mb:2", "a", "b", 6, 4, None),
    ("mb:2", "a", "b", 5, 4, None),
    ("mb:2", "a", "b", 5, 3, None),
    ("mb:2", "a", "b", 4, 3, None),
    ("f", "x0", "x1", 6, 3, 3),
    ("f", "x0", "x1", 5, 4, 2),
    ("f", "x0", "x1", 5, 3, 3),
    ("f", "x0", "x1", 4, 3, 2),
]

# Signed slices (backend, a, b, signs, n, L, K, c), small enough for the
# meet-in-the-middle enumeration.
SIGNED_SLICES = [
    ("mb:2", "a", "b", "mm", 3, 2, None, 1),
    ("mb:2", "a", "b", "mp", 2, 2, None, 1),
    ("mb:2", "a", "b", "pp", 2, 2, None, 1),
    ("mb:2", "a", "b", "pm", 2, 2, None, 1),
    ("posmon", "x0", "x1", "mm", 3, 2, 2, 1),
    ("posmon", "x0", "x1", "pp", 2, 2, 2, 1),
    ("posmon", "x0", "x1", "pm", 2, 2, 2, 2),
    ("f", "x0", "x1", "mm", 3, 2, 1, 1),
    ("f", "x0", "x1", "pp", 2, 2, 1, 1),
]

# Seeded (a, b) pairs in Z^3, each searched unsigned and signed.  Their 72
# calls are cheap, so the median operation falls among the many small
# exhaustions and verifies of like cost instead of in the sparse middle of
# the fixed grid.
ZM3_PAIRS = 12
ZM3_SIGNS = ("mm", "pp", "pm")


def _search_argv(cmd, backend, a, b, n, L, K):
    argv = [cmd, "--backend", backend, "--a", a, "--b", b,
            "--max-support", str(n), "--pool-len", str(L), "--format", "json"]
    if K is not None:
        argv += ["--pool-idx", str(K)]
    return argv


def _instance(doc, backend, a, b, n, L, K, c=None):
    """Check the instance fields of a certificate; return the oracle and
    its a, b."""
    orc = oracle_for(backend)
    ea, eb = orc.word(parse_text(a)), orc.word(parse_text(b))
    need(doc["backend"] == backend, "backend field")
    need(orc.parse(doc["a"]) == ea and orc.parse(doc["b"]) == eb, "a/b fields")
    # named backends ignore --pool-idx, which the CLI then reports as its default 2
    want = {"n": n, "L": L, "K": 2 if K is None else K, "c": c}
    need(doc["bounds"] == want, f"bounds {doc['bounds']}")
    return orc, ea, eb


def _check_solution(doc, orc, ea, eb, n, pool):
    U = [orc.parse(s) for s in doc["U"]]
    V = [orc.parse(s) for s in doc["V"]]
    need(1 <= len(U) == len(V) <= n, f"|U|={len(U)} |V|={len(V)} n={n}")
    need(all(x in pool for x in U + V), "support outside the pool")
    lhs = left_image(orc, ea, 1, [(1, x) for x in U])
    rhs = left_image(orc, eb, 1, [(1, x) for x in V])
    need(lhs == rhs, "(1+a)U != (1+b)V")
    need(doc["verified"] is True, "verified flag")
    return U, V


def _theorem_ops(i, tmp, backend, a, b, n, L, K):
    path = os.path.join(tmp, f"exhausted{i}.json")

    def check(code, out):
        doc = json.loads(out)
        need(code == EXIT_EXHAUSTED and doc["kind"] == "exhausted",
             f"{backend} {a}/{b} n={n} L={L}: not exhausted (exit {code})")
        orc, _, _ = _instance(doc, backend, a, b, n, L, K)
        need(doc["mode"] == "unsigned", "mode")
        need(doc["pool_size"] == len(orc.ball(L, K)), "pool size")

    return [Op(_search_argv("ore-search", backend, a, b, n, L, K), check, path),
            _verify_op(path)]


def _zm_solution_ops(i, tmp, a, b, n, L):
    sol = os.path.join(tmp, f"solution{i}.json")
    rel = os.path.join(tmp, f"relations{i}.json")
    found = {}

    def check_search(code, out):
        doc = json.loads(out)
        need(code == EXIT_OK and doc["kind"] == "solution",
             f"zm:3 {a}/{b}: no solution (exit {code})")
        orc, ea, eb = _instance(doc, "zm:3", a, b, n, L, None)
        # (1+a)(1+b) = (1+b)(1+a) lies inside the slice, so one must be found
        found["U"], found["V"] = _check_solution(doc, orc, ea, eb, n, orc.ball(L, None))

    def check_extract(code, out):
        doc = json.loads(out)
        need(code == EXIT_OK and doc["kind"] == "relations", f"extract exit {code}")
        orc = oracle_for("zm:3")
        ea, eb = orc.word(parse_text(a)), orc.word(parse_text(b))
        U = [orc.parse(s) for s in doc["U"]]
        need(sorted(U) == sorted(found.get("U", U)), "extract changed U")
        letters = 0
        for text in doc["relations"]:
            word = parse_text(text)
            need(len(word) % 2 == 0 and all(g == k % 2 for k, (g, _) in enumerate(word)),
                 f"relation {text!r} does not alternate a, b")
            value = orc.identity
            for g, e in word:
                x = ea if g == 0 else eb
                value = orc.mul(value, x if e > 0 else orc.inv(x))
            need(value == orc.identity, f"relation {text!r} is not 1")
            letters += len(word)
        # every a-edge and b-edge is read exactly once
        need(letters == 2 * len(U) == len(doc["vertices"]), "edge count")

    return [
        Op(_search_argv("ore-search", "zm:3", a, b, n, L, None), check_search, sol),
        Op(["extract", sol, "--format", "json"], check_extract, rel),
        _verify_op(sol),
        _verify_op(rel),
    ]


def _signed_ops(i, tmp, backend, a, b, signs, n, L, K, c):
    path = os.path.join(tmp, f"signed{i}.json")
    argv = _search_argv("ore-signed", backend, a, b, n, L, K)
    argv += ["--signs=" + signs, "--coeff-bound", str(c)]

    def check(code, out):
        doc = json.loads(out)
        orc, ea, eb = _instance(doc, backend, a, b, n, L, K, c)
        pool = orc.ball(L, K)
        sgn = tuple(1 if s == "p" else -1 for s in signs)
        need(doc["mode"] == "signed" and doc["signs"] == signs.replace("p", "+").replace("m", "-"),
             "mode/signs")
        need(doc["pool_size"] == len(pool), "pool size")
        count = signed_solutions(orc, ea, eb, sgn, pool, n, c)
        if code == EXIT_EXHAUSTED:
            need(doc["kind"] == "exhausted", "kind")
            need(count == 0, f"claimed exhausted, enumeration finds {count} solutions")
            return
        need(code == EXIT_OK and doc["kind"] == "signed", f"exit {code}")
        need(count > 0, "solution reported where the enumeration finds none")
        sides = []
        for terms in (doc["u"], doc["v"]):
            elems = [(lam, orc.parse(s)) for lam, s in terms]
            need(len(elems) <= n and all(0 < abs(lam) <= c for lam, _ in elems), "bounds")
            need(len({g for _, g in elems}) == len(elems), "repeated support element")
            need(all(g in pool for _, g in elems), "support outside the pool")
            sides.append(elems)
        need(sides[0] or sides[1], "u = v = 0")
        need(left_image(orc, ea, sgn[0], sides[0]) == left_image(orc, eb, sgn[1], sides[1]),
             "(1 +/- a)u != (1 +/- b)v")

    return [Op(argv, check, path), _verify_op(path)]


def _zm3_element(rng):
    """A nonzero element of Z^3 of word length at most 2."""
    while True:
        word = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.choice((1, 2)))]
        if oracle_for("zm:3").word(word) != (0, 0, 0):
            return named_text(word)


def ore_roundtrip(rng, tmp):
    groups = []
    for i, s in enumerate(THEOREM_SLICES):
        groups.append(_theorem_ops(i, tmp, *s))
    for i in range(ZM3_PAIRS):
        a, b = _zm3_element(rng), _zm3_element(rng)
        groups.append(_zm_solution_ops(i, tmp, a, b, 2, 2))
        groups.append(_signed_ops(len(SIGNED_SLICES) + i, tmp, "zm:3", a, b,
                                  ZM3_SIGNS[i % len(ZM3_SIGNS)], 2, 1, None, 1))
    for i, s in enumerate(SIGNED_SLICES):
        groups.append(_signed_ops(i, tmp, *s))
    return groups


# ---------------------------------------------------------------------------
# f-words
# ---------------------------------------------------------------------------

F_RANDOM_LENGTHS = (50, 100, 200, 200, 200, 200, 400, 800)
F_TRIVIAL_LENGTHS = (60, 200, 500, 800)
POSMON_LENGTHS = (10, 25, 50, 100, 200, 400)
ALT_LENGTHS = (12, 24, 36, 48, 60, 72, 84, 96)


def _random_f_word(rng, length):
    return [(rng.randrange(4), rng.choice((1, -1))) for _ in range(length)]


def _trivial_f_word(rng, length):
    """Products of conjugates c r c^-1 of relators r = x_j x_i x_{j+1}^-1
    x_i^-1 (i < j) and their inverses, so the word is 1 in F."""
    word = []
    while len(word) < length:
        i = rng.randrange(3)
        j = rng.randrange(i + 1, 4)
        r = [(j, 1), (i, 1), (j + 1, -1), (i, -1)]
        if rng.random() < 0.5:
            r = invert(r)
        c = _random_f_word(rng, rng.randrange(0, 12))
        word += c + r + invert(c)
    return word


def _alternating_word(rng, length, balanced):
    """Subscripts alternate even (x0, x2) and odd (x1, x3).  A balanced word
    has length/4 (rounded down to even) x0-letters with exponent sum zero,
    so its trace always takes that many conjugation steps at the first
    level before it can reach a witness.  Any other word is drawn again
    until the exponent sum of its lowest generator is nonzero, so that its
    trace is one witness step: a word drawn at random hits sum zero now and
    then and takes about length/8 steps, which would make the work of a
    round depend on the seed."""
    while True:
        subs = [rng.choice((0, 2)) if k % 2 == 0 else rng.choice((1, 3)) for k in range(length)]
        exps = [rng.choice((1, -1)) for _ in range(length)]
        if balanced:
            count = length // 4 - (length // 4) % 2
            zeros = set(rng.sample(range(0, length, 2), count))
            signs = [1, -1] * (count // 2)
            rng.shuffle(signs)
            for k in range(0, length, 2):
                subs[k] = 0 if k in zeros else 2
            for k, s in zip(sorted(zeros), signs):
                exps[k] = s
            return list(zip(subs, exps))
        alpha = min(subs)
        if sum(e for g, e in zip(subs, exps) if g == alpha):
            return list(zip(subs, exps))


def _wp_op(word, trivial_by_construction=False):
    text = indexed_text(word)

    def check(code, out):
        trivial = PLOracle().word(word) == PLOracle.identity
        need(code == EXIT_OK and out == ("trivial\n" if trivial else "nontrivial\n"),
             f"wp of a length-{len(word)} word: {out!r}, PL map says trivial={trivial}")
        need(trivial or not trivial_by_construction, "relator product is not 1")

    return Op(["wp", "--backend", "f", text], check)


def _canon_f_op(word):
    def check(code, out):
        pl = PLOracle()
        need(code == EXIT_OK and pl.parse(out.strip()) == pl.word(word),
             f"canon of a length-{len(word)} word disagrees with its PL map")

    return Op(["canon", "--backend", "f", indexed_text(word)], check)


def _canon_posmon_op(word):
    def check(code, out):
        pm = PosmonOracle()
        need(code == EXIT_OK and out == pm.text(pm.word(word)) + "\n",
             f"posmon canon of a length-{len(word)} word: {out[:60]!r}")

    return Op(["canon", "--backend", "posmon", indexed_text(word)], check)


def _alt_ops(i, tmp, word):
    path = os.path.join(tmp, f"trace{i}.json")
    text = indexed_text(word)

    def check(code, out):
        doc = json.loads(out)
        need(code == EXIT_OK and doc["kind"] == "trace", f"alt-trace exit {code}")
        need(doc["verdict"] == "nontrivial", f"verdict {doc['verdict']!r}")
        need(doc["word"] == text, "trace of another word")
        steps = doc["steps"]
        need(steps and steps[0]["input"] == text, "first step input")
        need(all(p["output"] == q["input"] for p, q in zip(steps, steps[1:])), "broken chain")
        last = steps[-1]
        need(last["rule"] == "witness", "no witness step")
        final = parse_text(last["input"])
        alpha = min(g for g, _ in final)
        total = sum(e for g, e in final if g == alpha)
        need(total != 0 and last["witness"] == f"exponent sum of x{alpha} is {total:+d}",
             f"witness {last['witness']!r}")
        need(PLOracle().word(word) != PLOracle.identity, "alternating word is 1 in F")

    return [Op(["alt-trace", text], check, path), _verify_op(path)]


def f_words(rng, tmp):
    groups = []
    # Several words of each length, so one costly word moves the round less,
    # and most of length 200, so the median operation is an F word problem.
    for length in F_RANDOM_LENGTHS * 2:
        groups.append([_wp_op(_random_f_word(rng, length))])
        groups.append([_canon_f_op(_random_f_word(rng, length))])
    for length in F_TRIVIAL_LENGTHS * 2:
        groups.append([_wp_op(_trivial_f_word(rng, length), True)])
    for length in POSMON_LENGTHS:
        groups.append([_canon_posmon_op([(rng.randrange(6), 1) for _ in range(length)])])
    for length in ALT_LENGTHS:
        for balanced in (False, True):
            groups.append(_alt_ops(len(groups), tmp, _alternating_word(rng, length, balanced)))
    return groups


# ---------------------------------------------------------------------------
# folner-grow
# ---------------------------------------------------------------------------

# (backend, budgets).  mb:2, f and posmon do not reach epsilon <= 1/2 within
# these budgets, so the greedy grower always runs to the budget and the cost
# does not depend on the seeded epsilon.  The budget-5 rungs are cheap calls
# of every backend; with the verifies they put the median operation inside
# a run of calls of like cost rather than at the edge of one.
#
# No rung costs more than about 0.15 s.  mb:2 at budget 40 (0.9 s) and f at
# 30 (0.7 s) would take over half of a round, so a run would call each only
# about 10 times, and `run_s`, which counts each call at its fastest, would
# rest on those few calls and move by a fifth between runs.
FOLNER_LADDER = [
    ("mb:2", (5, 10, 15, 20, 25)),
    ("f", (5, 10, 15, 20)),
    ("posmon", (5, 10, 20, 25, 30)),
    ("zm:2", (5, 25, 50, 100)),
]
EPSILONS = ("1/2", "1/3", "1/4")
DELTAS = (None, "1/2", "2/3")
# zm:2 stops as soon as it reaches epsilon, so a seeded epsilon would make
# the work depend on the seed.  Its epsilon is fixed per budget instead:
# 1/2 is reached at 21 elements, 1/3 at 43 and 1/4 at 73; size 4 at budget 5
# reaches none.
ZM2_EPSILON = {5: "1/2", 25: "1/2", 50: "1/3", 100: "1/4"}


def _folner_ops(i, tmp, backend, budget, epsilon, delta):
    path = os.path.join(tmp, f"folner{i}.json")
    argv = ["folner", "--backend", backend, "--epsilon", epsilon,
            "--budget", str(budget), "--format", "json"]
    if delta is not None:
        argv += ["--delta", delta]
    labels = ["a", "b"] if backend.startswith(("zm", "mb")) else ["x0", "x1"]

    def check(code, out):
        doc = json.loads(out)
        need(doc["kind"] == "folner" and doc["backend"] == backend, "kind/backend")
        need(doc["generators"] == labels, f"generators {doc['generators']}")
        orc = oracle_for(backend)
        E = [orc.parse(s) for s in doc["E"]]
        keys = set(E)
        size = len(E)
        need(len(keys) == size == doc["size"] and 1 <= size <= budget, "E size")
        need(orc.identity in keys, "E lost the identity")
        sym_ratios, inter_ratios = [], []
        for label, st in zip(labels, doc["stats"]):
            g = orc.word(parse_text(label))
            inter = sum(1 for e in E if orc.mul(g, e) in keys)
            sym = 2 * (size - inter)
            need(st["generator"] == label and st["intersection"] == inter
                 and st["symdiff"] == sym,
                 f"{backend} budget {budget} {label}: |gE & E| = {inter}, doc {st}")
            need(st["intersection_ratio"]["exact"] == str(Fraction(inter, size))
                 and st["symdiff_ratio"]["exact"] == str(Fraction(sym, size)), "ratios")
            sym_ratios.append(Fraction(sym, size))
            inter_ratios.append(Fraction(inter, size))
        need(len(doc["stats"]) == len(labels), "stats count")
        worst = max(sym_ratios)
        need(doc["max_symdiff_ratio"]["exact"] == str(worst), "max symdiff ratio")
        need(doc["min_intersection_ratio"]["exact"] == str(min(inter_ratios)), "min ratio")
        success = worst < Fraction(epsilon)
        need(doc["success"] is success and doc["epsilon_ok"] is success,
             f"success {doc['success']} but max ratio {worst} vs epsilon {epsilon}")
        need(code == (EXIT_OK if success else EXIT_EXHAUSTED), f"exit {code}")
        want_delta = None if delta is None else min(inter_ratios) > Fraction(delta)
        need(doc["delta_ok"] is want_delta, "delta_ok")

    return [Op(argv, check, path), _verify_op(path)]


def folner_grow(rng, tmp):
    groups = []
    for backend, budgets in FOLNER_LADDER:
        for budget in budgets:
            epsilon = rng.choice(EPSILONS)
            if backend == "zm:2":
                epsilon = ZM2_EPSILON[budget]
            groups.append(_folner_ops(len(groups), tmp, backend, budget,
                                      epsilon, rng.choice(DELTAS)))
    return groups


WORKLOADS = {
    "ore-roundtrip": ore_roundtrip,
    "f-words": f_words,
    "folner-grow": folner_grow,
}


def build(name, seed, tmp):
    """Operations of one round.  The order is fixed, because the peak
    resident memory depends on which operations ran before the largest
    one; an operation that reads another's output runs right after it."""
    rng = random.Random(f"{name}:{seed}")
    return [op for group in WORKLOADS[name](rng, tmp) for op in group]



# ---------------------------------------------------------------------------
# self-test material: outputs the checks must reject
# ---------------------------------------------------------------------------


def _perturb(code, text):
    flips = {"trivial\n": "nontrivial\n", "nontrivial\n": "trivial\n"}
    if text in flips:
        yield "flipped wp verdict", code, flips[text]
        return
    if text.startswith("C"):
        dom, _, rng = text.strip().partition("/")
        yield "inverted tree pair", code, f"{rng}/{dom}\n"
        return
    if text.startswith("x"):
        head, _, last = text.strip().rpartition("x")
        yield "perturbed normal form", code, f"{head}x{int(last) + 1}\n"
        return
    if not text.startswith("{"):
        return
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "solution":
        first = doc["U"][0].strip("()").split(",")
        doc["U"][0] = "(" + ",".join([str(int(first[0]) + 1)] + first[1:]) + ")"
        yield "perturbed solution", code, json.dumps(doc)
    elif kind == "signed":
        side = doc["u"] or doc["v"]
        side[0][0] = -side[0][0]
        yield "perturbed signed solution", code, json.dumps(doc)
    elif kind == "exhausted":
        yield "flipped exhausted verdict", EXIT_OK, text
    elif kind == "trace":
        doc["verdict"] = "trivial"
        yield "flipped trace verdict", code, json.dumps(doc)
    elif kind == "folner":
        doc["success"] = doc["epsilon_ok"] = not doc["success"]
        yield "flipped folner verdict", EXIT_OK if doc["success"] else EXIT_EXHAUSTED, json.dumps(doc)


def perturbations(ops, outputs):
    """(label, op, code, text): one perturbed copy of the first output of
    each kind in a round."""
    seen = set()
    for op, (code, text) in zip(ops, outputs):
        if code not in (EXIT_OK, EXIT_EXHAUSTED):
            continue
        for label, bad_code, bad_text in _perturb(code, text):
            if label not in seen:
                seen.add(label)
                yield label, op, bad_code, bad_text
