"""Self-contained JSON certificates and their re-verification.

Each certificate kind is derived by one function from typed inputs; the CLI
calls it to emit a document, and ``verify`` reads the inputs back from a
document, derives it again and accepts only if the two serialise to the
same bytes.  Claims a derivation cannot reproduce are checked on their own:
an exhaustion re-runs its search through ``ore.solve``, as the CLI ran it,
a signed solution has its bounds checked, and a solution's |U| and |V|
must not exceed n.  All documents are serialised with sorted keys so
byte-identical output is a function of content only.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import NotEmbeddableError, OrecertError, VerificationError
from .folner import check_delta, check_epsilon, folner_ratios
from .groups import alt_trace, make_backend
from .ore import (
    Exhausted,
    OreInstance,
    Solution,
    SignedSolution,
    build_relation_graph,
    enumerate_pool,
    expand_signed,
    extract_cycles,
    make_instance,
    relation_to_solution,
    solve,
    verify_solution,
)
from .semiring import sr_text
from .words import Alphabet, is_alternating, parse_word, print_word

LABEL_ALPHABET = Alphabet.named("ab")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _signs_str(signs: tuple[int, int]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _signs_from_str(s: str) -> tuple[int, int]:
    # 'p'/'m' are aliases for '+'/'-' since argparse mangles a bare "--".
    table = {"+": 1, "p": 1, "-": -1, "m": -1}
    if len(s) != 2 or any(ch not in table for ch in s):
        raise ValueError(f"signs must be two of '+'/'-' (or 'p'/'m'), got {s!r}")
    return table[s[0]], table[s[1]]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def _instance_doc(inst: OreInstance) -> dict:
    backend = inst.backend
    return {
        "backend": backend.name,
        "a": backend.canonical_str(inst.a),
        "b": backend.canonical_str(inst.b),
        "bounds": inst.bounds(),
        "mode": "signed" if inst.signed else "unsigned",
        "signs": _signs_str(inst.signs) if inst.signed else None,
        "pool_size": inst.pool_size,
    }


def solution_certificate(inst: OreInstance, sol: Solution) -> dict:
    key_str = inst.backend.canonical_str
    return {
        **_instance_doc(inst),
        "kind": "solution",
        "U": [key_str(x) for x in sol.U],
        "V": [key_str(x) for x in sol.V],
        "lhs": sr_text(sol.lhs),
        "rhs": sr_text(sol.rhs),
        "verified": sol.verified,
    }


def exhausted_certificate(inst: OreInstance) -> dict:
    return {**_instance_doc(inst), "kind": "exhausted", "verified": True}


def signed_certificate(inst: OreInstance, out: SignedSolution) -> dict:
    key_str = inst.backend.canonical_str
    return {
        **_instance_doc(inst),
        "kind": "signed",
        "u": [[c, key_str(g)] for c, g in out.u],
        "v": [[c, key_str(g)] for c, g in out.v],
        "lhs": sr_text(out.lhs),
        "rhs": sr_text(out.rhs),
        "verified": out.verified,
    }


def relations_certificate(inst: OreInstance, sol: Solution) -> dict:
    """The relation graph of a solution and the relations its cycles spell."""
    backend = inst.backend
    graph = build_relation_graph(backend, inst.a, inst.b, sol)
    relations = extract_cycles(graph, backend, inst.a, inst.b)

    def vid(vertex):
        element, occ = vertex
        return f"{backend.canonical_str(element)}#{occ}"

    return {
        **solution_certificate(inst, sol),
        "kind": "relations",
        "vertices": [vid(v) for v in graph.vertices],
        "a_edges": [[vid(e.source), vid(e.target)] for e in graph.a_edges],
        "b_edges": [[vid(e.source), vid(e.target)] for e in graph.b_edges],
        "relations": [print_word(r.word) for r in relations],
        "verified": all(r.verified for r in relations) and sol.verified,
    }


def _outside_pool(inst: OreInstance, elements) -> bool:
    return not set(inst.pool).issuperset(elements)


def rel2sol_certificate(backend, a, b, text: str, length: int, max_index) -> dict:
    """The solution walked from the relation ``text``, or the claim that it
    has none in the pool of the stated bounds: on a monoid no translate by a
    pool element embeds its vertices, on a group the walk, translated so
    that its least vertex is the identity, leaves the pool."""
    word = parse_word(text, LABEL_ALPHABET)
    # a relation of length 2m walks into a solution of mass m
    inst = make_instance(backend, a, b, len(word) // 2, length, max_index)
    try:
        sol = relation_to_solution(backend, a, b, word, pool=inst.pool)
    except NotEmbeddableError:
        reason = "vertices not embeddable in monoid"
    else:
        if not _outside_pool(inst, sol.U + sol.V):
            return solution_certificate(inst, sol)
        reason = f"solution leaves the pool of L = {length}, K = {max_index}"
    return {
        "kind": "rel2sol-failure",
        "backend": backend.name,
        "a": backend.canonical_str(a),
        "b": backend.canonical_str(b),
        "word": text,
        "bounds": {"L": length, "K": max_index},
        "reason": reason,
        "verified": True,
    }


def trace_certificate(word) -> dict:
    trace = alt_trace(word)
    # A step's input is the word the step before put out (the first step's
    # is the trace's word), and a witness step puts out its input, so each
    # word is printed once.
    word_text = output = print_word(trace.word)
    last = trace.word
    steps = []
    for s in trace.steps:
        before = output if s.input_word is last else print_word(s.input_word)
        output = before if s.output_word is s.input_word else print_word(s.output_word)
        last = s.output_word
        steps.append({
            "rule": s.rule,
            "input": before,
            "output": output,
            "alpha": s.alpha,
            "rotation": s.rotation,
            "conjugator": None if s.conjugator is None else print_word(s.conjugator),
            "witness": s.witness,
        })
    return {
        "kind": "trace",
        "word": word_text,
        "steps": steps,
        "verdict": trace.verdict,
        "witness": trace.witness,
        "verified": True,
    }


def _ratio_pair(fr: Fraction) -> dict:
    return {"exact": str(fr), "approx": float(fr)}


def folner_certificate(backend, generators, E, epsilon, delta) -> dict:
    report = folner_ratios(backend, E, generators)
    epsilon_ok = None if epsilon is None else check_epsilon(report, epsilon)
    return {
        "kind": "folner",
        "backend": backend.name,
        "generators": [label for label, _ in generators],
        "E": [backend.canonical_str(e) for e in E],
        "size": report.size,
        "stats": [
            {
                "generator": s.label,
                "intersection": s.intersection,
                "symdiff": s.symdiff,
                "intersection_ratio": _ratio_pair(s.intersection_ratio),
                "symdiff_ratio": _ratio_pair(s.symdiff_ratio),
            }
            for s in report.per_generator
        ],
        "min_intersection_ratio": _ratio_pair(report.min_intersection_ratio),
        "max_symdiff_ratio": _ratio_pair(report.max_symdiff_ratio),
        "epsilon": None if epsilon is None else str(epsilon),
        "delta": None if delta is None else str(delta),
        "epsilon_ok": epsilon_ok,
        "delta_ok": None if delta is None else check_delta(report, delta),
        # success is the claim that E meets epsilon, derived from the ratios
        "success": epsilon_ok is True,
        "verified": True,
    }


def wp_certificate(backend, word) -> dict:
    element = backend.from_word(word)
    return {
        "kind": "wp",
        "backend": backend.name,
        "word": print_word(word),
        "element": backend.canonical_str(element),
        "trivial": backend.is_identity(element),
        "verified": True,
    }


def canon_certificate(backend, word) -> dict:
    return {
        "kind": "canon",
        "backend": backend.name,
        "word": print_word(word),
        "element": backend.canonical_str(backend.from_word(word)),
        "verified": True,
    }


def alt_check_certificate(word, cyclic: bool) -> dict:
    return {
        "kind": "alt-check",
        "word": print_word(word),
        "cyclic": cyclic,
        "alternating": is_alternating(word, cyclic=cyclic),
        "verified": True,
    }


def pool_certificate(backend, length: int, max_index) -> dict:
    return {
        "kind": "pool",
        "backend": backend.name,
        "bounds": {"L": length, "K": max_index},
        "elements": [backend.canonical_str(x) for x in enumerate_pool(backend, length, max_index)],
        "verified": True,
    }


# ---------------------------------------------------------------------------
# reading inputs back from a document
# ---------------------------------------------------------------------------


def _get(doc: dict, key: str, kind: type, optional: bool = False):
    """The field ``key`` of ``doc``, which must have exactly type ``kind``
    (so ``true`` is no int), or be null when ``optional``."""
    value = doc.get(key)
    if value is None and optional:
        return None
    if type(value) is not kind:
        expected = kind.__name__ + (" or null" if optional else "")
        raise OrecertError(f"field {key!r} must be {expected}")
    return value


def _strings(doc: dict, key: str) -> list:
    values = _get(doc, key, list)
    if not all(type(v) is str for v in values):
        raise OrecertError(f"field {key!r} must be a list of strings")
    return values


def _backend(doc: dict):
    return make_backend(_get(doc, "backend", str))


def _fraction(doc: dict, key: str):
    text = _get(doc, key, str, optional=True)
    return None if text is None else Fraction(text)


def _instance(doc: dict) -> OreInstance:
    """The instance a document states.  c chooses the ring: the signs are
    read only when c is set, and ``mode`` and ``signs`` are re-derived."""
    backend = _backend(doc)
    a, b = (backend.element_from_str(_get(doc, key, str)) for key in "ab")
    bounds = _get(doc, "bounds", dict)
    c = _get(bounds, "c", int, optional=True)
    return make_instance(
        backend, a, b,
        _get(bounds, "n", int),
        _get(bounds, "L", int),
        _get(bounds, "K", int, optional=True),
        coeff_bound=c,
        signs=(1, 1) if c is None else _signs_from_str(_get(doc, "signs", str)),
    )


def solution_inputs(doc: dict) -> tuple[OreInstance, Solution]:
    """The instance and the re-verified solution a solution or relations
    document states; |U| and |V| may not exceed its n, and U and V must lie
    in its pool."""
    inst = _instance(doc)
    backend = inst.backend
    U = [backend.element_from_str(s) for s in _strings(doc, "U")]
    V = [backend.element_from_str(s) for s in _strings(doc, "V")]
    if max(len(U), len(V)) > inst.max_support:
        raise VerificationError(f"U or V has more than n = {inst.max_support} elements")
    if _outside_pool(inst, U + V):
        raise VerificationError("U or V has an element outside the pool")
    return inst, verify_solution(backend, inst.a, inst.b, U, V)


def _reverify_signed(inst, u, v) -> SignedSolution:
    backend = inst.backend
    c = inst.coeff_bound
    if c is None:
        raise OrecertError("a signed solution needs a coefficient bound c")
    for name, terms in (("u", u), ("v", v)):
        if len(terms) > inst.max_support:
            raise OrecertError(f"{name} has more than n = {inst.max_support} support elements")
        if len({g for _, g in terms}) != len(terms):
            raise OrecertError(f"{name} repeats a support element")
        if _outside_pool(inst, [g for _, g in terms]):
            raise OrecertError(f"{name} has a support element outside the pool")
        if any(type(lam) is not int or not 1 <= abs(lam) <= c for lam, _ in terms):
            raise OrecertError(f"{name} has a coefficient outside 1..{c} in absolute value")
    if not u and not v:
        raise OrecertError("u = v = 0 is not an admissible solution")
    sol = expand_signed(backend, inst.a, inst.b, inst.signs, u, v)
    if not sol.verified:
        raise OrecertError("signed identity does not hold")
    return sol


def _signed_terms(doc: dict, key: str, backend) -> list:
    terms = _get(doc, key, list)
    if not all(type(t) is list and len(t) == 2 and type(t[1]) is str for t in terms):
        raise OrecertError(f"field {key!r} must be a list of [coefficient, element] pairs")
    return [(lam, backend.element_from_str(g)) for lam, g in terms]


# Each function re-derives the document from the inputs it states; the
# signed bound checks come first so that their messages win, and an
# exhaustion re-runs its search only once the cheap comparison has passed.


def _same(doc: dict, rebuilt: dict) -> None:
    if dumps(rebuilt) != dumps(doc):
        key = min(k for k in doc.keys() | rebuilt.keys()
                  if k not in doc or k not in rebuilt or dumps(doc[k]) != dumps(rebuilt[k]))
        raise OrecertError(f"field {key!r} differs from the re-derived certificate")


def _check_exhausted(doc: dict) -> None:
    inst = _instance(doc)
    _same(doc, exhausted_certificate(inst))
    outcome = solve(inst)
    if not isinstance(outcome, Exhausted):
        raise OrecertError("a solution exists within the stated bounds")


def _check_signed(doc: dict) -> None:
    inst = _instance(doc)
    u = _signed_terms(doc, "u", inst.backend)
    v = _signed_terms(doc, "v", inst.backend)
    _same(doc, signed_certificate(inst, _reverify_signed(inst, u, v)))


def _pool_bounds(doc: dict) -> tuple:
    bounds = _get(doc, "bounds", dict)
    return _get(bounds, "L", int), _get(bounds, "K", int, optional=True)


def _check_rel2sol_failure(doc: dict) -> None:
    backend = _backend(doc)
    a, b = (backend.element_from_str(_get(doc, key, str)) for key in "ab")
    _same(doc, rel2sol_certificate(backend, a, b, _get(doc, "word", str), *_pool_bounds(doc)))


def _check_folner(doc: dict) -> None:
    backend = _backend(doc)
    _same(doc, folner_certificate(
        backend,
        [(label, backend.from_text(label)) for label in _strings(doc, "generators")],
        [backend.element_from_str(s) for s in _strings(doc, "E")],
        _fraction(doc, "epsilon"),
        _fraction(doc, "delta"),
    ))


def _check_word(derive):
    def check(doc: dict) -> None:
        backend = _backend(doc)
        _same(doc, derive(backend, backend.parse(_get(doc, "word", str))))
    return check


def _indexed_word(doc: dict):
    return parse_word(_get(doc, "word", str), Alphabet.indexed())


_CHECKS = {
    "solution": lambda doc: _same(doc, solution_certificate(*solution_inputs(doc))),
    "relations": lambda doc: _same(doc, relations_certificate(*solution_inputs(doc))),
    "exhausted": _check_exhausted,
    "signed": _check_signed,
    "rel2sol-failure": _check_rel2sol_failure,
    "trace": lambda doc: _same(doc, trace_certificate(_indexed_word(doc))),
    "folner": _check_folner,
    "wp": _check_word(wp_certificate),
    "canon": _check_word(canon_certificate),
    "alt-check": lambda doc: _same(
        doc, alt_check_certificate(_indexed_word(doc), _get(doc, "cyclic", bool))
    ),
    "pool": lambda doc: _same(doc, pool_certificate(_backend(doc), *_pool_bounds(doc))),
}


def verify_certificate(doc: dict) -> tuple[bool, str]:
    """Re-check every claim in a certificate document."""
    if not isinstance(doc, dict):
        return False, "certificate must be a JSON object"
    kind = doc.get("kind")
    if type(kind) is not str or kind not in _CHECKS:
        return False, f"unknown certificate kind {kind!r}"
    if doc.get("verified") is not True:
        return False, "the certificate does not claim verified: true"
    try:
        _CHECKS[kind](doc)
    except OrecertError as exc:
        return False, str(exc)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return False, f"malformed certificate: {exc}"
    return True, "ok"
