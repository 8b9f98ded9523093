"""Self-contained JSON certificates and their re-verification.

Every command of the CLI can emit a certificate document; ``verify`` reads
one back and re-checks every claim it makes, re-running bounded searches
for exhaustion claims.  All documents are serialised with sorted keys so
byte-identical output is a function of content only.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import NotEmbeddableError, OrecertError
from .folner import FolnerReport, check_delta, check_epsilon, folner_ratios
from .groups import alt_trace, make_backend, verify_trace
from .groups.trace import AltTrace, TraceStep
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
    search_common_multiple,
    search_signed,
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


def _bounds_doc(bounds: dict) -> dict:
    return {k: bounds.get(k) for k in ("n", "L", "K", "c")}


def _instance_doc(inst: OreInstance) -> dict:
    backend = inst.backend
    return {
        "backend": backend.name,
        "a": backend.canonical_str(inst.a),
        "b": backend.canonical_str(inst.b),
        "bounds": _bounds_doc(inst.bounds()),
        "mode": "signed" if inst.signed else "unsigned",
        "signs": _signs_str(inst.signs) if inst.signed else None,
        "pool_size": len(inst.pool),
    }


def solution_certificate(inst: OreInstance, sol: Solution) -> dict:
    backend = inst.backend
    doc = _instance_doc(inst)
    doc.update(
        {
            "kind": "solution",
            "U": [backend.canonical_str(x) for x in sol.U],
            "V": [backend.canonical_str(x) for x in sol.V],
            "lhs": sr_text(sol.lhs),
            "rhs": sr_text(sol.rhs),
            "verified": sol.verified,
        }
    )
    return doc


def exhausted_certificate(inst: OreInstance) -> dict:
    doc = _instance_doc(inst)
    doc.update({"kind": "exhausted", "verified": True})
    return doc


def signed_certificate(inst: OreInstance, out: SignedSolution) -> dict:
    backend = inst.backend
    doc = _instance_doc(inst)
    doc.update(
        {
            "kind": "signed",
            "u": [[c, backend.canonical_str(g)] for c, g in out.u],
            "v": [[c, backend.canonical_str(g)] for c, g in out.v],
            "lhs": sr_text(out.lhs),
            "rhs": sr_text(out.rhs),
            "verified": out.verified,
        }
    )
    return doc


def _vertex_id(backend, elements, vertex) -> str:
    key, occ = vertex
    return f"{backend.canonical_str(elements[key])}#{occ}"


def relations_certificate(inst: OreInstance, sol: Solution, graph, relations) -> dict:
    backend = inst.backend
    doc = solution_certificate(inst, sol)

    def vid(v):
        return _vertex_id(backend, graph.elements, v)

    doc.update(
        {
            "kind": "relations",
            "vertices": [vid(v) for v in graph.vertices],
            "a_edges": [[vid(e.source), vid(e.target)] for e in graph.a_edges],
            "b_edges": [[vid(e.source), vid(e.target)] for e in graph.b_edges],
            "relations": [print_word(r.word) for r in relations],
            "verified": all(r.verified for r in relations) and sol.verified,
        }
    )
    return doc


def trace_certificate(trace: AltTrace) -> dict:
    steps = []
    for s in trace.steps:
        steps.append(
            {
                "rule": s.rule,
                "input": print_word(s.input_word),
                "output": print_word(s.output_word),
                "alpha": s.alpha,
                "rotation": s.rotation,
                "conjugator": None if s.conjugator is None else print_word(s.conjugator),
                "witness": s.witness,
            }
        )
    return {
        "kind": "trace",
        "word": print_word(trace.word),
        "steps": steps,
        "verdict": trace.verdict,
        "witness": trace.witness,
        "verified": True,
    }


def _ratio_pair(fr: Fraction) -> dict:
    return {"exact": str(fr), "approx": float(fr)}


def folner_certificate(backend, generators, E, report: FolnerReport,
                       epsilon=None, delta=None, success=None) -> dict:
    doc = {
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
        "epsilon": None if epsilon is None else str(Fraction(epsilon)),
        "delta": None if delta is None else str(Fraction(delta)),
        "epsilon_ok": None if epsilon is None else check_epsilon(report, epsilon),
        "delta_ok": None if delta is None else check_delta(report, delta),
        "success": success,
        "verified": True,
    }
    return doc


def wp_certificate(backend, word, element) -> dict:
    return {
        "kind": "wp",
        "backend": backend.name,
        "word": print_word(word),
        "element": backend.canonical_str(element),
        "trivial": backend.is_identity(element),
        "verified": True,
    }


def canon_certificate(backend, word, element) -> dict:
    return {
        "kind": "canon",
        "backend": backend.name,
        "word": print_word(word),
        "element": backend.canonical_str(element),
        "verified": True,
    }


def alt_check_certificate(word, cyclic: bool, result: bool) -> dict:
    return {
        "kind": "alt-check",
        "word": print_word(word),
        "cyclic": cyclic,
        "alternating": result,
        "verified": True,
    }


def pool_certificate(backend, length, max_index, pool) -> dict:
    return {
        "kind": "pool",
        "backend": backend.name,
        "bounds": {"L": length, "K": max_index},
        "elements": [backend.canonical_str(x) for x in pool],
        "verified": True,
    }


# ---------------------------------------------------------------------------
# re-verification
# ---------------------------------------------------------------------------


def _rebuild_instance(doc: dict) -> OreInstance:
    backend = make_backend(doc["backend"])
    bounds = doc["bounds"]
    signed = doc.get("mode") == "signed"
    return make_instance(
        backend,
        backend.element_from_str(doc["a"]),
        backend.element_from_str(doc["b"]),
        bounds["n"],
        bounds["L"],
        bounds["K"],
        signed=signed,
        coeff_bound=bounds.get("c"),
        signs=_signs_from_str(doc["signs"]) if signed else (1, 1),
    )


def _verify_solution_doc(doc: dict) -> None:
    backend = make_backend(doc["backend"])
    a = backend.element_from_str(doc["a"])
    b = backend.element_from_str(doc["b"])
    U = [backend.element_from_str(s) for s in doc["U"]]
    V = [backend.element_from_str(s) for s in doc["V"]]
    sol = verify_solution(backend, a, b, U, V)
    if [backend.canonical_str(x) for x in sol.U] != doc["U"]:
        raise OrecertError("U is not in canonical order")
    if [backend.canonical_str(x) for x in sol.V] != doc["V"]:
        raise OrecertError("V is not in canonical order")
    if sr_text(sol.lhs) != doc["lhs"] or sr_text(sol.rhs) != doc["rhs"]:
        raise OrecertError("expanded sides do not match the document")


def _verify_relations_doc(doc: dict) -> None:
    _verify_solution_doc(doc)
    backend = make_backend(doc["backend"])
    a = backend.element_from_str(doc["a"])
    b = backend.element_from_str(doc["b"])
    U = [backend.element_from_str(s) for s in doc["U"]]
    V = [backend.element_from_str(s) for s in doc["V"]]
    sol = verify_solution(backend, a, b, U, V)
    graph = build_relation_graph(backend, a, b, sol)
    relations = extract_cycles(graph, backend, a, b)

    def vid(v):
        return _vertex_id(backend, graph.elements, v)

    if [vid(v) for v in graph.vertices] != doc["vertices"]:
        raise OrecertError("vertex list mismatch")
    if [[vid(e.source), vid(e.target)] for e in graph.a_edges] != doc["a_edges"]:
        raise OrecertError("a-edge list mismatch")
    if [[vid(e.source), vid(e.target)] for e in graph.b_edges] != doc["b_edges"]:
        raise OrecertError("b-edge list mismatch")
    if [print_word(r.word) for r in relations] != doc["relations"]:
        raise OrecertError("relation list mismatch")


def _verify_trace_doc(doc: dict) -> None:
    alphabet = Alphabet.indexed()
    word = parse_word(doc["word"], alphabet)
    steps = []
    for s in doc["steps"]:
        steps.append(
            TraceStep(
                s["rule"],
                parse_word(s["input"], alphabet),
                parse_word(s["output"], alphabet),
                alpha=s["alpha"],
                rotation=s["rotation"],
                conjugator=None
                if s["conjugator"] is None
                else parse_word(s["conjugator"], alphabet),
                witness=s["witness"],
            )
        )
    trace = AltTrace(word, tuple(steps), doc["verdict"], doc["witness"])
    if not verify_trace(trace):
        raise OrecertError("trace steps failed backend verification")
    if trace_certificate(alt_trace(word)) != {**doc, "verified": True}:
        raise OrecertError("trace differs from the deterministic recomputation")


def _verify_folner_doc(doc: dict) -> None:
    backend = make_backend(doc["backend"])
    generators = [
        (label, backend.from_text(label)) for label in doc["generators"]
    ]
    E = [backend.element_from_str(s) for s in doc["E"]]
    report = folner_ratios(backend, E, generators)
    regenerated = folner_certificate(
        backend,
        generators,
        E,
        report,
        epsilon=None if doc["epsilon"] is None else Fraction(doc["epsilon"]),
        delta=None if doc["delta"] is None else Fraction(doc["delta"]),
        success=doc["success"],
    )
    if regenerated != doc:
        raise OrecertError("ratio report does not match the document")
    if doc["success"] and doc["epsilon_ok"] is False:
        raise OrecertError("claimed success contradicts the epsilon check")


def _verify_rel2sol_failure_doc(doc: dict) -> None:
    backend = make_backend(doc["backend"])
    a = backend.element_from_str(doc["a"])
    b = backend.element_from_str(doc["b"])
    word = parse_word(doc["word"], LABEL_ALPHABET)
    pool = None
    if not backend.is_group:
        pool = enumerate_pool(backend, doc["bounds"]["L"], doc["bounds"]["K"])
    try:
        relation_to_solution(backend, a, b, word, pool=pool)
    except NotEmbeddableError:
        return
    raise OrecertError("relation embeds after all; failure claim is wrong")


def verify_certificate(doc: dict) -> tuple[bool, str]:
    """Re-check every claim in a certificate document."""
    if not isinstance(doc, dict):
        return False, "certificate must be a JSON object"
    try:
        kind = doc.get("kind")
        if kind == "solution":
            _verify_solution_doc(doc)
        elif kind == "exhausted":
            inst = _rebuild_instance(doc)
            if len(inst.pool) != doc["pool_size"]:
                raise OrecertError("pool size mismatch")
            outcome = (
                search_signed(inst) if inst.signed else search_common_multiple(inst)
            )
            if not isinstance(outcome, Exhausted):
                raise OrecertError("a solution exists within the stated bounds")
        elif kind == "signed":
            inst = _rebuild_instance(doc)
            backend = inst.backend
            u = [(c, backend.element_from_str(s)) for c, s in doc["u"]]
            v = [(c, backend.element_from_str(s)) for c, s in doc["v"]]
            _reverify_signed(inst, u, v, doc)
        elif kind == "relations":
            _verify_relations_doc(doc)
        elif kind == "trace":
            _verify_trace_doc(doc)
        elif kind == "folner":
            _verify_folner_doc(doc)
        elif kind == "wp":
            backend = make_backend(doc["backend"])
            element = backend.from_text(doc["word"])
            if backend.canonical_str(element) != doc["element"]:
                raise OrecertError("element mismatch")
            if backend.is_identity(element) != doc["trivial"]:
                raise OrecertError("triviality claim mismatch")
        elif kind == "canon":
            backend = make_backend(doc["backend"])
            element = backend.from_text(doc["word"])
            if backend.canonical_str(element) != doc["element"]:
                raise OrecertError("element mismatch")
        elif kind == "alt-check":
            word = parse_word(doc["word"], Alphabet.indexed())
            if is_alternating(word, cyclic=doc["cyclic"]) != doc["alternating"]:
                raise OrecertError("alternation claim mismatch")
        elif kind == "pool":
            backend = make_backend(doc["backend"])
            pool = enumerate_pool(
                backend, doc["bounds"]["L"], doc["bounds"]["K"]
            )
            if [backend.canonical_str(x) for x in pool] != doc["elements"]:
                raise OrecertError("pool mismatch")
        elif kind == "rel2sol-failure":
            _verify_rel2sol_failure_doc(doc)
        else:
            return False, f"unknown certificate kind {kind!r}"
    except OrecertError as exc:
        return False, str(exc)
    except (KeyError, ValueError, TypeError) as exc:
        return False, f"malformed certificate: {exc}"
    return True, "ok"


def _reverify_signed(inst, u, v, doc) -> None:
    backend = inst.backend
    c = inst.coeff_bound
    pool_keys = {backend.canonical_key(g) for g in inst.pool}
    for name, terms in (("u", u), ("v", v)):
        if len(terms) > inst.max_support:
            raise OrecertError(f"{name} has more than n = {inst.max_support} support elements")
        keys = [backend.canonical_key(g) for _, g in terms]
        if len(set(keys)) != len(keys):
            raise OrecertError(f"{name} repeats a support element")
        if not pool_keys.issuperset(keys):
            raise OrecertError(f"{name} has a support element outside the pool")
        if any(type(lam) is not int or not 1 <= abs(lam) <= c for lam, _ in terms):
            raise OrecertError(f"{name} has a coefficient outside 1..{c} in absolute value")
    if not u and not v:
        raise OrecertError("u = v = 0 is not an admissible solution")
    sol = expand_signed(backend, inst.a, inst.b, inst.signs, u, v)
    if not sol.verified:
        raise OrecertError("signed identity does not hold")
    if sr_text(sol.lhs) != doc["lhs"] or sr_text(sol.rhs) != doc["rhs"]:
        raise OrecertError("expanded sides do not match the document")
