"""Command-line front end.

Subcommands: wp, canon, alt-check, alt-trace, ore-search, ore-signed,
extract, rel2sol, folner, pool, verify.  Exit codes: 0 success or verified
or found, 3 bounded search exhausted (a normal negative result), 1
verification failure, 2 usage error.  Output is deterministic byte for
byte.  The searches run serially: --jobs is accepted and changes nothing,
and --seed is reserved for randomized test drivers and never affects search
order.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import certificates as certs
from .errors import (
    NotARelationError,
    NotEmbeddableError,
    OrecertError,
    VerificationError,
)
from .folner import folner_ratios, greedy_folner_search
from .groups import alt_trace, make_backend
from .ore import (
    Exhausted,
    build_relation_graph,
    enumerate_pool,
    extract_cycles,
    make_instance,
    relation_to_solution,
    search_common_multiple,
    search_signed,
    verify_solution,
)
from .words import Alphabet, is_alternating, parse_word

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orecert")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format="table"):
        p.add_argument("--backend", default="zm:2")
        p.add_argument("--format", choices=("table", "json"), default=default_format)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("wp", help="word problem: trivial or not")
    common(p)
    p.add_argument("word")

    p = sub.add_parser("canon", help="canonical form of a word")
    common(p)
    p.add_argument("word")

    p = sub.add_parser("alt-check", help="alternating-shape predicate")
    common(p)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("word")

    p = sub.add_parser("alt-trace", help="nontriviality trace for alternating words")
    common(p, default_format="json")
    p.add_argument("word")

    p = sub.add_parser("ore-search", help="search for (1+a)u = (1+b)v in Z+[M]")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-support", type=int, default=3)
    p.add_argument("--pool-len", type=int, default=3)
    p.add_argument("--pool-idx", type=int, default=2)

    p = sub.add_parser("ore-signed", help="search for (1+-a)u = (1+-b)v in Z[M]")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-support", type=int, default=2)
    p.add_argument("--pool-len", type=int, default=2)
    p.add_argument("--pool-idx", type=int, default=2)
    p.add_argument("--coeff-bound", type=int, default=1)
    p.add_argument("--signs", default="++")

    p = sub.add_parser("extract", help="relation graph and cycles of a solution certificate")
    common(p)
    p.add_argument("certificate")

    p = sub.add_parser("rel2sol", help="rebuild a solution from an alternating relation")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--pool-len", type=int, default=3)
    p.add_argument("--pool-idx", type=int, default=2)
    p.add_argument("word")

    p = sub.add_parser("folner", help="greedy search for an almost invariant set")
    common(p)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--pool-idx", type=int, default=1)

    p = sub.add_parser("pool", help="enumerate the search pool")
    common(p)
    p.add_argument("--pool-len", type=int, default=2)
    p.add_argument("--pool-idx", type=int, default=2)

    p = sub.add_parser("verify", help="re-check a certificate document")
    common(p)
    p.add_argument("certificate")

    return parser


def _emit(out, args, doc: dict, table_lines) -> None:
    if args.format == "json":
        out.write(certs.dumps(doc))
    else:
        for line in table_lines:
            out.write(line + "\n")


def _ore_instance(args, signed=False):
    backend = make_backend(args.backend)
    a = backend.from_text(args.a)
    b = backend.from_text(args.b)
    return make_instance(
        backend,
        a,
        b,
        args.max_support,
        args.pool_len,
        args.pool_idx,
        signed=signed,
        coeff_bound=getattr(args, "coeff_bound", None),
        signs=certs._signs_from_str(args.signs) if signed else (1, 1),
    )


def _solution_lines(backend, sol):
    return [
        "solution",
        "U: " + ", ".join(backend.canonical_str(x) for x in sol.U),
        "V: " + ", ".join(backend.canonical_str(x) for x in sol.V),
        "verified: true",
    ]


def _run(args, out) -> int:
    if args.command == "wp":
        backend = make_backend(args.backend)
        word = backend.parse(args.word)
        element = backend.from_word(word)
        trivial = backend.is_identity(element)
        doc = certs.wp_certificate(backend, word, element)
        _emit(out, args, doc, ["trivial" if trivial else "nontrivial"])
        return EXIT_OK

    if args.command == "canon":
        backend = make_backend(args.backend)
        word = backend.parse(args.word)
        element = backend.from_word(word)
        doc = certs.canon_certificate(backend, word, element)
        _emit(out, args, doc, [backend.canonical_str(element)])
        return EXIT_OK

    if args.command == "alt-check":
        word = parse_word(args.word, Alphabet.indexed())
        result = is_alternating(word, cyclic=args.cyclic)
        doc = certs.alt_check_certificate(word, args.cyclic, result)
        _emit(out, args, doc, ["true" if result else "false"])
        return EXIT_OK

    if args.command == "alt-trace":
        word = parse_word(args.word, Alphabet.indexed())
        trace = alt_trace(word)
        doc = certs.trace_certificate(trace)
        lines = []
        for i, step in enumerate(trace.steps, 1):
            lines.append(
                f"step {i}: {step.rule} "
                f"{doc['steps'][i - 1]['input']} -> {doc['steps'][i - 1]['output']}"
            )
        lines.append(f"verdict: {trace.verdict} ({trace.witness})")
        _emit(out, args, doc, lines)
        return EXIT_OK

    if args.command == "ore-search":
        inst = _ore_instance(args)
        outcome = search_common_multiple(inst, jobs=args.jobs)
        if isinstance(outcome, Exhausted):
            _emit(out, args, certs.exhausted_certificate(inst), ["exhausted"])
            return EXIT_EXHAUSTED
        doc = certs.solution_certificate(inst, outcome)
        _emit(out, args, doc, _solution_lines(inst.backend, outcome))
        return EXIT_OK

    if args.command == "ore-signed":
        inst = _ore_instance(args, signed=True)
        outcome = search_signed(inst, jobs=args.jobs)
        if isinstance(outcome, Exhausted):
            _emit(out, args, certs.exhausted_certificate(inst), ["exhausted"])
            return EXIT_EXHAUSTED
        doc = certs.signed_certificate(inst, outcome)
        backend = inst.backend
        lines = [
            "solution",
            "u: " + " + ".join(f"{c}*{backend.canonical_str(g)}" for c, g in outcome.u),
            "v: " + " + ".join(f"{c}*{backend.canonical_str(g)}" for c, g in outcome.v),
            "verified: true",
        ]
        _emit(out, args, doc, lines)
        return EXIT_OK

    if args.command == "extract":
        with open(args.certificate, encoding="utf-8") as handle:
            source = json.load(handle)
        if not isinstance(source, dict):
            raise OrecertError("certificate must be a JSON object")
        if source.get("kind") not in ("solution", "relations"):
            raise OrecertError("extract needs a solution certificate")
        backend = make_backend(source["backend"])
        a = backend.element_from_str(source["a"])
        b = backend.element_from_str(source["b"])
        U = [backend.element_from_str(s) for s in source["U"]]
        V = [backend.element_from_str(s) for s in source["V"]]
        sol = verify_solution(backend, a, b, U, V)
        graph = build_relation_graph(backend, a, b, sol)
        relations = extract_cycles(graph, backend, a, b)
        inst = make_instance(
            backend, a, b,
            source["bounds"]["n"] or len(U),
            source["bounds"]["L"] or 0,
            source["bounds"]["K"],
        )
        doc = certs.relations_certificate(inst, sol, graph, relations)
        lines = [f"cycles: {len(relations)}"]
        lines.extend("relation: " + r for r in doc["relations"])
        _emit(out, args, doc, lines)
        return EXIT_OK

    if args.command == "rel2sol":
        backend = make_backend(args.backend)
        a = backend.from_text(args.a)
        b = backend.from_text(args.b)
        word = parse_word(args.word, certs.LABEL_ALPHABET)
        pool = None
        if not backend.is_group:
            pool = enumerate_pool(backend, args.pool_len, args.pool_idx)
        try:
            sol = relation_to_solution(backend, a, b, word, pool=pool)
        except NotEmbeddableError:
            _emit(
                out,
                args,
                {
                    "kind": "rel2sol-failure",
                    "backend": backend.name,
                    "a": backend.canonical_str(a),
                    "b": backend.canonical_str(b),
                    "word": args.word,
                    "bounds": {"L": args.pool_len, "K": args.pool_idx},
                    "reason": "vertices not embeddable in monoid",
                    "verified": True,
                },
                ["not-embeddable"],
            )
            return EXIT_EXHAUSTED
        inst = make_instance(backend, a, b, len(sol.U), args.pool_len, args.pool_idx)
        doc = certs.solution_certificate(inst, sol)
        _emit(out, args, doc, _solution_lines(backend, sol))
        return EXIT_OK

    if args.command == "folner":
        backend = make_backend(args.backend)
        generators = backend.generators(args.pool_idx)
        epsilon = Fraction(args.epsilon)
        E, report, success = greedy_folner_search(
            backend, generators, epsilon, args.budget
        )
        report = folner_ratios(backend, E, generators)
        delta = None if args.delta is None else Fraction(args.delta)
        doc = certs.folner_certificate(
            backend, generators, E, report, epsilon=epsilon, delta=delta,
            success=success,
        )
        lines = [
            f"success: {'true' if success else 'false'}",
            f"size: {report.size}",
            "E: " + ", ".join(backend.canonical_str(e) for e in E),
        ]
        for s in report.per_generator:
            lines.append(
                f"{s.label}: intersection={s.intersection} "
                f"symdiff={s.symdiff} symdiff_ratio={s.symdiff_ratio}"
            )
        _emit(out, args, doc, lines)
        return EXIT_OK if success else EXIT_EXHAUSTED

    if args.command == "pool":
        backend = make_backend(args.backend)
        pool = enumerate_pool(backend, args.pool_len, args.pool_idx)
        doc = certs.pool_certificate(backend, args.pool_len, args.pool_idx, pool)
        _emit(out, args, doc, [backend.canonical_str(x) for x in pool])
        return EXIT_OK

    if args.command == "verify":
        with open(args.certificate, encoding="utf-8") as handle:
            doc = json.load(handle)
        ok, message = certs.verify_certificate(doc)
        out.write(("verified: ok" if ok else f"verification failed: {message}") + "\n")
        return EXIT_OK if ok else EXIT_VERIFICATION

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _run(args, out)
    except (NotARelationError, VerificationError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_VERIFICATION
    except NotEmbeddableError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_EXHAUSTED
    except (OrecertError, ValueError, OSError, json.JSONDecodeError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
