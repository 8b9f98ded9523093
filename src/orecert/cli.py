"""Command-line front end.

Subcommands: wp, canon, alt-check, alt-trace, ore-search, ore-signed,
extract, rel2sol, folner, pool, verify.  Every subcommand but verify derives
one certificate document; --format json prints it and the table lines are
read off it; verify prints one line.  Exit codes: 0 success or verified or
found, 3 bounded search exhausted, relation not embeddable or Folner target
missed (a normal negative result), 1 verification failure, 2 usage error.
Output is deterministic byte for byte.  --backend is taken by the
subcommands that build a backend from it; the searches run serially, and
--jobs is accepted by ore-search and ore-signed and changes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import certificates as certs
from .errors import NotARelationError, OrecertError, VerificationError
from .folner import greedy_folner_search
from .groups import make_backend
from .ore import Exhausted, make_instance, solve
from .words import Alphabet, parse_word

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


# ---------------------------------------------------------------------------
# subcommands: parsed arguments -> certificate document
# ---------------------------------------------------------------------------


def _wp(args) -> dict:
    backend = make_backend(args.backend)
    return certs.wp_certificate(backend, backend.parse(args.word))


def _canon(args) -> dict:
    backend = make_backend(args.backend)
    return certs.canon_certificate(backend, backend.parse(args.word))


def _alt_check(args) -> dict:
    return certs.alt_check_certificate(parse_word(args.word, Alphabet.indexed()), args.cyclic)


def _alt_trace(args) -> dict:
    return certs.trace_certificate(parse_word(args.word, Alphabet.indexed()))


def _ore(args) -> dict:
    backend = make_backend(args.backend)
    inst = make_instance(
        backend, backend.from_text(args.a), backend.from_text(args.b),
        args.max_support, args.pool_len, args.pool_idx,
        coeff_bound=args.coeff_bound, signs=certs._signs_from_str(args.signs),
    )
    outcome = solve(inst)
    if isinstance(outcome, Exhausted):
        return certs.exhausted_certificate(inst)
    return (certs.signed_certificate if inst.signed else certs.solution_certificate)(inst, outcome)


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _extract(args) -> dict:
    source = _load(args.certificate)
    if not isinstance(source, dict):
        raise OrecertError("certificate must be a JSON object")
    if source.get("kind") not in ("solution", "relations"):
        raise OrecertError("extract needs a solution certificate")
    return certs.relations_certificate(*certs.solution_inputs(source))


def _rel2sol(args) -> dict:
    backend = make_backend(args.backend)
    return certs.rel2sol_certificate(
        backend, backend.from_text(args.a), backend.from_text(args.b),
        args.word, args.pool_len, args.pool_idx,
    )


def _folner(args) -> dict:
    backend = make_backend(args.backend)
    generators = backend.generators(args.pool_idx)
    epsilon = Fraction(args.epsilon)
    E, _, _ = greedy_folner_search(backend, generators, epsilon, args.budget)
    delta = None if args.delta is None else Fraction(args.delta)
    return certs.folner_certificate(backend, generators, E, epsilon, delta)


def _pool(args) -> dict:
    return certs.pool_certificate(make_backend(args.backend), args.pool_len, args.pool_idx)


def _solution_lines(doc):
    return ["solution", "U: " + ", ".join(doc["U"]), "V: " + ", ".join(doc["V"]),
            "verified: true"]


def _signed_lines(doc):
    def side(terms):
        return " + ".join(f"{c}*{g}" for c, g in terms)
    return ["solution", "u: " + side(doc["u"]), "v: " + side(doc["v"]), "verified: true"]


def _trace_lines(doc):
    lines = [f"step {i}: {s['rule']} {s['input']} -> {s['output']}"
             for i, s in enumerate(doc["steps"], 1)]
    return lines + [f"verdict: {doc['verdict']} ({doc['witness']})"]


def _folner_lines(doc):
    lines = [f"success: {'true' if doc['success'] else 'false'}",
             f"size: {doc['size']}", "E: " + ", ".join(doc["E"])]
    for s in doc["stats"]:
        lines.append(f"{s['generator']}: intersection={s['intersection']} "
                     f"symdiff={s['symdiff']} symdiff_ratio={s['symdiff_ratio']['exact']}")
    return lines


# certificate kind -> its table lines
_TABLE = {
    "wp": lambda doc: ["trivial" if doc["trivial"] else "nontrivial"],
    "canon": lambda doc: [doc["element"]],
    "alt-check": lambda doc: ["true" if doc["alternating"] else "false"],
    "trace": _trace_lines,
    "solution": _solution_lines,
    "exhausted": lambda doc: ["exhausted"],
    "signed": _signed_lines,
    "relations": lambda doc: [f"cycles: {len(doc['relations'])}"]
    + ["relation: " + r for r in doc["relations"]],
    "rel2sol-failure": lambda doc: ["not-embeddable"],
    "folner": _folner_lines,
    "pool": lambda doc: doc["elements"],
}


def _emit(derive, args, out) -> int:
    doc = derive(args)
    if args.format == "json":
        out.write(certs.dumps(doc))
    else:
        out.writelines(line + "\n" for line in _TABLE[doc["kind"]](doc))
    negative = doc["kind"] in ("exhausted", "rel2sol-failure") or doc.get("success") is False
    return EXIT_EXHAUSTED if negative else EXIT_OK


def _verify(args, out) -> int:
    ok, message = certs.verify_certificate(_load(args.certificate))
    out.write(("verified: ok" if ok else f"verification failed: {message}") + "\n")
    return EXIT_OK if ok else EXIT_VERIFICATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orecert")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, derive, backend=True, default_format="table"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=functools.partial(_emit, derive))
        if backend:
            p.add_argument("--backend", default="zm:2")
        p.add_argument("--format", choices=("table", "json"), default=default_format)
        return p

    p = command("wp", "word problem: trivial or not", _wp)
    p.add_argument("word")

    p = command("canon", "canonical form of a word", _canon)
    p.add_argument("word")

    p = command("alt-check", "alternating-shape predicate", _alt_check, backend=False)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("word")

    p = command("alt-trace", "nontriviality trace for alternating words", _alt_trace,
                backend=False, default_format="json")
    p.add_argument("word")

    def search(name, help, n, L):
        p = command(name, help, _ore)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--max-support", type=int, default=n)
        p.add_argument("--pool-len", type=int, default=L)
        p.add_argument("--pool-idx", type=int, default=2)
        return p

    search("ore-search", "search for (1+a)u = (1+b)v in Z+[M]", 3, 3).set_defaults(
        coeff_bound=None, signs="++")
    p = search("ore-signed", "search for (1+-a)u = (1+-b)v in Z[M]", 2, 2)
    p.add_argument("--coeff-bound", type=int, default=1)
    p.add_argument("--signs", default="++")

    p = command("extract", "relation graph and cycles of a solution certificate", _extract,
                backend=False)
    p.add_argument("certificate")

    p = command("rel2sol", "rebuild a solution from an alternating relation", _rel2sol)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--pool-len", type=int, default=3)
    p.add_argument("--pool-idx", type=int, default=2)
    p.add_argument("word")

    p = command("folner", "greedy search for an almost invariant set", _folner)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--pool-idx", type=int, default=1)

    p = command("pool", "enumerate the search pool", _pool)
    p.add_argument("--pool-len", type=int, default=2)
    p.add_argument("--pool-idx", type=int, default=2)

    p = sub.add_parser("verify", help="re-check a certificate document")
    p.set_defaults(run=_verify)
    p.add_argument("certificate")

    return parser


def main(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args, out)
    except (NotARelationError, VerificationError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_VERIFICATION
    except (OrecertError, ValueError, ZeroDivisionError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
