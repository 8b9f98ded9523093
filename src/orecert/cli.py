"""Command-line front end.

Subcommands: wp, canon, alt-check, alt-trace, ore-search, ore-signed, extract,
rel2sol, folner, pool, verify.  Each call builds only its subcommand's parser,
on first use, and parses its arguments once.  Every subcommand but verify
derives one certificate document; --format json prints it and the table lines
are read off it; verify prints one line.  Exit codes: 0 success or verified or
found, 3 bounded search exhausted, relation not embeddable or Folner target
missed (a normal negative result), 1 verification failure, 2 usage error.
Output is deterministic byte for byte; the searches run serially.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from . import certificates as certs
from .errors import NotARelationError, OrecertError, VerificationError
from .folner import greedy_folner_search, parse_ratio
from .groups import make_backend
from .ore import Exhausted, make_instance, solve
from .words import Alphabet, parse_int, parse_word

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
        try:
            return json.load(handle)
        except RecursionError:
            raise OrecertError(f"{path}: JSON nested too deeply") from None


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
    if args.pool_idx < 0:  # refused on every backend, as the searches and pools refuse it
        raise ValueError("at least one generator is needed")
    epsilon = parse_ratio("epsilon", args.epsilon)
    E, report, _ = greedy_folner_search(
        backend, backend.generators(args.pool_idx), epsilon, args.budget)
    delta = None if args.delta is None else parse_ratio("delta", args.delta)
    return certs.folner_certificate(backend, E, report, epsilon, delta)


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


def _integer(text: str) -> int:
    """``parse_int`` for argparse: its message, not argparse's ``invalid
    <type> value``, ends the usage error."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _adder(*arguments, **defaults):
    """A function adding ``arguments``, each (flag, keywords), and ``defaults`` to a parser."""
    def add(parser):
        for flag, keywords in arguments:
            parser.add_argument(flag, **keywords)
        parser.set_defaults(**defaults)
    return add


def _int(flag, default):
    return flag, {"type": _integer, "default": default}


_WORD, _CERTIFICATE = ("word", {}), ("certificate", {})
_A_B = ("--a", {"required": True}), ("--b", {"required": True})
_SEARCH = _A_B + (_int("--max-support", 3), _int("--pool-len", 3), _int("--pool-idx", 2))
_SIGNED = _A_B + (_int("--max-support", 2), _int("--pool-len", 2), _int("--pool-idx", 2),
                  _int("--coeff-bound", 1), ("--signs", {"default": "++"}))

# name -> (help, derive, takes --backend, default --format or None to run derive, adder)
_COMMANDS = {
    "wp": ("word problem: trivial or not", _wp, True, "table", _adder(_WORD)),
    "canon": ("canonical form of a word", _canon, True, "table", _adder(_WORD)),
    "alt-check": ("alternating-shape predicate", _alt_check, False, "table",
                  _adder(("--cyclic", {"action": "store_true"}), _WORD)),
    "alt-trace": ("nontriviality trace for alternating words", _alt_trace, False, "json",
                  _adder(_WORD)),
    "ore-search": ("search for (1+a)u = (1+b)v in Z+[M]", _ore, True, "table",
                   _adder(*_SEARCH, coeff_bound=None, signs="++")),
    "ore-signed": ("search for (1+-a)u = (1+-b)v in Z[M]", _ore, True, "table", _adder(*_SIGNED)),
    "extract": ("relation graph and cycles of a solution certificate", _extract, False,
                "table", _adder(_CERTIFICATE)),
    "rel2sol": ("rebuild a solution from an alternating relation", _rel2sol, True, "table",
                _adder(*_A_B, _int("--pool-len", 3), _int("--pool-idx", 2), _WORD)),
    "folner": ("greedy search for an almost invariant set", _folner, True, "table",
               _adder(("--epsilon", {"required": True}), ("--delta", {"default": None}),
                      _int("--budget", 100), _int("--pool-idx", 1))),
    "pool": ("enumerate the search pool", _pool, True, "table",
             _adder(_int("--pool-len", 2), _int("--pool-idx", 2))),
    "verify": ("re-check a certificate document", _verify, False, None, _adder(_CERTIFICATE)),
}


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    _, derive, backend, default_format, add_arguments = _COMMANDS[name]
    parser = argparse.ArgumentParser(prog="orecert " + name)
    parser.set_defaults(run=derive if default_format is None else functools.partial(_emit, derive))
    if backend:
        parser.add_argument("--backend", default="zm:2")
    if default_format is not None:
        parser.add_argument("--format", choices=("table", "json"), default=default_format)
    add_arguments(parser)
    return parser


def _top_level(argv) -> None:
    """--help and the usage errors before a command, from names and help texts."""
    parser = argparse.ArgumentParser(prog="orecert")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, *_) in _COMMANDS.items():
        sub.add_parser(name, help=help)
    parser.parse_args(argv)  # prints the help or the error, and exits
    parser.error("a command must come first")  # should a parse ever return


def main(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse prints usage errors and --help to sys.stderr and sys.stdout
        with redirect_stdout(out), redirect_stderr(err):
            if argv and argv[0] in _COMMANDS:
                args = _command_parser(argv[0]).parse_args(argv[1:])
            else:
                _top_level(argv)
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
    except (MemoryError, OverflowError) as exc:
        # a size no string or list can take, such as the caret string of
        # x1000000000000000 in F
        err.write(f"error: input too large to evaluate ({type(exc).__name__})\n")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
