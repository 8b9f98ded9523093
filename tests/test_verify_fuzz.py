"""Seeded mutation fuzz of ``verify_certificate``.

One certificate of every kind comes from the CLI.  Every field, nested ones
included, is replaced by each value of a small fixed set, and seeded random
edits replace several fields at once.  ``verify_certificate`` must return a
verdict without raising on all of them, every untouched document must
verify, and an edit that changes the JSON type of a field must be rejected
unless the field was or becomes null (K, for one, may be null).  The values
are small so that an exhaustion that still verifies re-runs a tiny search.
"""

import copy
import io
import json
import random

from orecert.certificates import verify_certificate
from orecert.cli import main

VALUES = [None, 0, 1, -1, "", "x", [], {}, True, 1.5]

SOLUTION = ["ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
            "--max-support", "2", "--pool-len", "1"]
COMMANDS = [
    ["wp", "--backend", "mb:2", "a b A B"],
    ["canon", "--backend", "f", "x0 x1^-1"],
    ["alt-check", "--cyclic", "x1 x0"],
    ["alt-trace", "x0 x1 x0^-1 x1^-1"],
    SOLUTION,
    ["ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
     "--max-support", "2", "--pool-len", "2", "--pool-idx", "2"],
    ["ore-signed", "--backend", "zm:2", "--a", "a", "--b", "b", "--signs=mm",
     "--coeff-bound", "1", "--max-support", "2", "--pool-len", "1"],
    ["ore-signed", "--backend", "posmon", "--a", "x0", "--b", "x1", "--signs=mm",
     "--coeff-bound", "1", "--max-support", "1", "--pool-len", "1", "--pool-idx", "1"],
    ["extract", "{sol}"],
    # a group relation whose walk leaves the stated pool: rel2sol-failure
    ["rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "--pool-len", "0",
     "a^-1 b^-1 a b"],
    ["rel2sol", "--backend", "posmon", "--a", "x0", "--b", "x0",
     "--pool-len", "0", "--pool-idx", "0", "a b^-1"],
    ["folner", "--backend", "posmon", "--epsilon", "1/10", "--budget", "4",
     "--delta", "1/3"],
    ["pool", "--backend", "mb:2", "--pool-len", "1"],
]


def _emit(argv) -> dict:
    out = io.StringIO()
    main(argv + ["--format", "json"], stdout=out, stderr=io.StringIO())
    return json.loads(out.getvalue())


def _documents(tmp_path) -> list:
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(_emit(SOLUTION)))
    return [_emit([str(sol) if arg == "{sol}" else arg for arg in argv]) for argv in COMMANDS]


def _paths(value, path=()):
    if path:
        yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, edits) -> dict:
    out = copy.deepcopy(doc)
    for path, value in edits:
        parent = _lookup(out, path[:-1])
        parent[path[-1]] = copy.deepcopy(value)
    return out


def _verdict(doc) -> bool:
    ok, message = verify_certificate(doc)
    assert isinstance(message, str)
    return ok


def test_untouched_certificates_verify(tmp_path):
    docs = _documents(tmp_path)
    assert sorted({d["kind"] for d in docs}) == sorted([
        "alt-check", "canon", "exhausted", "folner", "pool", "rel2sol-failure",
        "relations", "signed", "solution", "trace", "wp",
    ])
    for doc in docs:
        assert verify_certificate(doc) == (True, "ok"), doc["kind"]


def test_every_field_replaced_gets_a_verdict(tmp_path):
    for doc in _documents(tmp_path):
        for path in list(_paths(doc)):
            old = _lookup(doc, path)
            for value in VALUES:
                ok = _verdict(_replaced(doc, [(path, value)]))
                if None not in (old, value) and type(value) is not type(old):
                    assert not ok, (doc["kind"], path, value)


def test_random_multi_field_edits_get_a_verdict(tmp_path):
    rng = random.Random(4)
    docs = _documents(tmp_path)
    for _ in range(400):
        doc = rng.choice(docs)
        paths = list(_paths(doc))
        edits = [(p, rng.choice(VALUES)) for p in rng.sample(paths, min(3, len(paths)))]
        # an edit inside a field another edit replaced has no place to go
        edits = [e for e in edits if not any(e[0][:len(o[0])] == o[0] and e[0] != o[0]
                                             for o in edits)]
        _verdict(_replaced(doc, edits))


def test_named_edits_are_rejected(tmp_path):
    by_kind = {}
    for doc in _documents(tmp_path):
        by_kind.setdefault(doc["kind"], doc)
    for doc in by_kind.values():
        for value in VALUES:
            if value is not True:
                assert not _verdict({**doc, "verified": value}), (doc["kind"], value)
    for kind in ("signed", "solution"):
        assert not _verdict({**by_kind[kind], "pool_size": 999}), kind
    assert by_kind["wp"]["trivial"] is False
    assert not _verdict({**by_kind["wp"], "trivial": 0})
    assert not _verdict({**by_kind["alt-check"], "cyclic": "x"})
    assert not _verdict({**by_kind["folner"], "success": None})
    assert not _verdict({**by_kind["solution"], "bounds": "x"})
    assert not _verdict({**by_kind["folner"], "epsilon": "1/0"})
