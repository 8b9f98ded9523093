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
import re

import pytest
from test_relation_walk import MB2_MASS_8 as MASS_8_WORD

from orecert.certificates import verify_certificate
from orecert.cli import main
from orecert.groups import make_backend

VALUES = [None, 0, 1, -1, "", "x", [], {}, True, 1.5]

MB2_MASS_8 = ["rel2sol", "--backend", "mb:2", "--a", "a a", "--b", "b a b^-1", MASS_8_WORD]
# a group rel2sol-failure, as rel2sol wrote one when it translated the walk
# and checked it against the pool
GROUP_FAILURE = {
    "a": "(1,0)", "b": "(0,1)", "backend": "zm:2", "bounds": {"K": 2, "L": 0},
    "kind": "rel2sol-failure", "reason": "solution leaves the pool of L = 0, K = 2",
    "verified": True, "word": "a^-1 b^-1 a b",
}
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
    # group relations walk into solutions that state no pool, whatever
    # --pool-len says; the posmon one below is a rel2sol-failure
    ["rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "--pool-len", "0",
     "a^-1 b^-1 a b"],
    MB2_MASS_8,
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
    for name, text in (("epsilon", "1/0"), ("delta", "abc")):
        assert verify_certificate({**by_kind["folner"], name: text}) == (
            False, f"{name}: not a ratio: {text!r}")


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    return main(list(argv), stdout=out, stderr=err), out.getvalue(), err.getvalue()


def test_deeply_nested_json_is_a_usage_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for command in ("verify", "extract"):
        assert _cli(command, str(path)) == (2, "", f"error: {path}: JSON nested too deeply\n")


def test_oversized_powers_in_documents_fail_verification(tmp_path):
    # exponents that fail before any allocation (see tests/test_words.py)
    by_kind = {}
    for doc in _documents(tmp_path):
        by_kind.setdefault(doc["kind"], doc)
    assert {by_kind[k]["backend"] for k in ("exhausted", "folner")} == {"posmon"}
    power = "^" + str(10**23)
    edits = [
        ("wp", ("word",), "a" + power),
        ("canon", ("word",), "x0^-4611686018427387904"),
        ("trace", ("word",), "x0 x1" + power),
        ("alt-check", ("word",), "x1" + power),
        ("exhausted", ("a",), "x0" + power),
        ("folner", ("E", 0), "x0" + power),  # generator labels are compared, not parsed
    ]
    path = tmp_path / "doc.json"
    for kind, field, value in edits:
        path.write_text(json.dumps(_replaced(by_kind[kind], [(field, value)])))
        code, out, err = _cli("verify", str(path))
        assert (code, err) == (1, ""), kind
        assert re.fullmatch(r"verification failed: power of (a|x\d+) too large to expand "
                            r"\(at position \d+\)\n", out), out


def test_a_generator_index_too_large_to_evaluate_is_a_usage_error(tmp_path):
    # the caret string of x_k in F cannot be allocated at these k
    doc = _emit(["wp", "--backend", "f", "x1"])
    path = tmp_path / "doc.json"
    for word, error in (("x1000000000000000", "MemoryError"),
                        ("x10000000000000000000", "OverflowError")):
        path.write_text(json.dumps({**doc, "word": word}))
        assert _cli("verify", str(path)) == (
            2, "", f"error: input too large to evaluate ({error})\n")


@pytest.mark.parametrize("text", ["(1_0,2,3)", "(\u0661,2,3)", "(+1,2,3)", "(1, 2,3)", "(1,2,3 )"])
def test_a_vector_takes_only_ascii_digits(text):
    # int() reads each of these, (1_0,2,3) as (10, 2, 3)
    with pytest.raises(ValueError, match="not an integer"):
        make_backend("zm:3").element_from_str(text)


@pytest.mark.parametrize("name, text", [
    ("mb:2", "t= (1,0) ; flow={ ((0,0),a):1 }"),
    ("mb:2", "t=(1,0); flow={((00,0),a):1}"),
    ("mb:2", "t=(01,0); flow={((0,0),a):1}"),
    ("mb:2", "t=(1,0); flow={((0,0),a):1, ((0,1),b):0}"),  # a zero value
    ("mb:2", "t=(1,0); flow={((0,0),a):1, ((0,0),a):1}"),  # a repeated edge
    ("mb:2", "t=(2,0); flow={((1,0),a):1, ((0,0),a):1}"),  # edges out of order
    ("zm:2", " (1,0) "),
    ("zm:2", "(01,0)"),
    ("zm:2", "(-0,1)"),
    ("posmon", " x0 "),
    ("posmon", "x1 x0"),  # x0 x2
    ("posmon", "x0*x2"),
    ("f", "CCCLLLL/CCLLCLL"),  # x0 with one more caret on both trees
])
def test_element_texts_are_read_only_in_canonical_form(name, text):
    with pytest.raises(ValueError):
        make_backend(name).element_from_str(text)


def test_integers_outside_ascii_digits_fail_verification(tmp_path):
    # int() reads each edited text as the integer it replaces
    zm = _emit(SOLUTION)
    mb = _emit(["ore-search", "--backend", "mb:2", "--a", "a", "--b", "a^2",
                "--max-support", "2", "--pool-len", "1"])
    assert (zm["backend"], zm["a"]) == ("zm:2", "(1,0)")
    assert (mb["backend"], mb["a"]) == ("mb:2", "t=(1,0); flow={((0,0),a):1}")
    edits = [
        (zm, "backend", "zm:\u0662", "\u0662"),
        (zm, "backend", "zm:0_2", "0_2"),
        (zm, "a", "(\u0661,0)", "\u0661"),
        (zm, "a", "(+1,0)", "+1"),
        (zm, "a", "(1, 0)", " 0"),
        (mb, "backend", "mb:+2", "+2"),
        (mb, "a", "t=(0_1,0); flow={((0,0),a):1}", "0_1"),
    ]
    # a flow entry is read only as canonical_str writes it
    entries = ["((\u0660,0),a):1", "((0,0),a):+1", "((0,0),a):\u0661"]
    path = tmp_path / "doc.json"
    for doc, field, value, bad in edits:
        path.write_text(json.dumps({**doc, field: value}))
        assert _cli("verify", str(path)) == (
            1, f"verification failed: malformed certificate: not an integer: {bad!r}\n", "")
    for entry in entries:
        path.write_text(json.dumps({**mb, "a": f"t=(1,0); flow={{{entry}}}"}))
        assert _cli("verify", str(path)) == (
            1, f"verification failed: malformed certificate: bad flow entry: {entry!r}\n", "")


def test_malformed_f_element_texts_fail_verification(tmp_path):
    doc = _emit(["folner", "--backend", "f", "--epsilon", "1/2", "--budget", "3"])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert _cli("verify", str(path)) == (0, "verified: ok\n", "")
    for text, message in [("CLL", "not a tree pair: 'CLL'"),
                          ("CLL/L", "leaf counts differ"),
                          ("CLX/CLL", "bad tree character 'X'"),
                          ("CLL/CL2", "bad tree character '2'")]:
        path.write_text(json.dumps({**doc, "E": [text] + doc["E"][1:]}))
        assert _cli("verify", str(path)) == (
            1, f"verification failed: malformed certificate: {message}\n", ""), text


def test_a_negative_max_index_fails_verification_on_every_backend(tmp_path):
    # zm and mb pools do not depend on K, yet a negative K is no bound
    docs = [_emit(SOLUTION), _emit(["pool", "--backend", "mb:2", "--pool-len", "1"]),
            _emit(["rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "--pool-len", "0",
                   "a^-1 b^-1 a b"])]
    path = tmp_path / "doc.json"
    for doc in docs:
        assert verify_certificate(doc) == (True, "ok"), doc["kind"]
        path.write_text(json.dumps({**doc, "bounds": {**doc["bounds"], "K": -5}}))
        assert _cli("verify", str(path)) == (
            1, "verification failed: malformed certificate: at least one generator is needed\n",
            ""), doc["kind"]


def test_only_a_solution_may_state_no_pool(tmp_path):
    # a pool-free solution verifies on its equation and n alone, but one
    # that states a pool must lie in it, and no other kind may omit L
    mass_8 = _emit(MB2_MASS_8)
    assert (mass_8["kind"], mass_8["pool_size"], mass_8["bounds"]["L"]) == ("solution", None, None)
    exhausted = _emit(["ore-search", "--backend", "mb:2", "--a", "a", "--b", "b",
                       "--max-support", "1", "--pool-len", "1"])
    signed = _emit(["ore-signed", "--backend", "mb:2", "--a", "a", "--b", "a^2",
                    "--max-support", "2", "--pool-len", "1"])
    assert (exhausted["kind"], signed["kind"]) == ("exhausted", "signed")
    path = tmp_path / "doc.json"
    for doc in (mass_8, exhausted, signed):
        path.write_text(json.dumps(doc))
        assert _cli("verify", str(path)) == (0, "verified: ok\n", ""), doc["kind"]
    for doc, message in [
        ({**mass_8, "bounds": {**mass_8["bounds"], "L": 0, "K": 2}, "pool_size": 1},
         "U or V has an element outside the pool"),
        ({**exhausted, "bounds": {**exhausted["bounds"], "L": None}}, "field 'L' must be int"),
        ({**signed, "bounds": {**signed["bounds"], "L": None}}, "field 'L' must be int"),
        (GROUP_FAILURE, "field 'U' differs from the re-derived certificate"),
    ]:
        path.write_text(json.dumps(doc))
        assert _cli("verify", str(path)) == (1, f"verification failed: {message}\n", ""), doc


@pytest.mark.parametrize("argv", [
    ["rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "--pool-len", "0",
     "a b a^-1 b^-1"],
    MB2_MASS_8,
])
def test_a_pool_free_solution_stating_a_max_index_fails_verification(tmp_path, argv):
    # K bounds the generators of a pool; a document with L null states none
    doc = _emit(argv)
    assert (doc["kind"], doc["bounds"]["L"], doc["bounds"]["K"]) == ("solution", None, None)
    path = tmp_path / "doc.json"
    for K in (0, 1, 7):
        path.write_text(json.dumps({**doc, "bounds": {**doc["bounds"], "K": K}}))
        assert _cli("verify", str(path)) == (
            1, "verification failed: malformed certificate: "
               "a generator bound K needs a pool length L\n", ""), K
