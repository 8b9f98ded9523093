"""The certificate writer and the re-derivation comparison against json's
indenting encoder.

``certificates.dumps`` must return exactly ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline, on every document the CLI emits and on
documents with floats, empty containers, nesting and non-ASCII text.
``certificates._same`` compares compact encodings; on the seeded mutation
corpus of ``test_verify_fuzz`` it must reach the verdict, and name the
field, that comparing the indented texts reaches.
"""

import io
import json
import random

import pytest
from test_verify_fuzz import COMMANDS, SOLUTION, VALUES, _documents, _paths, _replaced

from orecert import certificates as certs
from orecert.certificates import verify_certificate
from orecert.cli import main
from orecert.errors import OrecertError


def _indented(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _same_by_indent(doc: dict, rebuilt: dict) -> None:
    """The comparison ``_same`` made on indented text."""
    if _indented(rebuilt) != _indented(doc):
        key = min(k for k in doc.keys() | rebuilt.keys()
                  if k not in doc or k not in rebuilt or _indented(doc[k]) != _indented(rebuilt[k]))
        raise OrecertError(f"field {key!r} differs from the re-derived certificate")


EXTRA_COMMANDS = [
    ["alt-trace", "x2 x1 x2^-1 x1^-1"],
    ["folner", "--backend", "mb:2", "--epsilon", "1/10", "--budget", "30", "--delta", "1/2"],
    ["folner", "--backend", "zm:2", "--epsilon", "1/2", "--budget", "30"],
    ["ore-signed", "--backend", "mb:2", "--a", "a", "--b", "a^2", "--max-support", "2",
     "--pool-len", "1"],
    ["rel2sol", "--backend", "mb:2", "--a", "a", "--b", "a", "a b^-1"],
    ["pool", "--backend", "f", "--pool-len", "2", "--pool-idx", "1"],
    ["wp", "--backend", "f", "x0 x1 x0^-1 x2^-1"],
]


def test_every_emitted_document_is_jsons_indented_text(tmp_path, monkeypatch):
    written = []
    real = certs.dumps

    def checked(doc):
        text = real(doc)
        assert text == _indented(doc), doc["kind"]
        written.append(doc["kind"])
        return text

    monkeypatch.setattr(certs, "dumps", checked)
    sol = tmp_path / "sol.json"
    out = io.StringIO()
    main(SOLUTION + ["--format", "json"], stdout=out)
    sol.write_text(out.getvalue())
    for argv in COMMANDS + EXTRA_COMMANDS:
        argv = [str(sol) if arg == "{sol}" else arg for arg in argv]
        main(argv + ["--format", "json"], stdout=io.StringIO(), stderr=io.StringIO())
    assert set(written) == {
        "alt-check", "canon", "exhausted", "folner", "pool", "rel2sol-failure",
        "relations", "signed", "solution", "trace", "wp",
    }


@pytest.mark.parametrize("doc", [
    {},
    {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}]},
    {"ratio": {"exact": "1/3", "approx": 1 / 3}, "floats": [0.1, -0.0, 1e300, 5e-324, 2.0, 1e16]},
    {"special": [float("inf"), float("-inf"), float("nan")]},
    {"ints": [0, -1, 2**70, -(2**70)], "flags": [True, False, None], "t": (1, "x", (2,))},
    {"steps": [{"rule": "shift", "witness": None, "alpha": 1},
               {"rule": "witness", "stats": [{"generator": "x0", "symdiff": 2}]}]},
    {"text": "é ∞ ٢ \U0001f600 \" \\ \n \t \x00 \x7f /", "é": "key", "Z": 1, "a": 2},
    {"deep": [[[[{"k": [[[["leaf"]]]]}]]]]},
])
def test_documents_of_every_shape_are_jsons_indented_text(doc):
    assert certs.dumps(doc) == _indented(doc)


def test_a_value_json_cannot_write_raises_its_type_error():
    for value in ({1, 2}, b"bytes", object()):
        with pytest.raises(TypeError) as ours:
            certs.dumps({"x": value})
        with pytest.raises(TypeError) as theirs:
            _indented({"x": value})
        assert str(ours.value) == str(theirs.value)


def _outcome(same, doc, rebuilt):
    try:
        same(doc, rebuilt)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


@pytest.fixture
def compared(monkeypatch):
    """Every ``_same`` call made twice, compact and indented, and the
    outcomes compared; the list collects them."""
    outcomes = []
    real = certs._same

    def both(doc, rebuilt):
        got = _outcome(real, doc, rebuilt)
        assert got == _outcome(_same_by_indent, doc, rebuilt), doc.get("kind")
        outcomes.append(got)
        real(doc, rebuilt)

    monkeypatch.setattr(certs, "_same", both)
    return outcomes


def test_compact_comparison_agrees_with_indented_on_the_fuzz_corpus(tmp_path, compared):
    rng = random.Random(25)
    docs = _documents(tmp_path)
    for doc in docs:
        verify_certificate(doc)
        for path in list(_paths(doc)):
            for value in VALUES:
                verify_certificate(_replaced(doc, [(path, value)]))
    for _ in range(300):
        doc = rng.choice(docs)
        paths = list(_paths(doc))
        edits = [(p, rng.choice(VALUES)) for p in rng.sample(paths, min(3, len(paths)))]
        edits = [e for e in edits if not any(e[0][:len(o[0])] == o[0] and e[0] != o[0]
                                             for o in edits)]
        verify_certificate(_replaced(doc, edits))
    named = {message for message in compared if message is not None}
    assert None in compared and len(named) > 10


def test_compact_comparison_names_the_least_differing_field(compared):
    doc = {"kind": "k", "b": [1, {"x": "é"}], "c": 1.5, "d": None}
    for rebuilt, key in [
        ({**doc, "b": [1, {"x": "e"}]}, "b"),
        ({**doc, "c": 1.25, "d": 0}, "c"),
        ({k: v for k, v in doc.items() if k != "d"}, "d"),
        ({**doc, "a": []}, "a"),
        ({**doc, "d": False}, "d"),
    ]:
        with pytest.raises(OrecertError, match=f"field '{key}' differs"):
            certs._same(doc, rebuilt)
    certs._same(doc, dict(reversed(list(doc.items()))))
    assert len(compared) == 6
