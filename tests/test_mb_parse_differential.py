"""Differential test of ``MbBackend.element_from_str``, which reads each
flow entry in one pass and only as ``canonical_str`` writes it, against
the lenient reader it replaced (``mb_reference``).  On canonical texts and
on texts edited one or a few characters at a time, every text the new
reader reads is canonical and the reference reads it to the same element,
and every text it refuses raises ValueError or BackendMismatchError.  The
reference also reads some texts no MB_m element is written as (whitespace
before a name's comma, a base of the wrong length); those are refused."""

import random

import mb_reference
import pytest

from orecert.errors import BackendMismatchError
from orecert.groups import make_backend
from orecert.groups.metabelian import FlowElement, boundary_defect
from orecert.ore import enumerate_pool

# characters an edit puts in: the text's own punctuation, digits (one of
# them outside ASCII), names inside and outside the alphabet, whitespace
EDIT_CHARS = list("(),:;{}-+0179abcwx=t_ \t ٠")


def _reads_as_reference(backend, text) -> bool:
    """Whether the text reads, after checking that the reference reads it
    to the same element, or that the refusal is a ValueError or
    BackendMismatchError."""
    try:
        x = backend.element_from_str(text)
    except Exception as exc:
        assert isinstance(exc, (ValueError, BackendMismatchError)), (text, exc)
        return False
    assert x == mb_reference.element_from_str(backend, text), text
    return True


def _edits(text, rng, count):
    """``count`` texts, each ``text`` with one to three characters deleted,
    replaced or inserted."""
    for _ in range(count):
        s = text
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(s) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(s):
                s = s[:i] + s[i + 1:]
            elif op == 1 and i < len(s):
                s = s[:i] + rng.choice(EDIT_CHARS) + s[i + 1:]
            else:
                s = s[:i] + rng.choice(EDIT_CHARS) + s[i:]
        yield s


@pytest.mark.parametrize("name, length", [("mb:1", 4), ("mb:2", 3), ("mb:3", 2)])
def test_canonical_and_edited_texts_read_alike(name, length):
    backend = make_backend(name)
    rng = random.Random(length)
    texts = [backend.canonical_str(x) for x in enumerate_pool(backend, length)]
    for text in texts:
        x = backend.element_from_str(text)
        assert backend.canonical_str(x) == text
        assert x == mb_reference.element_from_str(backend, text)
    sample = rng.sample(texts, min(len(texts), 150))
    for text in sample:
        for edited in _edits(text, rng, 4500 // len(sample)):
            if _reads_as_reference(backend, edited):
                # only a canonical text reads, so the edit names its element
                assert backend.canonical_str(backend.element_from_str(edited)) == edited


def test_every_single_character_edit_of_one_text_reads_alike():
    backend = make_backend("mb:2")
    text = backend.canonical_str(backend.from_text("a b^-1 a^-1 b a^2 b^-2"))
    for i in range(len(text) + 1):
        for ch in EDIT_CHARS:
            _reads_as_reference(backend, text[:i] + ch + text[i:])
            if i < len(text):
                _reads_as_reference(backend, text[:i] + ch + text[i + 1:])
        _reads_as_reference(backend, text[:i] + text[i + 1:])


@pytest.mark.parametrize("text", [
    "t=(1,0); flow={((0,0) ,a):1}",  # space before the name's comma
    "t=(1,0); flow={((0,0)\t,a):1}",
    "t=( 1,0 ) ; flow={ ((0,0),a):1 }",  # space around t and the braces
    "t=(0,0); flow={((),a):5}",  # an empty base
    "t=(0,0); flow={((0,0,0),a):1, ((1,0,0),b):1, ((0,1,0),a):-1, ((0,0,0),b):-1}",
    "t=(1,0); flow={((0,0),a):7, ((0,0),a):1}",  # a repeated edge: the last value
    "t=(0,0); flow={((0,0),a):0}",  # a zero value
    "t=(1,0); flow={((00,-0),a):01}",
    "t=(1,0); flow={((0,0),c):1}",  # a name outside the alphabet
    "t=(1,0); flow={((0,0),x):1}",
    "t=(1,0); flow={((0,0),):1}",
    "t=(1,0); flow={((0,0),a)1}",
    "t=(1,0); flow={((0,0),a):1,((1,0),b):1}",  # no space after the comma
    "t=(1,0); flow={((0,0),a):1 , ((1,0),b):0}",
    "t=(1,0); flow={((0,0),a):1, }",
    "t=(1,0); flow={((0, 0),a):1}",
    "t=(1,0); flow={((0,0),a): 1}",
    "t=(1,0); flow={((0,0),a):--1}",
    "t=(1,0); flow={((0,0),a):-}",
    "t=(1,0); flow={((٠,0),a):1}",
    "t=(1,0); flow={(0,0),a):1}",
    "t=(1,0); flow={((0,0),a:1}",
    "t=(1,0); flow={((0,0)a):1}",
    "t=(1,0); flow={((0,0),a),((1,0),b):1}",
    "t=(1,0); flow={((0,0),a):1:2}",
    "t=(1,0); flow={((0,0),a)}",
    "t=(1,0); flow={:}",
    "t=(1,0); flow={((0,0),a):1}; flow={}",
])
def test_edge_cases_read_alike(text):
    _reads_as_reference(make_backend("mb:2"), text)


@pytest.mark.parametrize("text", [
    "t=(1,0); flow={((0,0) ,a):1}",  # space before the name's comma
    "t=(1,0); flow={((0,0)\t,a):1}",
    "t=(0,0); flow={((),a):5}",  # an empty base
    # closed squares in Z^3, which the reference reads as flows of mb:2
    "t=(0,0); flow={((0,0,0),a):1, ((1,0,0),b):1, ((0,1,0),a):-1, ((0,0,0),b):-1}",
    "t=(0,0); flow={((0,0,5),a):1, ((0,0,5),b):-1, ((0,1,5),a):-1, ((1,0,5),b):1}",
])
def test_texts_the_reference_reads_outside_mb2_are_refused(text):
    backend = make_backend("mb:2")
    mb_reference.element_from_str(backend, text)
    with pytest.raises(ValueError, match="^bad flow entry: "):
        backend.element_from_str(text)


def test_boundary_defects_match_the_reference():
    rng = random.Random(7)
    for name in ("mb:1", "mb:2", "mb:3"):
        backend = make_backend(name)
        pool = enumerate_pool(backend, 2)
        for x in pool:
            assert boundary_defect(x) == mb_reference.boundary_defect(x) == {}
            # a value changed, or an edge dropped or moved
            for _ in range(10):
                flow = list(x.flow)
                if flow:
                    (base, d), v = flow.pop(rng.randrange(len(flow)))
                else:
                    (base, d), v = ((0,) * backend.rank, 0), 1
                flow.append(rng.choice([
                    ((base, d), v + rng.choice((-2, -1, 1))),
                    ((base, (d + 1) % backend.rank), v),
                ]))
                y = FlowElement(x.t, tuple(flow))
                assert boundary_defect(y) == mb_reference.boundary_defect(y), y
