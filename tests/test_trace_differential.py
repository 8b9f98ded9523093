"""Differential test of the re-deriving trace verifier against the
step-by-step one it replaced (``trace_reference``).

The re-deriving ``verify_trace`` accepts exactly the trace ``alt_trace``
derives, so it must accept every ``alt_trace`` output, and every trace it
accepts the reference must accept too.  The edits below change one field
of one step; the reference may accept some of them (it reads fewer
fields), the re-deriving verifier none.
"""

import dataclasses
import itertools

import trace_reference

from orecert.groups import FBackend, alt_trace, verify_trace
from orecert.groups.trace import AltTrace
from orecert.words import Generator, cyclic_shift

FB = FBackend()


def wider_alphabet_words():
    """The 4,368 even/odd alternating words of length 2, 4 and 6 over x0..x3."""
    evens = [(Generator("x", i), e) for i in (0, 2) for e in (1, -1)]
    odds = [(Generator("x", i), e) for i in (1, 3) for e in (1, -1)]
    for k in (1, 2, 3):
        for combo in itertools.product(*[evens, odds] * k):
            yield tuple(combo)


def single_field_edits(trace):
    """Each step with its rotation or alpha raised by one, or its output
    word rotated by one letter."""
    for i, step in enumerate(trace.steps):
        for edited in (
            dataclasses.replace(step, rotation=step.rotation + 1),
            dataclasses.replace(step, alpha=step.alpha + 1),
            dataclasses.replace(step, output_word=cyclic_shift(step.output_word, 1)),
        ):
            steps = trace.steps[:i] + (edited,) + trace.steps[i + 1 :]
            yield AltTrace(trace.word, steps, trace.verdict, trace.witness)


def reference_accepts(trace):
    try:
        return trace_reference.verify_trace(trace, FB)
    except ValueError:
        return False


def test_reverify_is_at_least_as_strict_as_the_reference():
    words = edits = accepted = 0
    for w in wider_alphabet_words():
        trace = alt_trace(w, FB)
        assert verify_trace(trace, FB)
        assert reference_accepts(trace)
        words += 1
        for edited in single_field_edits(trace):
            assert edited != trace
            if verify_trace(edited, FB):
                assert reference_accepts(edited)
                accepted += 1
            edits += 1
    # The reference accepts 5,680 of these edits: those of fields it never reads.
    assert (words, edits, accepted) == (4368, 17040, 0)
