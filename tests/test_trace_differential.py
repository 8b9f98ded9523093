"""Differential test of the re-deriving trace verifier against the
step-by-step one it replaced (``trace_reference``).

The re-deriving ``verify_trace`` accepts exactly the trace ``alt_trace``
derives, so it must accept every ``alt_trace`` output, and every trace it
accepts the reference must accept too.  The edits below change one field
of one step; the reference may accept some of them (it reads fewer
fields), the re-deriving verifier none.

``alt_trace`` checks a conjugation step on x0^-1 v x0 alone; it must
derive the same traces as ``trace_reference.alt_trace``, which checks it
on the whole word.
"""

import collections
import dataclasses
import itertools
import random

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


def seeded_alternating_words(seed=14):
    """Balanced and unbalanced alternating words of length 24 to 400.

    A balanced word has length/4 (rounded down to even) x0-letters with
    exponent sum zero, so its trace takes many conjugation steps; the
    others draw subscripts from x0..x3, or from x1..x4 so that a trace
    may start with a shift."""
    rng = random.Random(seed)
    x = [Generator("x", i) for i in range(5)]
    for length in (24, 48, 96, 200, 400):
        for kind in ("balanced", "x0..x3", "x1..x4"):
            low = 1 if kind == "x1..x4" else 0
            subs = [low + rng.choice((0, 2)) + k % 2 for k in range(length)]
            exps = [rng.choice((1, -1)) for _ in range(length)]
            if kind == "balanced":
                count = length // 4 - (length // 4) % 2
                zeros = set(rng.sample(range(0, length, 2), count))
                signs = [1, -1] * (count // 2)
                rng.shuffle(signs)
                for k in range(0, length, 2):
                    subs[k] = 0 if k in zeros else 2
                for k, s in zip(sorted(zeros), signs):
                    exps[k] = s
            yield tuple((x[i], e) for i, e in zip(subs, exps))


def test_local_checks_derive_the_whole_word_checked_traces():
    words = 0
    rules = collections.Counter()
    for w in itertools.chain(wider_alphabet_words(), seeded_alternating_words()):
        trace = alt_trace(w, FB)
        assert trace == trace_reference.alt_trace(w, FB)
        assert reference_accepts(trace)
        words += 1
        rules.update(step.rule for step in trace.steps)
    assert words == 4368 + 15
    assert rules == {"conjugate_x0": 1156, "shift": 258, "witness": 4383}
