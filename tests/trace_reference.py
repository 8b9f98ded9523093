"""The step-by-step trace verifier, kept as the oracle for differential
tests.

This is the ``verify_trace`` that ``orecert.groups.trace`` ran before it
verified a trace by re-deriving it with ``alt_trace``.  It re-checks each
step's syntax rule by rule and each step's fact in F with the tree-pair
backend, but reads neither a conjugation step's ``alpha`` and ``witness``,
a witness step's ``rotation`` nor the trace's ``witness``, and it accepts
valid traces that ``alt_trace`` would not derive.  It may raise
ValueError on a tampered shift step.  Every trace the re-deriving
verifier accepts, this one must accept too.
"""

from __future__ import annotations

from orecert.groups.thompson import FBackend
from orecert.groups.trace import AltTrace, _min_subscript_witness
from orecert.words import concat, invert_word, shift_word


def verify_trace(trace: AltTrace, backend: FBackend | None = None) -> bool:
    """Re-check every claim a trace makes; True iff all of them hold."""
    fb = backend or FBackend()
    prev = trace.word
    saw_witness = False
    for step in trace.steps:
        if saw_witness or step.input_word != prev:
            return False
        if step.rule == "witness":
            alpha, total = _min_subscript_witness(step.input_word)
            if total == 0 or alpha != step.alpha:
                return False
            if step.witness != f"exponent sum of x{alpha} is {total:+d}":
                return False
            if step.output_word != step.input_word:
                return False
            saw_witness = True
        elif step.rule == "shift":
            if step.output_word != shift_word(step.input_word, -step.alpha):
                return False
            if fb.is_identity(fb.from_word(step.input_word)) != fb.is_identity(
                fb.from_word(step.output_word)
            ):
                return False
        elif step.rule == "conjugate_x0":
            if len(step.output_word) != len(step.input_word) - 2:
                return False
            s = step.conjugator
            if s is None or step.input_word[: step.rotation] != s:
                return False
            lhs = fb.from_word(concat(invert_word(s), step.input_word, s))
            if lhs != fb.from_word(step.output_word):
                return False
        else:
            return False
        prev = step.output_word
    return saw_witness and trace.verdict == "nontrivial"
