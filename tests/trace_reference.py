"""The step-by-step trace verifier and the whole-word-checking trace
derivation, kept as oracles for differential tests.

This is the ``verify_trace`` that ``orecert.groups.trace`` ran before it
verified a trace by re-deriving it with ``alt_trace``.  It re-checks each
step's syntax rule by rule and each step's fact in F with the tree-pair
backend, but reads neither a conjugation step's ``alpha`` and ``witness``,
a witness step's ``rotation`` nor the trace's ``witness``, and it accepts
valid traces that ``alt_trace`` would not derive.  It may raise
ValueError on a tampered shift step.  Every trace the re-deriving
verifier accepts, this one must accept too.

``alt_trace`` here is the derivation ``orecert.groups.trace`` ran before it
checked each conjugation step on x0^-1 v x0 alone: it checks
s^-1 w s = w' on the whole word in F.  The code under test must derive
the same trace.  This module owns its copies of the helpers both use, so
that a change to them in the code under test shows as a difference.
"""

from __future__ import annotations

from helpers import concat, invert_word

from orecert.errors import NotAlternatingError, VerificationError
from orecert.groups.thompson import FBackend
from orecert.groups.trace import AltTrace, TraceStep
from orecert.words import (
    Generator,
    Word,
    cyclic_shift,
    is_alternating,
    print_word,
    shift_word,
)


def exponent_sums(w: Word) -> dict[Generator, int]:
    sums: dict[Generator, int] = {}
    for g, e in w:
        sums[g] = sums.get(g, 0) + e
        if sums[g] == 0:
            del sums[g]
    return sums


def _min_subscript_witness(w: Word) -> tuple[int, int]:
    """(alpha, exponent sum of x_alpha) for the minimal subscript alpha."""
    alpha = min(g.index for g, _ in w)
    sums = exponent_sums(w)
    return alpha, sums.get(Generator("x", alpha), 0)


def _leftmost_conjugation_site(w: Word) -> tuple[int, int]:
    """Leftmost p with w[p] = x0^-1 whose next cyclic x0-letter is x0^+1.

    Returns (p, gap) where gap is the cyclic distance to that x0 letter.
    """
    n = len(w)
    for p in range(n):
        gen, exp = w[p]
        if gen.index != 0 or exp != -1:
            continue
        for step in range(1, n):
            g2, e2 = w[(p + step) % n]
            if g2.index == 0:
                if e2 == 1:
                    return p, step
                break
    raise VerificationError(
        f"no cyclic subword x0^-1 v x0 in {print_word(w)} despite zero x0 sum"
    )


def alt_trace(w: Word, backend: FBackend | None = None) -> AltTrace:
    """Certify that an alternating word is nontrivial in F.

    Raises NotAlternatingError for inputs without the alternating shape
    (neither linearly nor cyclically).
    """
    if not (is_alternating(w) or is_alternating(w, cyclic=True)):
        raise NotAlternatingError(f"not an alternating word: {print_word(w)!r}")
    fb = backend or FBackend()
    unconfirmed = f"trace of {print_word(w)} not confirmed by the tree-pair backend"
    steps: list[TraceStep] = []
    current = w
    while True:
        if not is_alternating(current, cyclic=True):
            raise VerificationError(f"alternating invariant lost: {print_word(current)}")
        alpha, total = _min_subscript_witness(current)
        if total != 0:
            witness = f"exponent sum of x{alpha} is {total:+d}"
            steps.append(
                TraceStep(
                    "witness", current, current, alpha=alpha, witness=witness
                )
            )
            break
        if alpha > 0:
            shifted = shift_word(current, -alpha)
            if fb.is_identity(fb.from_word(current)) != fb.is_identity(fb.from_word(shifted)):
                raise VerificationError(unconfirmed)
            steps.append(TraceStep("shift", current, shifted, alpha=alpha))
            current = shifted
        p, gap = _leftmost_conjugation_site(current)
        rotated = cyclic_shift(current, p)
        prefix = current[:p]
        v = rotated[1:gap]
        tail = rotated[gap + 1 :]
        if not v or any(g.index == 0 for g, _ in v):
            raise VerificationError("malformed conjugation site")
        replaced = concat(shift_word(v, 1), tail)
        if fb.from_word(concat(invert_word(prefix), current, prefix)) != fb.from_word(replaced):
            raise VerificationError(unconfirmed)
        steps.append(
            TraceStep(
                "conjugate_x0",
                current,
                replaced,
                rotation=p,
                conjugator=prefix,
            )
        )
        current = replaced
    return AltTrace(w, tuple(steps), "nontrivial", witness)


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
