"""Nontriviality traces for alternating words in F.

``alt_trace`` takes a word whose subscripts alternate even, odd, even, odd
(linearly or up to rotation) and produces a step-by-step certificate that
the word is not the identity of F.  The procedure shrinks the word as a
cyclic word:

1. Let alpha be the minimal subscript.  If the exponent sum of x_alpha is
   nonzero the word is nontrivial: shifting indices down by alpha is
   induced by a monomorphism of F, and the exponent sum of x_0 vanishes on
   relations.  This is the terminal witness step.
2. Otherwise subtract alpha from every subscript (a ``shift`` step; the
   shift monomorphism preserves and reflects triviality but is not inner,
   so this step is checked by comparing identity status on both sides
   rather than by a conjugator).
3. Now x_0 occurs with both signs.  Rotate the leftmost cyclic occurrence
   of x_0^-1 v x_0, with v free of x_0, to the front and replace it by v
   with all subscripts raised by one; conjugation by x_0 raises subscripts,
   so the replaced word equals the rotated one in F.  The step records the
   rotated-out prefix s and is verified as s^-1 w s = w' by the tree-pair
   backend.  The word lost two letters; repeat.

Every alternating word terminates in a witness step, so the verdict is
always ``nontrivial``.  ``alt_trace`` returns a trace only once
``verify_trace`` has re-checked every step.  A violation of an internal
invariant raises VerificationError and means the implementation is wrong,
not the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NotAlternatingError, VerificationError
from ..words import (
    Generator,
    Word,
    concat,
    cyclic_shift,
    exponent_sums,
    invert_word,
    is_alternating,
    print_word,
    shift_word,
)
from .thompson import FBackend


@dataclass(frozen=True)
class TraceStep:
    rule: str  # "shift" | "conjugate_x0" | "witness"
    input_word: Word
    output_word: Word
    alpha: int = 0
    rotation: int = 0
    conjugator: Word | None = None
    witness: str | None = None


@dataclass(frozen=True)
class AltTrace:
    word: Word
    steps: tuple[TraceStep, ...]
    verdict: str
    witness: str


def _check_cyclic_shape(w: Word) -> None:
    n = len(w)
    if n < 2 or n % 2:
        raise VerificationError(f"alternating invariant lost: length {n}")
    for i in range(n):
        if w[i][0].index % 2 == w[(i + 1) % n][0].index % 2:
            raise VerificationError(
                f"alternating invariant lost at position {i}: {print_word(w)}"
            )


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
    steps: list[TraceStep] = []
    current = w
    while True:
        _check_cyclic_shape(current)
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
    trace = AltTrace(w, tuple(steps), "nontrivial", witness)
    if not verify_trace(trace, fb):
        raise VerificationError(f"trace of {print_word(w)} not confirmed by the tree-pair backend")
    return trace


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
