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
   rotated-out prefix s, and the word lost two letters; repeat.

Every alternating word terminates in a witness step, so the verdict is
always ``nontrivial``.  ``alt_trace`` checks each step's fact in F with
the tree-pair backend as it takes the step.  A shift must keep identity
status.  A conjugation w -> w' is checked locally.  Rotating w by the
prefix s is conjugation by s, so s^-1 w s freely reduces to the rotated
word; ``alt_trace`` asserts that it reads x_0^-1 v x_0 t with v
free of x_0, and w' is shift(v, 1) t by construction.  What is left is
the group fact x_0^-1 v x_0 = shift(v, 1), which follows from F's
relations x_0^-1 x_i x_0 = x_{i+1} (i >= 1; Cannon, Floyd and Parry,
Enseign. Math. 42, 1996); it is checked in F on those |v| + 2 letters
only, not on the whole word.  Together these give s^-1 w s = w'.
``verify_trace`` re-derives: it accepts exactly the trace ``alt_trace``
derives for the trace's word.  A failed check or a violated internal
invariant raises VerificationError and means the implementation is
wrong, not the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NotAlternatingError, OrecertError, VerificationError
from ..words import (
    Generator,
    Word,
    concat,
    cyclic_shift,
    is_alternating,
    print_word,
    shift_word,
)
from .thompson import FBackend


_X0 = (Generator("x", 0), 1)
_X0_INV = (Generator("x", 0), -1)


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


def _min_subscript_witness(w: Word) -> tuple[int, int]:
    """(alpha, exponent sum of x_alpha) for the minimal subscript alpha."""
    alpha = min(g.index for g, _ in w)
    return alpha, sum(e for g, e in w if g.index == alpha)


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
        site_ends = (rotated[0], rotated[gap])
        if site_ends != (_X0_INV, _X0) or not v or any(g.index == 0 for g, _ in v):
            raise VerificationError("malformed conjugation site")
        raised = shift_word(v, 1)
        if fb.from_word((_X0_INV,) + v + (_X0,)) != fb.from_word(raised):
            raise VerificationError(unconfirmed)
        replaced = concat(raised, tail)
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
    """True iff ``trace`` is exactly the trace ``alt_trace`` derives for its
    word, so every claim it makes has been re-checked in F."""
    try:
        return alt_trace(trace.word, backend) == trace
    except OrecertError:
        return False
