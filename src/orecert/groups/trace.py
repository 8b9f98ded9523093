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
Enseign. Math. 42, 1996).  Conjugation by x_0 is a homomorphism and
shift(., 1) acts letter by letter, so x_0^-1 v x_0 is the product of the
conjugates x_0^-1 l x_0 of v's letters l, and shift(v, 1) the product of
their shifts: the fact holds once x_0^-1 l x_0 = shift(l, 1) holds for
each letter l of v.  That is checked in F, on three letters against one,
once per distinct letter in one ``alt_trace`` call; nothing is kept
between calls.  Together these give s^-1 w s = w'.

Each step copies the word in C.  Its Python work is in |v|, and in the
scan for the site, which starts by passing shift(v, 1).
The whole word's alternation is checked on entry and after each shift.
A conjugation step keeps it locally: the new word is shift(v, 1) t, and
the tail t is a contiguous cyclic slice of the word before, which
alternated, so each pair of adjacent letters inside t already differs in
parity.  The new word has two letters fewer, so its length stays even, and
checking the pairs inside shift(v, 1) and its two seams with t (or its own
ends when t is empty) checks every cyclic pair.  The minimal subscript and
its exponent sum are not recounted while x_0 is left: a conjugation step
removes one x_0^-1 and one x_0 and adds no x_0 (v is free of x_0 and its
shift raises every subscript), so alpha stays 0 and the sum of x_0 stays 0
while the count of x_0-letters is positive.  They are recounted once it
reaches 0; a shift makes the count that of x_alpha before it.
``verify_trace`` re-derives: it accepts exactly the trace ``alt_trace``
derives for the trace's word.  A failed check or a violated internal
invariant raises VerificationError and means the implementation is
wrong, not the input.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import NotAlternatingError, OrecertError, VerificationError
from ..words import (
    Generator,
    Word,
    cyclic_shift,
    is_alternating,
    print_word,
    shift_word,
)
from .thompson import FBackend


_FB = FBackend()  # the tree-pair backend that checks every step
_X0 = (Generator("x", 0), 1)
_X0_INV = (Generator("x", 0), -1)


class TraceStep(NamedTuple):
    rule: str  # "shift" | "conjugate_x0" | "witness"
    input_word: Word
    output_word: Word
    alpha: int = 0
    rotation: int = 0
    conjugator: Word | None = None
    witness: str | None = None


class AltTrace(NamedTuple):
    word: Word
    steps: tuple[TraceStep, ...]
    verdict: str
    witness: str


def _min_subscript_letters(w: Word) -> tuple[int, list[int]]:
    """(alpha, the exponents of the letters x_alpha^+-1) for the minimal
    subscript alpha."""
    alpha = min(g.index for g, _ in w)
    return alpha, [e for g, e in w if g.index == alpha]


def _alternates_around(u: Word, tail: Word) -> bool:
    """Whether ``u + tail`` alternates cyclically, given that ``tail``'s
    adjacent letters differ in parity: only the pairs inside ``u`` and the
    two seams are compared."""
    ring = (tail[-1], *u, tail[0]) if tail else (*u, u[0])
    return all(a[0].index % 2 != b[0].index % 2 for a, b in zip(ring, ring[1:]))


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


def _unconfirmed(w: Word) -> VerificationError:
    # Formatted only when raised: the word can be long.
    return VerificationError(f"trace of {print_word(w)} not confirmed by the tree-pair backend")


def alt_trace(w: Word) -> AltTrace:
    """Certify that an alternating word is nontrivial in F.

    Raises NotAlternatingError for inputs without the alternating shape
    (neither linearly nor cyclically; a linearly alternating word has even
    length, so it is cyclically alternating too).
    """
    if not is_alternating(w, cyclic=True):
        raise NotAlternatingError(f"not an alternating word: {print_word(w)!r}")
    steps: list[TraceStep] = []
    conjugated: set = set()  # letters l with x0^-1 l x0 = shift(l, 1) checked in F
    current = w
    zeros = 0  # x0-letters left in current while its x0 sum is 0; 0: recount
    while True:
        if not zeros:
            alpha, exps = _min_subscript_letters(current)
            total = sum(exps)
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
                if _FB.is_identity(_FB.from_word(current)) != _FB.is_identity(_FB.from_word(shifted)):
                    raise _unconfirmed(w)
                if not is_alternating(shifted, cyclic=True):
                    raise VerificationError(f"alternating invariant lost: {print_word(shifted)}")
                steps.append(TraceStep("shift", current, shifted, alpha=alpha))
                current = shifted
            zeros = len(exps)
        p, gap = _leftmost_conjugation_site(current)
        rotated = cyclic_shift(current, p)
        prefix = current[:p]
        v = rotated[1:gap]
        tail = rotated[gap + 1 :]
        site_ends = (rotated[0], rotated[gap])
        if site_ends != (_X0_INV, _X0) or not v or any(g.index == 0 for g, _ in v):
            raise VerificationError("malformed conjugation site")
        for letter in set(v) - conjugated:
            if _FB.from_word((_X0_INV, letter, _X0)) != _FB.from_word(shift_word((letter,), 1)):
                raise _unconfirmed(w)
            conjugated.add(letter)
        u = shift_word(v, 1)
        replaced = u + tail
        if not _alternates_around(u, tail):
            raise VerificationError(f"alternating invariant lost: {print_word(replaced)}")
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
        zeros -= 2
    return AltTrace(w, tuple(steps), "nontrivial", witness)


def verify_trace(trace: AltTrace) -> bool:
    """True iff ``trace`` is exactly the trace ``alt_trace`` derives for its
    word, so every claim it makes has been re-checked in F."""
    try:
        return alt_trace(trace.word) == trace
    except OrecertError:
        return False
