import itertools

import pytest

import trace_reference
from helpers import alternating_words

from orecert.errors import NotAlternatingError, VerificationError
from orecert.groups import FBackend, alt_trace, verify_trace
from orecert.groups.trace import AltTrace, TraceStep
from orecert.words import (
    Alphabet,
    Generator,
    cyclic_shift,
    is_alternating,
    parse_word,
    print_word,
    shift_word,
)

FB = FBackend()
X = Alphabet.indexed()


def tw(text):
    return parse_word(text, X)


def test_commutator_trace_matches_hand_execution():
    trace = alt_trace(tw("x0 x1 x0^-1 x1^-1"))
    assert trace.verdict == "nontrivial"
    assert [s.rule for s in trace.steps] == ["conjugate_x0", "witness"]
    conj = trace.steps[0]
    assert conj.rotation == 2
    assert print_word(conj.conjugator) == "x0 x1"
    assert print_word(conj.output_word) == "x2^-1 x1"
    assert trace.witness == "exponent sum of x1 is +1"
    assert verify_trace(trace)


def test_immediate_witness():
    trace = alt_trace(tw("x0 x1"))
    assert [s.rule for s in trace.steps] == ["witness"]
    assert trace.witness == "exponent sum of x0 is +1"


def test_longer_word_traces_nontrivial():
    trace = alt_trace(tw("x2 x1 x0^-1 x3^-1"))
    assert trace.verdict == "nontrivial"
    assert len(trace.steps) >= 1
    assert not FB.is_identity(FB.from_word(tw("x2 x1 x0^-1 x3^-1")))


def test_shift_step_fires_for_positive_minimum():
    trace = alt_trace(tw("x2 x1 x2^-1 x1^-1"))
    rules = [s.rule for s in trace.steps]
    assert "shift" in rules
    shift = trace.steps[rules.index("shift")]
    assert shift.alpha == 1
    assert print_word(shift.output_word) == "x1 x0 x1^-1 x0^-1"
    assert trace.verdict == "nontrivial"
    assert verify_trace(trace)


def test_cyclic_input_accepted():
    # Rotation of an alternating word: odd subscript first.
    trace = alt_trace(tw("x1 x0 x1^-1 x0^-1"))
    assert trace.verdict == "nontrivial"


def test_non_alternating_rejected():
    with pytest.raises(NotAlternatingError):
        alt_trace(tw("x0 x2"))
    with pytest.raises(NotAlternatingError):
        alt_trace(())
    with pytest.raises(NotAlternatingError):
        alt_trace(tw("x0 x1 x0"))


def test_conjugate_steps_shrink_by_two():
    for w in alternating_words(3):
        trace = alt_trace(w)
        for step in trace.steps:
            if step.rule == "conjugate_x0":
                assert len(step.output_word) == len(step.input_word) - 2
            elif step.rule == "shift":
                assert len(step.output_word) == len(step.input_word)


def test_exhaustive_short_words_with_wider_alphabet():
    # Even/odd alternating words with subscripts up to 3, exercising the
    # shift rule; each must be nontrivial and fully verifiable.
    evens = [(Generator("x", i), e) for i in (0, 2) for e in (1, -1)]
    odds = [(Generator("x", i), e) for i in (1, 3) for e in (1, -1)]
    count = 0
    for k in (1, 2, 3):
        slots = [evens, odds] * k
        for combo in itertools.product(*slots):
            w = tuple(combo)
            trace = alt_trace(w)
            assert trace.verdict == "nontrivial"
            assert verify_trace(trace)
            assert not FB.is_identity(FB.from_word(w))
            count += 1
    assert count == 16 + 256 + 4096


def test_verify_rejects_tampered_trace():
    trace = alt_trace(tw("x0 x1 x0^-1 x1^-1"))
    bad_steps = list(trace.steps)
    bad_steps[-1] = type(bad_steps[-1])(
        "witness",
        bad_steps[-1].input_word,
        bad_steps[-1].input_word,
        alpha=1,
        witness="exponent sum of x1 is +2",
    )
    tampered = AltTrace(trace.word, tuple(bad_steps), "nontrivial", "bogus")
    assert not verify_trace(tampered)


def test_verify_rejects_broken_chain():
    t1 = alt_trace(tw("x0 x1 x0^-1 x1^-1"))
    t2 = alt_trace(tw("x0 x3 x0^-1 x3^-1"))
    mixed = AltTrace(t1.word, t2.steps, t2.verdict, t2.witness)
    assert not verify_trace(mixed)


def test_verify_rejects_valid_but_non_canonical_trace():
    # The first x0^-1 v x0 site is at 0; taking the one at 4 instead gives a
    # trace whose every step holds in F, but alt_trace does not derive it.
    w = tw("x0^-1 x1 x0 x1 x0^-1 x3 x0 x1^-1")
    assert alt_trace(w).steps[0].rotation == 0
    first = TraceStep(
        "conjugate_x0",
        w,
        tw("x4 x1^-1 x0^-1 x1 x0 x1"),
        rotation=4,
        conjugator=w[:4],
    )
    rest = alt_trace(first.output_word)
    other = AltTrace(w, (first, *rest.steps), "nontrivial", rest.witness)
    assert trace_reference.verify_trace(other)
    assert not verify_trace(other)


def test_verify_reads_every_field():
    trace = alt_trace(tw("x0 x1 x0^-1 x1^-1"))
    conj, witness = trace.steps
    for edited in (
        (conj._replace(alpha=7), witness),
        (conj._replace(witness="anything"), witness),
        (conj, witness._replace(rotation=5)),
    ):
        assert not verify_trace(trace._replace(steps=edited))
    assert not verify_trace(trace._replace(witness="bogus"))


def test_verify_returns_false_on_an_impossible_shift():
    trace = alt_trace(tw("x2 x1 x2^-1 x1^-1"))
    shift = trace.steps[0]
    assert shift.rule == "shift"
    edited = (shift._replace(alpha=2), *trace.steps[1:])
    assert verify_trace(trace._replace(steps=edited)) is False


def _check_in(monkeypatch, backend):
    """Make alt_trace and verify_trace check every step in ``backend``."""
    monkeypatch.setattr("orecert.groups.trace._FB", backend)


class LengthBackend(FBackend):
    """Evaluates a word to its length: no F fact holds in it."""

    def from_word(self, word):
        return len(word)


def test_failed_f_check_raises_and_verify_returns_false(monkeypatch):
    w = tw("x0 x1 x0^-1 x1^-1")
    trace = alt_trace(w)
    _check_in(monkeypatch, LengthBackend())
    with pytest.raises(VerificationError, match="not confirmed by the tree-pair backend"):
        alt_trace(w)
    assert verify_trace(trace) is False


class ShiftBlindBackend(FBackend):
    """Takes one nontrivial element of F for the identity."""

    def is_identity(self, x):
        return x == self.from_word(tw("x1 x0 x1^-1 x0^-1"))


def test_shift_that_changes_identity_status_raises(monkeypatch):
    # Only the shift step reads is_identity: the conjugations still hold.
    w = tw("x2 x1 x2^-1 x1^-1")
    trace = alt_trace(w)
    _check_in(monkeypatch, ShiftBlindBackend())
    assert alt_trace(tw("x0 x1 x0^-1 x1^-1")).steps
    with pytest.raises(VerificationError, match="not confirmed by the tree-pair backend"):
        alt_trace(w)
    assert verify_trace(trace) is False


class SwappedBackend(FBackend):
    """Evaluates x2 as x3 and x3 as x2, which breaks x0^-1 x1 x0 = x2."""

    def from_word(self, word):
        swap = {2: 3, 3: 2}
        return super().from_word(
            tuple((Generator("x", swap.get(g.index, g.index)), e) for g, e in word)
        )


def test_local_conjugation_check_catches_a_wrong_relation(monkeypatch):
    w = tw("x0 x1 x0^-1 x1^-1")
    trace = alt_trace(w)
    conj = trace.steps[0]
    assert conj.rule == "conjugate_x0" and print_word(conj.output_word) == "x2^-1 x1"
    _check_in(monkeypatch, SwappedBackend())
    with pytest.raises(VerificationError, match="not confirmed by the tree-pair backend"):
        alt_trace(w)
    assert verify_trace(trace) is False


def test_conjugation_site_must_read_x0_inverse_v_x0(monkeypatch):
    # A site at rotation 0 reads x0 x1 x0^-1, not x0^-1 v x0.  Its v = x1
    # would pass the F check x0^-1 x1 x0 = x2, so only the check on the
    # site's end letters rejects it.
    monkeypatch.setattr("orecert.groups.trace._leftmost_conjugation_site", lambda w: (0, 2))
    with pytest.raises(VerificationError, match="malformed conjugation site"):
        alt_trace(tw("x0 x1 x0^-1 x1^-1"))


def _raise_subscripts(letters):
    return tuple((Generator("x", g.index + 1), e) for g, e in letters)


@pytest.mark.parametrize("where", ["inside v", "at a seam"])
def test_alternation_is_checked_around_the_shifted_v(monkeypatch, where):
    # The site is x0^-1 (x1 x2 x1) x0 and the tail x1.  Each edit of
    # shift(v, 1) = x2 x3 x2 breaks the alternation: raising the middle
    # subscript breaks two pairs inside it; raising all three keeps its own
    # pairs and breaks only the two seams with the tail.  Single letters,
    # which the F check shifts, are shifted right.
    w = tw("x0^-1 x1 x2 x1 x0 x1")
    assert print_word(alt_trace(w).steps[0].output_word) == "x2 x3 x2 x1"

    def edit(u):
        return u[:1] + _raise_subscripts(u[1:2]) + u[2:] if where == "inside v" else _raise_subscripts(u)

    def wrong_shift(word, alpha):
        shifted = shift_word(word, alpha)
        return edit(shifted) if len(word) > 1 and alpha == 1 else shifted

    monkeypatch.setattr("orecert.groups.trace.shift_word", wrong_shift)
    with pytest.raises(VerificationError, match="alternating invariant lost"):
        alt_trace(w)


def test_whole_word_alternation_is_checked_on_entry_and_after_each_shift(monkeypatch):
    calls = []

    def counted(word, cyclic=False):
        calls.append(word)
        return is_alternating(word, cyclic=cyclic)

    monkeypatch.setattr("orecert.groups.trace.is_alternating", counted)
    # the last word takes a shift before each of its three conjugations
    for text in ("x0 x1 x0^-1 x1^-1", "x0^-1 x1 x0 x3 x0^-1 x1 x0 x3^-1", "x2^-1 x3 x2 x1^-1 x2^-1 x3 x2 x1"):
        calls.clear()
        trace = alt_trace(tw(text))
        shifts = [s.output_word for s in trace.steps if s.rule == "shift"]
        assert calls == [trace.word, *shifts]


def test_exponent_sums():
    sums = trace_reference.exponent_sums(tw("x0 x1 x0^-1 x1"))
    assert sums == {Generator("x", 1): 2}


class CountingBackend(FBackend):
    """Records every word it evaluates."""

    def __init__(self):
        super().__init__()
        self.words = []

    def from_word(self, word):
        self.words.append(word)
        return super().from_word(word)


def _conjugated_words(trace):
    """The v of each conjugation step's site x0^-1 v x0."""
    for step in trace.steps:
        if step.rule == "conjugate_x0":
            rotated = cyclic_shift(step.input_word, step.rotation)
            end = next(i for i in range(1, len(rotated)) if rotated[i][0].index == 0)
            yield rotated[1:end]


def test_each_conjugated_letter_is_checked_once_per_call(monkeypatch):
    w = tw("x0^-1 x1 x2^-1 x1 x0 x3 x0^-1 x1 x2^-1 x1 x0 x3^-1")
    want = alt_trace(w)
    fb = CountingBackend()
    _check_in(monkeypatch, fb)
    trace = alt_trace(w)
    assert trace == want
    vs = list(_conjugated_words(trace))
    letters = {letter for v in vs for letter in v}
    assert sum(map(len, vs)) > len(letters)  # some letter recurs
    x0 = Generator("x", 0)
    checked = [c[1] for c in fb.words if len(c) == 3 and (c[0], c[2]) == ((x0, -1), (x0, 1))]
    assert sorted(checked) == sorted(letters)
    shifts = sum(s.rule == "shift" for s in trace.steps)
    assert len(fb.words) == 2 * shifts + 2 * len(letters)
    # nothing is kept between calls
    alt_trace(w)
    assert len(fb.words) == 2 * (2 * shifts + 2 * len(letters))
