import dataclasses
import itertools

import pytest

import trace_reference
from helpers import alternating_words

from orecert.errors import NotAlternatingError, VerificationError
from orecert.groups import FBackend, alt_trace, verify_trace
from orecert.groups.trace import AltTrace, TraceStep
from orecert.words import Alphabet, Generator, parse_word, print_word

FB = FBackend()
X = Alphabet.indexed()


def tw(text):
    return parse_word(text, X)


def test_commutator_trace_matches_hand_execution():
    trace = alt_trace(tw("x0 x1 x0^-1 x1^-1"), FB)
    assert trace.verdict == "nontrivial"
    assert [s.rule for s in trace.steps] == ["conjugate_x0", "witness"]
    conj = trace.steps[0]
    assert conj.rotation == 2
    assert print_word(conj.conjugator) == "x0 x1"
    assert print_word(conj.output_word) == "x2^-1 x1"
    assert trace.witness == "exponent sum of x1 is +1"
    assert verify_trace(trace, FB)


def test_immediate_witness():
    trace = alt_trace(tw("x0 x1"), FB)
    assert [s.rule for s in trace.steps] == ["witness"]
    assert trace.witness == "exponent sum of x0 is +1"


def test_longer_word_traces_nontrivial():
    trace = alt_trace(tw("x2 x1 x0^-1 x3^-1"), FB)
    assert trace.verdict == "nontrivial"
    assert len(trace.steps) >= 1
    assert not FB.is_identity(FB.from_word(tw("x2 x1 x0^-1 x3^-1")))


def test_shift_step_fires_for_positive_minimum():
    trace = alt_trace(tw("x2 x1 x2^-1 x1^-1"), FB)
    rules = [s.rule for s in trace.steps]
    assert "shift" in rules
    shift = trace.steps[rules.index("shift")]
    assert shift.alpha == 1
    assert print_word(shift.output_word) == "x1 x0 x1^-1 x0^-1"
    assert trace.verdict == "nontrivial"
    assert verify_trace(trace, FB)


def test_cyclic_input_accepted():
    # Rotation of an alternating word: odd subscript first.
    trace = alt_trace(tw("x1 x0 x1^-1 x0^-1"), FB)
    assert trace.verdict == "nontrivial"


def test_non_alternating_rejected():
    with pytest.raises(NotAlternatingError):
        alt_trace(tw("x0 x2"), FB)
    with pytest.raises(NotAlternatingError):
        alt_trace((), FB)
    with pytest.raises(NotAlternatingError):
        alt_trace(tw("x0 x1 x0"), FB)


def test_conjugate_steps_shrink_by_two():
    for w in alternating_words(3):
        trace = alt_trace(w, FB)
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
            trace = alt_trace(w, FB)
            assert trace.verdict == "nontrivial"
            assert verify_trace(trace, FB)
            assert not FB.is_identity(FB.from_word(w))
            count += 1
    assert count == 16 + 256 + 4096


def test_verify_rejects_tampered_trace():
    trace = alt_trace(tw("x0 x1 x0^-1 x1^-1"), FB)
    bad_steps = list(trace.steps)
    bad_steps[-1] = type(bad_steps[-1])(
        "witness",
        bad_steps[-1].input_word,
        bad_steps[-1].input_word,
        alpha=1,
        witness="exponent sum of x1 is +2",
    )
    tampered = AltTrace(trace.word, tuple(bad_steps), "nontrivial", "bogus")
    assert not verify_trace(tampered, FB)


def test_verify_rejects_broken_chain():
    t1 = alt_trace(tw("x0 x1 x0^-1 x1^-1"), FB)
    t2 = alt_trace(tw("x0 x3 x0^-1 x3^-1"), FB)
    mixed = AltTrace(t1.word, t2.steps, t2.verdict, t2.witness)
    assert not verify_trace(mixed, FB)


def test_verify_rejects_valid_but_non_canonical_trace():
    # The first x0^-1 v x0 site is at 0; taking the one at 4 instead gives a
    # trace whose every step holds in F, but alt_trace does not derive it.
    w = tw("x0^-1 x1 x0 x1 x0^-1 x3 x0 x1^-1")
    assert alt_trace(w, FB).steps[0].rotation == 0
    first = TraceStep(
        "conjugate_x0",
        w,
        tw("x4 x1^-1 x0^-1 x1 x0 x1"),
        rotation=4,
        conjugator=w[:4],
    )
    rest = alt_trace(first.output_word, FB)
    other = AltTrace(w, (first, *rest.steps), "nontrivial", rest.witness)
    assert trace_reference.verify_trace(other, FB)
    assert not verify_trace(other, FB)


def test_verify_reads_every_field():
    trace = alt_trace(tw("x0 x1 x0^-1 x1^-1"), FB)
    conj, witness = trace.steps
    for edited in (
        (dataclasses.replace(conj, alpha=7), witness),
        (dataclasses.replace(conj, witness="anything"), witness),
        (conj, dataclasses.replace(witness, rotation=5)),
    ):
        assert not verify_trace(dataclasses.replace(trace, steps=edited), FB)
    assert not verify_trace(dataclasses.replace(trace, witness="bogus"), FB)


def test_verify_returns_false_on_an_impossible_shift():
    trace = alt_trace(tw("x2 x1 x2^-1 x1^-1"), FB)
    shift = trace.steps[0]
    assert shift.rule == "shift"
    edited = (dataclasses.replace(shift, alpha=2), *trace.steps[1:])
    assert verify_trace(dataclasses.replace(trace, steps=edited), FB) is False


class LengthBackend(FBackend):
    """Evaluates a word to its length: no F fact holds in it."""

    def from_word(self, word):
        return len(word)


def test_failed_f_check_raises_and_verify_returns_false():
    w = tw("x0 x1 x0^-1 x1^-1")
    with pytest.raises(VerificationError, match="not confirmed by the tree-pair backend"):
        alt_trace(w, LengthBackend())
    assert verify_trace(alt_trace(w, FB), LengthBackend()) is False


class ShiftBlindBackend(FBackend):
    """Takes one nontrivial element of F for the identity."""

    def is_identity(self, x):
        return x == self.from_word(tw("x1 x0 x1^-1 x0^-1"))


def test_shift_that_changes_identity_status_raises():
    # Only the shift step reads is_identity: the conjugations still hold.
    assert alt_trace(tw("x0 x1 x0^-1 x1^-1"), ShiftBlindBackend()).steps
    w = tw("x2 x1 x2^-1 x1^-1")
    with pytest.raises(VerificationError, match="not confirmed by the tree-pair backend"):
        alt_trace(w, ShiftBlindBackend())
    assert verify_trace(alt_trace(w, FB), ShiftBlindBackend()) is False


class SwappedBackend(FBackend):
    """Evaluates x2 as x3 and x3 as x2, which breaks x0^-1 x1 x0 = x2."""

    def generator_element(self, gen):
        return super().generator_element(Generator("x", {2: 3, 3: 2}.get(gen.index, gen.index)))


def test_local_conjugation_check_catches_a_wrong_relation():
    w = tw("x0 x1 x0^-1 x1^-1")
    conj = alt_trace(w, FB).steps[0]
    assert conj.rule == "conjugate_x0" and print_word(conj.output_word) == "x2^-1 x1"
    with pytest.raises(VerificationError, match="not confirmed by the tree-pair backend"):
        alt_trace(w, SwappedBackend())
    assert verify_trace(alt_trace(w, FB), SwappedBackend()) is False


def test_conjugation_site_must_read_x0_inverse_v_x0(monkeypatch):
    # A site at rotation 0 reads x0 x1 x0^-1, not x0^-1 v x0.  Its v = x1
    # would pass the F check x0^-1 x1 x0 = x2, so only the check on the
    # site's end letters rejects it.
    monkeypatch.setattr("orecert.groups.trace._leftmost_conjugation_site", lambda w: (0, 2))
    with pytest.raises(VerificationError, match="malformed conjugation site"):
        alt_trace(tw("x0 x1 x0^-1 x1^-1"), FB)
