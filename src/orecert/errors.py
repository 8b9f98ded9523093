"""Exception hierarchy shared by all modules."""


class OrecertError(Exception):
    """Base class for all errors raised by this package."""


class WordSyntaxError(OrecertError):
    """Malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGeneratorError(OrecertError):
    """A generator outside the declared alphabet."""


class NegativeExponentError(OrecertError):
    """A negative exponent where only positive words are allowed."""


class NotAlternatingError(OrecertError):
    """Input word does not have the alternating even/odd subscript shape."""


class BackendMismatchError(OrecertError):
    """An element of the wrong rank: a vector or flow text, or a product
    operand, whose rank is not the backend's."""


class ModeMismatchError(OrecertError):
    """A search called for the wrong ring, or a multiset view of a value
    with a coefficient below one."""


class UnsupportedOperationError(OrecertError):
    """Operation not available on this backend (e.g. inverse in a monoid)."""


class VerificationError(OrecertError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class NotARelationError(OrecertError):
    """An input word that was claimed to be a relation does not evaluate to 1."""


class NotEmbeddableError(OrecertError):
    """Cycle vertices could not be realised inside the monoid within bounds."""
