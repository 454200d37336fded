"""Exception hierarchy shared by all permpat modules.

Everything a caller can trigger with bad input derives from DomainError,
so the command-line layer can map any of them to a single exit code.
"""


class DomainError(Exception):
    """Base class for all input- or state-rejection errors."""


class NotAPermutation(DomainError):
    """Sequence is not a rearrangement of 1..n (or has duplicate values)."""


class NoUnique321(DomainError):
    """Permutation does not contain the pattern 321 exactly once."""


class NoOccurrence(NoUnique321):
    """No 321 occurrence at all."""


class MultipleOccurrences(NoUnique321):
    """At least two 321 occurrences."""


class ConstraintViolation(DomainError):
    """A decomposition invariant fails on caller-supplied data."""


class InternalConstraintViolation(ConstraintViolation):
    """A decomposition invariant fails on internally produced data.

    Raised defensively; with valid input this must never fire.
    """


class NonIntegerResult(DomainError):
    """An exact integer division left a remainder (defensive, never expected)."""


class CapExceeded(DomainError):
    """A request is past one of the configured limits on size or work.

    They are the generation cap of the enumerations and the bijection
    count, the n cap of the exhaustive oracle counts, the state budget of
    the 321 state count, the cap of the Catalan table, the `verify` cap on
    --max-n, and the `count` cap on the work of a generic pattern count.
    """


class InvalidRange(DomainError):
    """A numeric argument is outside the operation's domain."""
