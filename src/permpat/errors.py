"""Exception hierarchy shared by all permpat modules.

Everything a caller can trigger with bad input derives from DomainError,
so the command-line layer can map any of them to a single exit code.
Every refusal of a size, below its floor or above its cap, is raised by
check_size, in one message form.
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
    count, the n cap of the exhaustive oracle counts, the cap of the
    Catalan table, the caps of `verify` and `seq` on --max-n, the `count`
    cap on the work of a generic pattern count, and the n cap of the
    closed form (`noonan --n`). check_size raises every one of them but
    the state budget of the 321 state count, which is checked layer by
    layer as the count runs.
    """


class InvalidRange(DomainError):
    """A numeric argument is outside the operation's domain."""


def check_size(
    what: str, name: str, value: int, low: int = 0, cap: int | None = None, why: str = ""
) -> None:
    """Refuse a size below `low` (InvalidRange) or above `cap` (CapExceeded).

    Every floor and cap on a size is checked here, so each refusal reads
    "<what>: need <name> >= <low>, got <value>" or "<what> at <name> =
    <value> exceeds the cap <cap>", followed by ": <why>" when a reason is
    given. With no cap, none is enforced.

    >>> check_size("seq", "--max-n", 6000, cap=5000, why="it grows as N^3")
    Traceback (most recent call last):
    ...
    permpat.errors.CapExceeded: seq at --max-n = 6000 exceeds the cap 5000: it grows as N^3
    >>> check_size("the state count", "n", 10**6)
    """
    if value < low:
        raise InvalidRange(f"{what}: need {name} >= {low}, got {value}")
    if cap is not None and value > cap:
        reason = f": {why}" if why else ""
        raise CapExceeded(f"{what} at {name} = {value} exceeds the cap {cap}{reason}")
