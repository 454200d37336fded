"""Generation and testing of 321-avoiding permutations.

Besides plain avoiders of {1..n}, two constrained families are generated:

- left factors: 321-avoiding permutations of {1..b} whose last value is not b
  (there are C_b - C_{b-1} of them);
- right factors: 321-avoiding sequences over {b..n} whose first value is not b
  (there are C_{n-b+1} - C_{n-b} of them), produced by generating avoiders of
  length n-b+1 and shifting every value up by b-1.

All streams are emitted in strictly increasing lexicographic order of the
one-line notation. An avoider's prefix continues only with the smallest
unused value or with a value above the prefix maximum: any other value below
the maximum would form a 321 with the maximum before it and the smaller
unused value still to come. Both kinds of step keep the prefix extendable,
so the search has no dead ends, and generation steps from each avoider
straight to its lexicographic successor, as in the constant-amortized-time
Catalan generators of Knuth, TAOCP 4A §7.2.1.6. Every value from the
maximum onwards is forced; the value just before the maximum becomes one
more than the largest value so far, and the unused values follow in
increasing order. Every generated tuple is checked to hold exactly the
values of its family before it is wrapped or printed.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import CapExceeded, InternalConstraintViolation, InvalidRange
from .perms import Permutation, ValueSequence

DEFAULT_CAP = 14


def is_avoiding_321(seq: Permutation | ValueSequence | Sequence[int]) -> bool:
    """True iff the sequence contains no 321 occurrence.

    Avoidance depends only on the relative order of the values, so any
    sequence of distinct integers is accepted.

    >>> is_avoiding_321((2, 4, 1, 3))
    True
    >>> is_avoiding_321((3, 2, 1))
    False
    """
    values = getattr(seq, "values", seq)
    m1 = 0  # prefix maximum
    m2 = 0  # largest value with a larger value before it
    for v in values:
        if v < m2:
            return False
        if v > m1:
            m1 = v
        else:
            m2 = v
    return True


def _avoiders(m: int, first: int | None = None) -> Iterator[tuple[int, ...]]:
    """All 321-avoiding arrangements of 1..m, lexicographically.

    With `first` given, only those starting with that value.
    """
    if m == 0:
        yield ()
        return
    a = list(range(1, m + 1))
    fixed = 0
    if first is not None:
        a.remove(first)
        a.insert(0, first)
        fixed = 1
    while True:
        yield tuple(a)
        # Positions from that of m onwards hold forced values; the one just
        # before it takes its next candidate, and the rest restarts smallest.
        p = a.index(m)
        if p <= fixed:
            return
        v = max(a[:p]) + 1
        rest = sorted(a[p - 1 :])
        rest.remove(v)
        a[p - 1 :] = [v, *rest]


def _check_cap(m: int, cap: int, what: str) -> None:
    if m < 0:
        raise InvalidRange(f"{what} requires a nonnegative length, got {m}")
    if m > cap:
        raise CapExceeded(f"{what} of length {m} exceeds the cap {cap}")


def _checked(tuples: Iterator[tuple[int, ...]], lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Pass the tuples through, each checked to hold exactly the values lo..hi."""
    values = list(range(lo, hi + 1))
    for t in tuples:
        if sorted(t) != values:
            raise InternalConstraintViolation(f"generated {t} does not hold exactly {lo}..{hi}")
        yield t


def _avoider_tuples(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    _check_cap(n, cap, "avoider generation")
    return _checked(_avoiders(n), 1, n)


def _sigma1_tuples(b: int, cap: int) -> Iterator[tuple[int, ...]]:
    if b < 2:
        raise InvalidRange(f"the middle value b must be at least 2, got {b}")
    _check_cap(b, cap, "left-factor generation")
    return _checked((vals for vals in _avoiders(b) if vals[-1] != b), 1, b)


def _sigma2_tuples(b: int, n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if not 2 <= b <= n - 1:
        raise InvalidRange(f"need 2 <= b <= n-1, got b={b}, n={n}")
    m = n - b + 1
    _check_cap(m, cap, "right-factor generation")
    shifted = list(range(b - 1, n + 1)).__getitem__
    # An avoider starting with 1 shifts to a sequence starting with b, so
    # only the first values 2..m are generated.
    return _checked(
        (tuple(map(shifted, vals)) for f in range(2, m + 1) for vals in _avoiders(m, f)), b, n
    )


def enumerate_avoiders(n: int, *, cap: int = DEFAULT_CAP) -> Iterator[Permutation]:
    """Every 321-avoiding permutation of {1..n}, lexicographically.

    The stream has exactly C_n items. Arguments are validated here, before
    the first item is requested.

    >>> [str(p) for p in enumerate_avoiders(3)]
    ['1 2 3', '1 3 2', '2 1 3', '2 3 1', '3 1 2']
    """
    return map(Permutation._trusted, _avoider_tuples(n, cap))


def enumerate_sigma1(b: int, *, cap: int = DEFAULT_CAP) -> Iterator[Permutation]:
    """321-avoiding permutations of {1..b} not ending with b, lexicographically.

    The stream has exactly C_b - C_{b-1} items.
    """
    return map(Permutation._trusted, _sigma1_tuples(b, cap))


def enumerate_sigma2(b: int, n: int, *, cap: int = DEFAULT_CAP) -> Iterator[ValueSequence]:
    """321-avoiding sequences over {b..n} not starting with b, lexicographically.

    The stream has exactly C_{n-b+1} - C_{n-b} items. Items carry their
    literal values from {b..n}, not a normalized copy.
    """
    return map(ValueSequence, _sigma2_tuples(b, n, cap))
