"""Permutations in one-line notation and exact 321-occurrence counting.

Conventions used throughout the package:

- A permutation of length n is a rearrangement of the values 1..n, written
  in one-line notation: the tuple (p(1), ..., p(n)). Values and positions
  are both 1-based.
- The text form of any value sequence is the values space-separated on a
  single line, e.g. "3 2 1 4".
- An occurrence of a pattern of length k in p is an increasing position
  tuple i_1 < ... < i_k whose values are order-isomorphic to the pattern.
  "Contains 321" therefore means some i < j < k has p_i > p_j > p_k.

All counts are exact Python integers, so nothing overflows.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import InvalidRange, MultipleOccurrences, NoOccurrence, NotAPermutation

# The largest length the avoider and one-321 enumerations generate without an
# explicit cap. It lives here so that `bijection` can name it as a default
# without loading `avoiders`.
DEFAULT_CAP = 14


class _Frozen:
    """Immutable value object over __slots__, compared field by field.

    Subclasses name their fields in __slots__ and set them once in __init__
    through object.__setattr__. Equality and hash are those of the field
    tuple, restricted to the same class; the repr lists the fields as
    keyword arguments. Pickling and copying rebuild through __init__, so a
    payload is validated again on the way in.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._fields())


class _Values(_Frozen):
    """A value object over one field, the tuple `values`, in one-line text form."""

    __slots__ = ()
    values: tuple[int, ...]

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> _Values:
        """Wrap a tuple already known to satisfy the class's invariant, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "values", values)
        return obj

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return _text(self.values)


def _text(values: Iterable[int]) -> str:
    """The one-line text form of a value sequence: the values space-separated."""
    return " ".join(map(str, values))


class Permutation(_Values):
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((3, 1, 2)).n
    3
    >>> str(Permutation((3, 1, 2)))
    '3 1 2'
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]) -> None:
        values = tuple(values)
        n = len(values)
        seen = [False] * (n + 1)
        for v in values:
            if type(v) is not int or v < 1 or v > n or seen[v]:
                raise NotAPermutation(f"{list(values)} is not a permutation of 1..{n}")
            seen[v] = True
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)


class ValueSequence(_Values):
    """A sequence of distinct positive integers over an arbitrary value set.

    Unlike Permutation, the support need not be 1..n; it can be any set of
    distinct positive values (e.g. a rearrangement of {b..n}).
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]) -> None:
        values = tuple(values)
        seen = set()
        for v in values:
            if type(v) is not int or v < 1 or v in seen:
                raise NotAPermutation(
                    f"{list(values)} is not a sequence of distinct positive integers"
                )
            seen.add(v)
        object.__setattr__(self, "values", values)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.values)


class Occurrence321(_Frozen):
    """Positions (i, j, k) and values (c, b, a) of one 321 occurrence.

    Positions are 1-based and strictly increasing; values satisfy c > b > a.
    """

    __slots__ = ("positions", "values")
    positions: tuple[int, int, int]
    values: tuple[int, int, int]

    def __init__(self, positions: tuple[int, int, int], values: tuple[int, int, int]) -> None:
        i, j, k = positions
        c, b, a = values
        if not (1 <= i < j < k):
            raise InvalidRange(f"positions {positions} not strictly increasing")
        if not (c > b > a >= 1):
            raise InvalidRange(f"values {values} not strictly decreasing")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)


def from_one_line(raw: Iterable[int]) -> Permutation:
    """Validate raw integers as a permutation of 1..n.

    >>> from_one_line([3, 2, 1]).values
    (3, 2, 1)
    """
    return Permutation(tuple(raw))


def parse_one_line(text: str) -> Permutation:
    """Parse the space-separated text form, e.g. "3 2 1 4"."""
    return from_one_line(_parse_ints(text))


def parse_value_sequence(text: str) -> ValueSequence:
    return ValueSequence(tuple(_parse_ints(text)))


def _parse_ints(text: str) -> list[int]:
    out = []
    for tok in text.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise NotAPermutation(f"not an integer: {tok!r}") from None
    return out


def standardize(values: Sequence[int]) -> Permutation:
    """The permutation order-isomorphic to a sequence of distinct values.

    >>> standardize((5, 9, 7)).values
    (1, 3, 2)
    """
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return Permutation(tuple(rank[v] for v in values))


def count_occurrences(values: Sequence[int], pattern: Sequence[int]) -> int:
    """Exact number of occurrences of `pattern` among subsequences of `values`.

    Both arguments are plain sequences of distinct integers. Counting is a
    depth-first extension of partial matches; a branch is abandoned as soon
    as the remaining positions cannot complete the pattern or the next value
    falls outside the interval forced by the values already matched.
    """
    n, k = len(values), len(pattern)
    if k == 0:
        return 1
    if k > n:
        return 0
    # For each pattern slot t, the slots (earlier in the pattern) holding the
    # closest value below resp. above pattern[t]; they bound the candidates.
    low_slot: list[int | None] = []
    high_slot: list[int | None] = []
    for t in range(k):
        below = [s for s in range(t) if pattern[s] < pattern[t]]
        above = [s for s in range(t) if pattern[s] > pattern[t]]
        low_slot.append(max(below, key=lambda s: pattern[s]) if below else None)
        high_slot.append(min(above, key=lambda s: pattern[s]) if above else None)

    chosen = [0] * k
    neg_inf, pos_inf = float("-inf"), float("inf")

    def extend(t: int, start: int) -> int:
        lo = chosen[low_slot[t]] if low_slot[t] is not None else neg_inf
        hi = chosen[high_slot[t]] if high_slot[t] is not None else pos_inf
        last = n - (k - t)
        total = 0
        if t == k - 1:
            for pos in range(start, last + 1):
                if lo < values[pos] < hi:
                    total += 1
            return total
        for pos in range(start, last + 1):
            v = values[pos]
            if lo < v < hi:
                chosen[t] = v
                total += extend(t + 1, pos + 1)
        return total

    return extend(0, 0)


def count_pattern(perm: Permutation, pattern: Permutation) -> int:
    """Exact number of occurrences of `pattern` in `perm`.

    >>> count_pattern(from_one_line([4, 3, 2, 1]), from_one_line([3, 2, 1]))
    4
    """
    return count_occurrences(perm.values, pattern.values)


PATTERN_321 = Permutation((3, 2, 1))


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
    # Both start below every value, so that values <= 0 are judged too.
    m1 = float("-inf")  # prefix maximum
    m2 = float("-inf")  # largest value with a larger value before it
    for v in values:
        if v < m2:
            return False
        if v > m1:
            m1 = v
        else:
            m2 = v
    return True


def count_321(perm: Permutation | ValueSequence) -> int:
    """Number of 321 occurrences, as a sum over the middle position.

    For each j the contribution is (#i < j with p_i > p_j) times
    (#k > j with p_k < p_j). With s the number of smaller values before j,
    the popcount of the bits below p_j in the bit set of the values before
    it, the first factor is j - s and, since the values are 1..n, the
    second is p_j - 1 - s. A ValueSequence is ranked to 1..n first. Exact,
    and quadratic only in the machine words of the bit set: on a 2-core
    Xeon VM a random n = 3000 takes about 1.3 ms, and the longest `--perm`
    one command-line argument can carry (128 KiB, n about 23,700) about
    50 ms at random and 30 ms in decreasing order. Only in-process calls
    reach further; a random n = 100,000 takes about 0.6 s.

    >>> count_321(from_one_line([3, 2, 1, 4]))
    1
    >>> count_321(ValueSequence((5, 4, 3)))
    1
    """
    return _pass_321(_ranks(perm))[1]


def _ranks(seq: Permutation | ValueSequence) -> tuple[int, ...]:
    """The values of seq ranked to 1..n: a Permutation's own, standardized otherwise."""
    return seq.values if isinstance(seq, Permutation) else standardize(seq.values).values


def _pass_321(values: Iterable[int], j: int = 0, mask: int = 0) -> tuple[int, int, int]:
    """count_321's middle-position pass: the bit set, the sum and the last middle.

    The pass resumes after j values whose bit set (bit v for value v) is
    `mask`, and sums the terms of `values` alone; the defaults start it,
    and a caller adds up the sums of the parts it passes. The last middle
    is the last position j whose term (j - s)(v - 1 - s) is nonzero in this
    call (-1 if none is): when the values are 1..n every term is at least 0,
    so a sum of 1 is one term, and that position is the middle of the only
    321. The sum is the 321 count only when the values are 1..n, that is
    when the length is n and the bit set is (1 << (n + 1)) - 2, which the
    caller checks where it is not known. A negative value raises ValueError.
    """
    total, middle = 0, -1
    for j, v in enumerate(values, j):
        bit = 1 << v
        s = (mask & (bit - 1)).bit_count()
        mask |= bit
        if term := (j - s) * (v - 1 - s):
            total += term
            middle = j
    return mask, total, middle


def find_unique_321(perm: Permutation | ValueSequence) -> Occurrence321:
    """The unique 321 occurrence of `perm`, as positions and values.

    The pass behind count_321 gives the count and the middle position j of
    the last nonzero term, which is the only one when the count is 1. Then
    i is the first position before j with a larger value, and k the first
    after j with a smaller one. The values are the sequence's own, also for
    a ValueSequence. Raises NoOccurrence when the count is 0 and
    MultipleOccurrences when it is at least 2.

    >>> find_unique_321(from_one_line([3, 2, 1, 4]))
    Occurrence321(positions=(1, 2, 3), values=(3, 2, 1))
    """
    v = perm.values
    _, total, j = _pass_321(_ranks(perm))
    if total != 1:
        subject = str(perm) or "the empty permutation"
        if total == 0:
            raise NoOccurrence(f"{subject} contains no 321 occurrence")
        raise MultipleOccurrences(f"{subject} contains more than one 321 occurrence")
    b = v[j]
    i = next(i for i in range(j) if v[i] > b)
    k = next(k for k in range(j + 1, len(v)) if v[k] < b)
    return Occurrence321((i + 1, j + 1, k + 1), (v[i], b, v[k]))
