"""Generation and testing of 321-avoiding permutations.

Besides plain avoiders of {1..n}, two constrained families are generated:

- left factors: 321-avoiding permutations of {1..b} whose last value is not b
  (there are C_b - C_{b-1} of them);
- right factors: 321-avoiding sequences over {b..n} whose first value is not b
  (there are C_{n-b+1} - C_{n-b} of them), walked over the values b..n,
  one block per first value b+1..n.

All streams are emitted in strictly increasing lexicographic order of the
one-line notation. An avoider's prefix continues only with the smallest
unused value or with a value above the prefix maximum: any other value below
the maximum would form a 321 with the maximum before it and the smaller
unused value still to come. Both kinds of step keep the prefix extendable,
so the search has no dead ends.

How a prefix can be completed depends only on its ballot state: k unused
values, s of them below the prefix maximum. There are
(s+1)/(k+1) binom(2k-s, k) completions, and as patterns of ranks among the
unused values they are the same for every prefix in that state (Ruskey,
*Combinatorial Generation*; Knuth, TAOCP 4A §7.2.1.6). One walk, _walk,
generates every avoider here, and the table too. It keeps each prefix's
state s on its stack, steps down to the prefixes that leave at most _TAIL
values unused, and reads each one's completions off the table entry of its
state. The entry, _tails(k, s, ...), is the same walk over the ranks
0..k-1: one step, then the entries one size smaller. Entries are built on
first use, never at import, and share one getter per rank pattern: the
completions of state (k, s) are among those of (k, 0), so all the entries
of size k hold C_k getters between them.
Every tuple of the three streams is checked to hold exactly the values of
its family before it is wrapped or printed. The one-321 enumeration reads
the unchecked walks, _avoiders and _right_factors, and checks each item it
builds from them instead.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import chain
from operator import itemgetter

from .errors import InternalConstraintViolation, InvalidRange, check_size
from .perms import DEFAULT_CAP, Permutation, ValueSequence

# The last _TAIL positions of every avoider are read off the completion table.
_TAIL = 7


@cache
def _tails(k: int, s: int, max_last: bool) -> tuple:
    """Getters that read every completion of a ballot state off its unused values.

    The state is k unused values, s of them below the prefix maximum. Each
    getter maps the sorted unused values to one completion, in lexicographic
    order. Without `max_last`, the completions ending with the largest unused
    value are left out. For k >= 2 the completions are the walk over the
    ranks 0..k-1, read off as index patterns. Built on first use.
    """
    # tuple() reads the one completion of at most one unused value; itemgetter
    # needs two indices to return a tuple.
    if k <= 1:
        return (tuple,) if max_last or k == 0 else ()
    return tuple(map(_getter, _walk((), s, tuple(range(k)), k - 1, None if max_last else k - 1)))


@cache
def _getter(pattern: tuple[int, ...]) -> itemgetter:
    """The one getter of a rank pattern, shared by every table entry that holds it."""
    return itemgetter(*pattern)


def _walk(
    prefix: tuple[int, ...], s: int, unused: tuple[int, ...], k: int, top: int | None
) -> Iterator[tuple[int, ...]]:
    """Every 321-avoiding completion of the prefix by the sorted unused values.

    s of the unused values lie below the prefix maximum. The walk steps down
    to the prefixes that leave k values unused and reads their completions
    off the table, in lexicographic order. With `top` given, the completions
    ending with that value are left out.
    """
    # Depth first, children pushed in reverse so that they pop in increasing
    # order. Rank 0 is the smallest unused value; a rank r >= max(s, 1) is a
    # value above the prefix maximum and becomes the new maximum with r below it.
    stack = [(prefix, s, unused)]
    while stack:
        prefix, s, unused = stack.pop()
        if len(unused) == k:
            yield from [prefix + get(unused) for get in _tails(k, s, top not in unused)]
            continue
        for r in reversed((0, *range(max(s, 1), len(unused)))):
            stack.append((prefix + (unused[r],), r or max(s - 1, 0), unused[:r] + unused[r + 1 :]))


def _avoiders(
    lo: int, hi: int, first: int | None = None, *, max_last: bool = True
) -> Iterator[tuple[int, ...]]:
    """All 321-avoiding arrangements of the values lo..hi, lexicographically.

    With `first` given, only those starting with that value. With
    `max_last` false, only those not ending with hi.
    """
    head = () if first is None else (first,)
    unused = tuple(v for v in range(lo, hi + 1) if v != first)
    # The first value leaves first - lo unused values below it.
    s = 0 if first is None else first - lo
    return _walk(head, s, unused, min(_TAIL, len(unused)), None if max_last else hi)


def _checked(tuples: Iterator[tuple[int, ...]], lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Pass the tuples through, each checked to hold exactly the values lo..hi."""
    values = list(range(lo, hi + 1))
    for t in tuples:
        if sorted(t) != values:
            raise InternalConstraintViolation(f"generated {t} does not hold exactly {lo}..{hi}")
        yield t


def _avoider_tuples(n: int, cap: int | None) -> Iterator[tuple[int, ...]]:
    check_size("avoider generation", "n", n, cap=cap)
    return _checked(_avoiders(1, n), 1, n)


def _sigma1_tuples(b: int, cap: int | None) -> Iterator[tuple[int, ...]]:
    if b < 2:
        raise InvalidRange(f"the middle value b must be at least 2, got {b}")
    check_size("left-factor generation", "b", b, cap=cap)
    return _checked(_avoiders(1, b, max_last=False), 1, b)


def _sigma2_tuples(b: int, n: int, cap: int | None) -> Iterator[tuple[int, ...]]:
    if not 2 <= b <= n - 1:
        raise InvalidRange(f"need 2 <= b <= n-1, got b={b}, n={n}")
    check_size("right-factor generation", "n - b + 1", n - b + 1, cap=cap)
    return _checked(_right_factors(b, n), b, n)


def _right_factors(b: int, n: int) -> Iterator[tuple[int, ...]]:
    """The right factors over b..n, unchecked, lexicographically."""
    # Only the first values b+1..n are walked: no factor starts with b.
    return chain.from_iterable(_avoiders(b, n, f) for f in range(b + 1, n + 1))


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
    return map(ValueSequence._trusted, _sigma2_tuples(b, n, cap))
