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
increasing order.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterator, Sequence

from .errors import CapExceeded, InvalidB, InvalidRange
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


def _pool_blocks(worker, jobs, threads):
    """Run `worker` over `jobs` in a process pool, yielding results in order."""
    with multiprocessing.Pool(min(threads, len(jobs))) as pool:
        yield from pool.imap(worker, jobs)


def _avoider_block(args: tuple[int, int]) -> list[tuple[int, ...]]:
    m, first = args
    return list(_avoiders(m, first))


def _sigma1_block(args: tuple[int, int]) -> list[tuple[int, ...]]:
    b, first = args
    return [vals for vals in _avoiders(b, first) if vals[-1] != b]


def _sigma2_block(args: tuple[int, int, int]) -> list[tuple[int, ...]]:
    b, n, first = args
    shift = b - 1
    return [tuple(v + shift for v in vals) for vals in _avoiders(n - b + 1, first)]


def enumerate_avoiders(
    n: int, *, cap: int = DEFAULT_CAP, threads: int = 1
) -> Iterator[Permutation]:
    """Every 321-avoiding permutation of {1..n}, lexicographically.

    The stream has exactly C_n items. With threads > 1 the search is
    partitioned by first value across worker processes and merged back in
    order, so the output is identical either way. Arguments are validated
    here, before the first item is requested.

    >>> [str(p) for p in enumerate_avoiders(3)]
    ['1 2 3', '1 3 2', '2 1 3', '2 3 1', '3 1 2']
    """
    _check_cap(n, cap, "avoider generation")
    return _iter_avoiders(n, threads)


def _iter_avoiders(n: int, threads: int) -> Iterator[Permutation]:
    if threads > 1 and n > 1:
        jobs = [(n, f) for f in range(1, n + 1)]
        for block in _pool_blocks(_avoider_block, jobs, threads):
            for vals in block:
                yield Permutation(vals)
    else:
        for vals in _avoiders(n):
            yield Permutation(vals)


def enumerate_sigma1(
    b: int, *, cap: int = DEFAULT_CAP, threads: int = 1
) -> Iterator[Permutation]:
    """321-avoiding permutations of {1..b} not ending with b, lexicographically.

    The stream has exactly C_b - C_{b-1} items.
    """
    if b < 2:
        raise InvalidB(f"the middle value b must be at least 2, got {b}")
    _check_cap(b, cap, "left-factor generation")
    return _iter_sigma1(b, threads)


def _iter_sigma1(b: int, threads: int) -> Iterator[Permutation]:
    if threads > 1:
        jobs = [(b, f) for f in range(1, b + 1)]
        for block in _pool_blocks(_sigma1_block, jobs, threads):
            for vals in block:
                yield Permutation(vals)
    else:
        for vals in _avoiders(b):
            if vals[-1] != b:
                yield Permutation(vals)


def enumerate_sigma2(
    b: int, n: int, *, cap: int = DEFAULT_CAP, threads: int = 1
) -> Iterator[ValueSequence]:
    """321-avoiding sequences over {b..n} not starting with b, lexicographically.

    The stream has exactly C_{n-b+1} - C_{n-b} items. Items carry their
    literal values from {b..n}, not a normalized copy.
    """
    if not 2 <= b <= n - 1:
        raise InvalidRange(f"need 2 <= b <= n-1, got b={b}, n={n}")
    _check_cap(n - b + 1, cap, "right-factor generation")
    return _iter_sigma2(b, n, threads)


def _iter_sigma2(b: int, n: int, threads: int) -> Iterator[ValueSequence]:
    m = n - b + 1
    shift = b - 1
    if threads > 1:
        # An avoider starting with 1 shifts to a sequence starting with b.
        jobs = [(b, n, f) for f in range(2, m + 1)]
        for block in _pool_blocks(_sigma2_block, jobs, threads):
            for vals in block:
                yield ValueSequence(vals)
    else:
        for vals in _avoiders(m):
            if vals[0] != 1:
                yield ValueSequence(tuple(v + shift for v in vals))
