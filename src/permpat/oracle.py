"""Ground truth by exhaustive search over all n! permutations.

Two exact counters of the n-permutations with exactly k occurrences of a
pattern, both exhaustive:

- pruned_count_exactly_k, which the CLI uses, searches prefixes depth first.
  Appending a value never removes an occurrence, so a prefix whose running
  count exceeds k is dropped with every permutation that extends it.
- brute_count_exactly_k is the reference that checks it: it enumerates every
  permutation and counts occurrences with the naive generic counter.

This module deliberately knows nothing about the optimized counters, the
avoider generators, or the bijection, so that a bug elsewhere cannot
confirm itself here.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from .errors import CapExceeded, InvalidRange
from .perms import PATTERN_321, Permutation, count_occurrences

DEFAULT_ORACLE_CAP = 10

_Job = tuple[int, int, tuple[int, ...], int]


def _check(n: int, cap: int) -> None:
    if n < 0:
        raise InvalidRange(f"need n >= 0, got {n}")
    if n > cap:
        raise CapExceeded(
            f"brute force over {n}! permutations exceeds the cap {cap}; "
            f"raise the cap explicitly if you can afford the runtime"
        )


def _count_block(args: _Job) -> int:
    """Exactly-k count over permutations with a fixed first value."""
    n, first, pattern, k = args
    rest = [v for v in range(1, n + 1) if v != first]
    total = 0
    for tail in itertools.permutations(rest):
        if count_occurrences((first,) + tail, pattern) == k:
            total += 1
    return total


def _pruned_block(args: _Job) -> int:
    """Exactly-k count over permutations with a fixed first value, by prefix search.

    Appending x to a prefix adds the occurrences whose last pattern slot is
    x. They are counted by fixing the last slot to x and matching the
    earlier slots left to right in the prefix, each bounded by the closest
    already-fixed slots below and above it in value, as count_occurrences
    does. The count stops once it exceeds what the prefix may still add.
    """
    n, first, pattern, k = args
    m = len(pattern)
    lo_slot: list[int | None] = []
    hi_slot: list[int | None] = []
    for s in range(m - 1):
        fixed = [m - 1, *range(s)]
        below = [f for f in fixed if pattern[f] < pattern[s]]
        above = [f for f in fixed if pattern[f] > pattern[s]]
        lo_slot.append(max(below, key=pattern.__getitem__) if below else None)
        hi_slot.append(min(above, key=pattern.__getitem__) if above else None)
    prefix: list[int] = []
    chosen = [0] * m
    top = n + 1

    def extend(s: int, start: int, budget: int) -> int:
        # Matches of slots s..m-2 at prefix positions >= start; stops once past budget.
        lo = chosen[lo_slot[s]] if lo_slot[s] is not None else 0
        hi = chosen[hi_slot[s]] if hi_slot[s] is not None else top
        last = len(prefix) - (m - 1 - s)
        total = 0
        if s == m - 2:
            for pos in range(start, last + 1):
                if lo < prefix[pos] < hi:
                    total += 1
                    if total > budget:
                        break
            return total
        for pos in range(start, last + 1):
            v = prefix[pos]
            if lo < v < hi:
                chosen[s] = v
                total += extend(s + 1, pos + 1, budget - total)
                if total > budget:
                    break
        return total

    def ending_at(x: int, budget: int) -> int:
        if m <= 1:
            # the empty pattern ends nowhere; the pattern 1 ends once at x
            return m
        chosen[-1] = x
        return extend(0, 0, budget)

    def grow(rest: tuple[int, ...], count: int) -> int:
        if not rest:
            return 1 if count == k else 0
        total = 0
        for i, x in enumerate(rest):
            now = count + ending_at(x, k - count)
            if now <= k:
                prefix.append(x)
                total += grow(rest[:i] + rest[i + 1 :], now)
                prefix.pop()
        return total

    # the empty pattern occurs once in every sequence, the empty one included
    count = ending_at(first, k) if m else 1
    if count > k:
        return 0
    prefix.append(first)
    return grow(tuple(v for v in range(1, n + 1) if v != first), count)


def _sum_blocks(
    block: Callable[[_Job], int],
    n: int,
    pattern: Permutation,
    k: int,
    cap: int,
    threads: int,
    progress: Callable[[int, int], None] | None,
) -> int:
    """Sum `block` over the first values 1..n, across processes when threads > 1."""
    _check(n, cap)
    if k < 0:
        raise InvalidRange(f"need k >= 0, got {k}")
    if n == 0:
        return 1 if count_occurrences((), pattern.values) == k else 0
    jobs = [(n, first, pattern.values, k) for first in range(1, n + 1)]
    total = 0
    if threads > 1:
        import multiprocessing

        with multiprocessing.Pool(min(threads, len(jobs))) as pool:
            for done, part in enumerate(pool.imap(block, jobs), start=1):
                total += part
                if progress is not None:
                    progress(done, n)
    else:
        for done, job in enumerate(jobs, start=1):
            total += block(job)
            if progress is not None:
                progress(done, n)
    return total


def pruned_count_exactly_k(
    n: int,
    pattern: Permutation,
    k: int,
    *,
    cap: int = DEFAULT_ORACLE_CAP,
    threads: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """Number of n-permutations with exactly k occurrences of `pattern`.

    Exhaustive depth-first search over prefixes that drops a prefix once it
    has more than k occurrences; exact at any k and for any pattern, and
    checked against brute_count_exactly_k. The work is partitioned by first
    value, across processes when threads > 1, and the partial counts are
    summed, so the result does not depend on threads. `progress(done, total)`
    is invoked after each first-value partition.

    >>> pruned_count_exactly_k(5, PATTERN_321, 1)
    27
    """
    return _sum_blocks(_pruned_block, n, pattern, k, cap, threads, progress)


def brute_count_exactly_k(
    n: int,
    pattern: Permutation,
    k: int,
    *,
    cap: int = DEFAULT_ORACLE_CAP,
    threads: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """Number of n-permutations with exactly k occurrences of `pattern`.

    Full enumeration of all n! permutations with the naive counter; exact at
    any k. This is the reference for pruned_count_exactly_k. Partitioning,
    threads and progress behave as there.
    """
    return _sum_blocks(_count_block, n, pattern, k, cap, threads, progress)


def brute_noonan_set(n: int, *, cap: int = DEFAULT_ORACLE_CAP) -> Iterator[Permutation]:
    """All n-permutations containing 321 exactly once, lexicographically."""
    _check(n, cap)
    return _iter_noonan_set(n)


def _iter_noonan_set(n: int) -> Iterator[Permutation]:
    pattern = PATTERN_321.values
    for vals in itertools.permutations(range(1, n + 1)):
        if count_occurrences(vals, pattern) == 1:
            yield Permutation(vals)
