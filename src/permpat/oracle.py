"""Ground-truth brute force over all n! permutations.

This module deliberately knows nothing about the optimized counters, the
avoider generators, or the bijection: it enumerates every permutation in
lexicographic order and counts pattern occurrences with the naive generic
counter only, so that a bug elsewhere cannot confirm itself here.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from .errors import CapExceeded, InvalidRange
from .perms import PATTERN_321, Permutation, count_occurrences

DEFAULT_ORACLE_CAP = 10


def _check(n: int, cap: int) -> None:
    if n < 0:
        raise InvalidRange(f"need n >= 0, got {n}")
    if n > cap:
        raise CapExceeded(
            f"brute force over {n}! permutations exceeds the cap {cap}; "
            f"raise the cap explicitly if you can afford the runtime"
        )


def _count_block(args: tuple[int, int, tuple[int, ...], int]) -> int:
    """Exactly-k count over permutations with a fixed first value."""
    n, first, pattern, k = args
    rest = [v for v in range(1, n + 1) if v != first]
    total = 0
    for tail in itertools.permutations(rest):
        if count_occurrences((first,) + tail, pattern) == k:
            total += 1
    return total


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

    Full enumeration of all n! permutations; exact at any k. The work is
    partitioned by first value, across processes when threads > 1, and the
    partial counts are summed, so the result does not depend on threads.
    `progress(done, total)` is invoked after each first-value partition.
    """
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
            for done, part in enumerate(pool.imap(_count_block, jobs), start=1):
                total += part
                if progress is not None:
                    progress(done, n)
    else:
        for done, job in enumerate(jobs, start=1):
            total += _count_block(job)
            if progress is not None:
                progress(done, n)
    return total


def brute_noonan_set(n: int, *, cap: int = DEFAULT_ORACLE_CAP) -> Iterator[Permutation]:
    """All n-permutations containing 321 exactly once, lexicographically."""
    _check(n, cap)
    return _iter_noonan_set(n)


def _iter_noonan_set(n: int) -> Iterator[Permutation]:
    pattern = PATTERN_321.values
    for vals in itertools.permutations(range(1, n + 1)):
        if count_occurrences(vals, pattern) == 1:
            yield Permutation(vals)
