"""Ground truth by exhaustive counting, independent of the fast paths.

Two exact counters of the n-permutations with exactly k occurrences of a
pattern, both exhaustive:

- count_321_exactly_k, which the CLI uses, counts for the pattern 321 over
  prefix states. It builds every permutation position by position, but
  counts together the prefixes whose futures are the same, and drops a
  prefix once no completion of it can have exactly k occurrences.
- brute_count_exactly_k is the reference that checks it, for any pattern:
  it enumerates all n! permutations and counts occurrences with the naive
  generic counter.

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


def _check(n: int, cap: int, k: int = 0) -> None:
    if n < 0:
        raise InvalidRange(f"need n >= 0, got {n}")
    if n > cap:
        raise CapExceeded(
            f"exhaustive count at n = {n} exceeds the cap {cap}; "
            f"raise the cap explicitly if you can afford the runtime"
        )
    if k < 0:
        raise InvalidRange(f"need k >= 0, got {k}")


def count_321_exactly_k(
    n: int,
    k: int,
    *,
    cap: int = DEFAULT_ORACLE_CAP,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """Number of n-permutations with exactly k occurrences of 321.

    An exhaustive count over prefix states, one layer per position, checked
    against brute_count_exactly_k. Appending x to a prefix adds one
    occurrence for each 21-pair of the prefix whose lower value is above x,
    and each prefix value above x becomes the top of a new 21-pair. So what
    a prefix can still become depends only on its running count and, for
    each unused value y in increasing order, on a pair (g, f):

    - g, the number of prefix values above y;
    - f, the number of prefix 21-pairs whose lower value is above y.

    Appending x adds f(x) occurrences, and for every unused y < x it adds 1
    to g(y) and g(x) to f(y). Both g and f fall as y rises. Occurrences are
    never removed, and each unused y adds at least its f when it comes, so
    a state is dead once the f of its lowest unused value exceeds the
    budget k - count. And g is capped at budget + 1, because appending a
    value with a larger g pushes the f of every lower unused value past the
    budget. `progress(done, n)` is invoked after each layer.

    >>> count_321_exactly_k(5, 1)
    27
    """
    _check(n, cap, k)
    # (count, ((g, f) of each unused value, increasing)) -> prefixes in that state
    layer = {(0, ((0, 0),) * n): 1}
    for done in range(1, n + 1):
        after: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
        for (count, state), ways in layer.items():
            for i, (gx, fx) in enumerate(state):
                budget = k - count - fx
                # state[0] is the lowest unused value; below x its f grows by gx
                if budget < 0 or (i and state[0][1] + gx > budget):
                    continue
                top = budget + 1
                below = tuple([(g + 1 if g < top else top, f + gx) for g, f in state[:i]])
                if fx:
                    # the budget fell: cap g again (a state now dead drops out next layer)
                    above = tuple([(g if g < top else top, f) for g, f in state[i + 1 :]])
                else:
                    above = state[i + 1 :]
                key = (k - budget, below + above)
                after[key] = after.get(key, 0) + ways
        layer = after
        if progress is not None:
            progress(done, n)
    return sum(ways for (count, _), ways in layer.items() if count == k)


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
) -> int:
    """Number of n-permutations with exactly k occurrences of `pattern`.

    Full enumeration of all n! permutations with the naive counter; exact at
    any k and for any pattern. This is the reference for count_321_exactly_k.
    The work is partitioned by first value, across processes when
    threads > 1, and the partial counts are summed, so the result does not
    depend on threads.
    """
    _check(n, cap, k)
    if n == 0:
        return 1 if count_occurrences((), pattern.values) == k else 0
    jobs = [(n, first, pattern.values, k) for first in range(1, n + 1)]
    if threads > 1:
        import multiprocessing

        with multiprocessing.Pool(min(threads, len(jobs))) as pool:
            return sum(pool.imap(_count_block, jobs))
    return sum(map(_count_block, jobs))


def brute_noonan_set(n: int, *, cap: int = DEFAULT_ORACLE_CAP) -> Iterator[Permutation]:
    """All n-permutations containing 321 exactly once, lexicographically."""
    _check(n, cap)
    return _iter_noonan_set(n)


def _iter_noonan_set(n: int) -> Iterator[Permutation]:
    pattern = PATTERN_321.values
    for vals in itertools.permutations(range(1, n + 1)):
        if count_occurrences(vals, pattern) == 1:
            yield Permutation(vals)
