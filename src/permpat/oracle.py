"""Ground truth by exhaustive counting, independent of the fast paths.

Two exact counters of the n-permutations by their number of occurrences of
a pattern, both exhaustive. Each returns the whole row [a_0, ..., a_m], a_k
the permutations with exactly k occurrences, up to a bound m; each
exactly-k count reads entry k of its row.

- distribution_321, which the CLI uses through count_321_exactly_k, counts
  for the pattern 321 over prefix states. It builds every permutation
  position by position, but counts together the prefixes whose futures
  are the same, and drops a prefix once no completion of it can have at
  most m occurrences.
- brute_distribution is the reference that checks it, for any pattern: it
  enumerates all n! permutations once and counts occurrences with the
  naive generic counter. brute_count_exactly_k reads its entry k.

This module deliberately knows nothing about the optimized counters, the
avoider generators, or the bijection, so that a bug elsewhere cannot
confirm itself here; split only cuts the first values into ranges and sums
the packed rows it is given.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator

from .errors import CapExceeded, InvalidRange
from .perms import PATTERN_321, Permutation, count_occurrences

# The n cap of the two n! scans, brute_distribution and brute_noonan_set.
DEFAULT_ORACLE_CAP = 10
# Without an explicit cap, distribution_321 refuses a layer once its live
# states times the values still unused in each pass this budget: that is
# the number of children the next layer tries, and its time follows it.
# Every n <= 10 at any k stays under 43,000, n = 30 at k = 1 at 110,000.
STATE_BUDGET = 200_000
# called as progress(done, n) after each layer of the state count
Progress = Callable[[int, int], None] | None


def _check(n: int, cap: int | None, k: int = 0) -> None:
    if n < 0:
        raise InvalidRange(f"need n >= 0, got {n}")
    if cap is not None and n > cap:
        raise CapExceeded(
            f"exhaustive count at n = {n} exceeds the cap {cap}; "
            f"raise the cap explicitly if you can afford the runtime"
        )
    if k < 0:
        raise InvalidRange(f"need k >= 0, got {k}")


def _unpack(packed: int, w: int, top: int) -> list[int]:
    # the counts a_0..a_top, a_k at bit k * w of `packed`
    return [packed >> k * w & (1 << w) - 1 for k in range(top + 1)]


def _over_budget(n: int, upto: int, done: int) -> CapExceeded:
    return CapExceeded(
        f"the 321 state count at n = {n} up to k = {upto} passed its budget of "
        f"{STATE_BUDGET} live states times unused values at layer {done} of {n}; "
        f"raise the cap explicitly if you can afford the runtime"
    )


def distribution_321(
    n: int, upto: int, *, cap: int | None = None, progress: Progress = None
) -> list[int]:
    """[a_0, ..., a_m]: a_k n-permutations have exactly k occurrences of 321.

    m = min(upto, C(n, 3)), as no n-permutation has more occurrences. An
    exhaustive count over prefix states, one layer per position, checked
    against brute_distribution. Appending x to a prefix adds one
    occurrence for each 21-pair of the prefix whose lower value is above x,
    and each prefix value above x becomes the top of a new 21-pair. So what
    a prefix can still become depends only on its running count and, for
    each unused value y in increasing order, on a pair (g, f):

    - g, the number of prefix values above y;
    - f, the number of prefix 21-pairs whose lower value is above y.

    Appending x adds f(x) occurrences, and for every unused y < x it adds 1
    to g(y) and g(x) to f(y). Each state holds its prefixes by running
    count c <= m, packed into one integer: w bits per count, the count of c
    at bit c * w. No count exceeds n! < 2 ** w, so appending x shifts them
    by f(x) * w and merging two states adds the integers. Both g and f fall
    as y rises. Occurrences are never removed, and the lowest unused value
    adds at least its f when it comes, so a prefix is dropped once its
    count plus that f exceeds m. And g is capped at m + 1, because
    appending a value with a larger g pushes the f of every lower unused
    value past m.

    Without `cap`, CapExceeded is raised as soon as a layer's live states
    times its unused values pass STATE_BUDGET; an explicit cap refuses
    n > cap instead, and lifts the budget. `progress(done, n)` is invoked
    after each layer.

    >>> distribution_321(5, 3)
    [42, 27, 24, 7]
    """
    _check(n, cap, upto)
    if cap is None and n > STATE_BUDGET:
        # the first layer is one state of n unused values
        raise _over_budget(n, upto, 0)
    top = min(upto, n * (n - 1) * (n - 2) // 6)
    w = math.factorial(n).bit_length()  # n! < 2 ** w
    # (g, f) of each unused value, increasing -> its prefixes by count, packed
    layer = {((0, 0),) * n: 1}
    for done in range(1, n + 1):
        most = STATE_BUDGET // max(1, n - done) if cap is None else float("inf")
        after: dict[tuple[tuple[int, int], ...], int] = {}
        for state, ways in layer.items():
            for i, (gx, fx) in enumerate(state):
                # the f of the lowest value still unused after x
                low = state[0][1] + gx if i else state[1][1] if len(state) > 1 else 0
                room = top - fx - low
                if room < 0:
                    continue
                bits = (room + 1) * w  # the counts c <= room
                kept = ways if ways.bit_length() <= bits else ways & (1 << bits) - 1
                if not kept:
                    continue
                # g rises by one below x, up to top + 1
                key = tuple([(g + (g <= top), f + gx) for g, f in state[:i]]) + state[i + 1 :]
                after[key] = after.get(key, 0) + (kept << fx * w)
                if len(after) > most:
                    raise _over_budget(n, upto, done)
        layer = after
        if progress is not None:
            progress(done, n)
    # the one state left has no unused value
    return _unpack(layer[()], w, top)


def count_321_exactly_k(
    n: int, k: int, *, cap: int | None = None, progress: Progress = None
) -> int:
    """Number of n-permutations with exactly k occurrences of 321.

    The k-th entry of distribution_321(n, k), or 0 above C(n, 3).

    >>> count_321_exactly_k(5, 1)
    27
    """
    row = distribution_321(n, k, cap=cap, progress=progress)
    return row[k] if k < len(row) else 0


def brute_distribution(
    n: int, pattern: Permutation, upto: int, *, cap: int = DEFAULT_ORACLE_CAP, threads: int = 1
) -> list[int]:
    """[a_0, ..., a_m]: a_k n-permutations have exactly k occurrences of `pattern`.

    m = min(upto, C(n, len(pattern))). Full enumeration of all n!
    permutations with the naive counter, any pattern, every k from one
    scan; this is the reference for distribution_321. A permutation with
    more than upto occurrences adds nothing. The first values 1..n are cut
    by split.ranges into min(max(threads, 1), n) contiguous ranges of equal
    length (give or take one), which split.forked_sum counts in this
    process or in one forked child each, so the result does not depend on
    threads.

    Each range returns its row packed into one integer, w bits per k with
    n! < 2 ** w, so the packed row has at most (m + 1) * w bits. A child
    sends it in decimal, which Python refuses past 4,300 digits (about
    14,280 bits). At the default cap (n <= 10) the widest row, C(10, 5) + 1
    = 253 entries of 22 bits, has under 1,700 digits; a row first passes
    the limit at n = 12 with upto >= 492, a 12! scan, where a split count
    raises InternalConstraintViolation and never returns a wrong row.

    >>> brute_distribution(5, PATTERN_321, 3)
    [42, 27, 24, 7]
    """
    from .split import forked_sum, ranges

    _check(n, cap, upto)
    top = min(upto, math.comb(n, len(pattern)))
    if n == 0:
        return [int(k == count_occurrences((), pattern.values)) for k in range(top + 1)]
    w = math.factorial(n).bit_length()  # n! < 2 ** w

    def block(firsts: range) -> int:
        # the row over the permutations whose first value is in `firsts`
        packed = 0
        for first in firsts:
            for tail in itertools.permutations([v for v in range(1, n + 1) if v != first]):
                if (k := count_occurrences((first,) + tail, pattern.values)) <= top:
                    packed += 1 << k * w
        return packed

    return _unpack(forked_sum(block, ranges(range(1, n + 1), threads), "first value"), w, top)


def brute_count_exactly_k(
    n: int, pattern: Permutation, k: int, *, cap: int = DEFAULT_ORACLE_CAP, threads: int = 1
) -> int:
    """Number of n-permutations with exactly k occurrences of `pattern`.

    The k-th entry of brute_distribution(n, pattern, k), or 0 above
    C(n, len(pattern)); exact at any k and for any pattern. This is the
    reference for count_321_exactly_k.

    >>> brute_count_exactly_k(5, PATTERN_321, 1)
    27
    """
    row = brute_distribution(n, pattern, k, cap=cap, threads=threads)
    return row[k] if k < len(row) else 0


def brute_noonan_set(n: int, *, cap: int = DEFAULT_ORACLE_CAP) -> Iterator[Permutation]:
    """All n-permutations containing 321 exactly once, lexicographically."""
    _check(n, cap)
    perms = itertools.permutations(range(1, n + 1))
    return (Permutation(v) for v in perms if count_occurrences(v, PATTERN_321.values) == 1)
