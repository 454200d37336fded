"""Exact Catalan arithmetic and the three equivalent one-321 count formulas.

C_n = (2n)! / (n! (n+1)!) counts 321-avoiding n-permutations. The number of
n-permutations containing 321 exactly once is given in three forms that all
agree exactly:

- closed:       (3/n) * binom(2n, n+3)
- Catalan form: C_{n+2} - 4 C_{n+1} + 3 C_n
- convolution:  sum over b = 2..n-1 of (C_b - C_{b-1}) (C_{n-b+1} - C_{n-b})

The Catalan form and the convolution read a table built from the Catalan
(ballot) triangle, independently of the closed form: row m holds the
ballot numbers T(m, k) = T(m, k-1) + T(m-1, k) for k = 0..m, so each row
is the running sum of the one before it with a 0 appended, and C_m = T(m, m)
is its last entry. Building the table to N costs about N^2/2
big-integer additions and no products. The table stops at C_TABLE_CAP:
its cost still grows about as N^3 in bit operations. The convolution
keeps the differences C_m - C_{m-1} in a second row beside the table; a
call subtracts only for the entries it adds to that row, and no other
reader builds it. The convolution's sum is symmetric in b <-> n+1-b, so
it is taken over half the range: twice the sum over the first half of
the products, plus the middle square when the number of terms is odd.

Everything is plain Python integer arithmetic, hence exact at any size.
"""

from __future__ import annotations

import math
import operator
from _thread import allocate_lock
from collections.abc import Iterator
from itertools import accumulate

from .errors import NonIntegerResult, check_size

# The largest n the Catalan table is built to; C_0..C_5000 take about 4 s
# cold on a 2-core Xeon VM, and the cost grows about as N^3.
TABLE_CAP = 5000


def binomial(n: int, k: int) -> int:
    """binom(n, k), with the convention that out-of-range k gives 0.

    >>> binomial(8, 7)
    8
    >>> binomial(4, 5)
    0
    """
    check_size("binomial", "n", n)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    """C_n by the closed form binom(2n, n) / (n+1); the division is exact.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    check_size("catalan", "n", n)
    q, r = divmod(math.comb(2 * n, n), n + 1)
    if r:
        raise NonIntegerResult(f"binom(2n, n) not divisible by n+1 at n={n}")
    return q


def _self_convolution(a: list[int]) -> int:
    """sum of a[i] * a[L-1-i] over i < L = len(a), by the half-sum symmetry."""
    h = len(a) // 2
    # reversed(a) starts at a[L-1]; map stops after h terms.
    total = 2 * sum(map(operator.mul, a[:h], reversed(a)))
    if len(a) % 2:
        total += a[h] * a[h]
    return total


# C_0..C_N from the ballot triangle, the differences C_m - C_{m-1} (with
# C_{-1} = 0) that noonan_convolution has needed so far, and the triangle's
# last row (row N, ending in C_N). The table and the differences only ever
# grow, under the lock, so a reader may index into either without it once
# its length is guaranteed; the row is read and replaced only under the
# lock.
_table: list[int] = [1]
_diff: list[int] = [1]
_row: list[int] = [1]
# allocate_lock is what threading.Lock returns, without loading threading.
_table_lock = allocate_lock()


def _extend(max_n: int) -> list[int]:
    global _row
    table = _table
    if len(table) <= max_n:
        check_size("the Catalan table", "N", max_n, cap=TABLE_CAP, why="it grows about as N^3")
        with _table_lock:
            while len(table) <= max_n:
                _row = list(accumulate(_row + [0]))
                table.append(_row[-1])
    return table


def catalan_table(max_n: int) -> tuple[int, ...]:
    """C_0..C_max_n from the Catalan (ballot) triangle, for max_n <= TABLE_CAP.

    Each row of the triangle is the running sum of the previous row with a
    0 appended, and C_m ends row m, so the table up to N costs about N^2/2
    big-integer additions. It grows incrementally across calls. Independent
    of catalan(); the two routes are cross-checked in tests. Past TABLE_CAP
    it raises CapExceeded.

    >>> catalan_table(5)
    (1, 1, 2, 5, 14, 42)
    """
    check_size("catalan_table", "max_n", max_n)
    return tuple(_extend(max_n)[: max_n + 1])


def noonan_closed(n: int) -> int:
    """The one-321 count as (3 * binom(2n, n+3)) / n, divided exactly.

    Zero for n < 3, where binom(2n, n+3) vanishes.

    >>> [noonan_closed(n) for n in range(1, 8)]
    [0, 0, 1, 6, 27, 110, 429]
    """
    check_size("noonan_closed", "n", n, 1)
    q, r = divmod(3 * binomial(2 * n, n + 3), n)
    if r:
        raise NonIntegerResult(f"3*binom(2n, n+3) not divisible by n at n={n}")
    return q


def _noonan_closed_stream(max_n: int) -> Iterator[int]:
    """noonan_closed(n) for n = 1..max_n, with binom(2n, n+3) walked by ratios.

    binom(2n, n+3) = binom(2n-2, n+2) (2n-1)(2n) / ((n+3)(n-3)) for n >= 4,
    so each term costs one product and two divisions by machine-size
    integers instead of a fresh binomial. Both divisions are checked.
    """
    binom = 1  # binom(2n, n+3) at n = 3
    for n in range(1, max_n + 1):
        if n < 3:
            yield 0
            continue
        if n > 3:
            binom, r = divmod(binom * ((2 * n - 1) * 2 * n), (n + 3) * (n - 3))
            if r:
                raise NonIntegerResult(f"binom(2n, n+3) step not exact at n={n}")
        q, r = divmod(3 * binom, n)
        if r:
            raise NonIntegerResult(f"3*binom(2n, n+3) not divisible by n at n={n}")
        yield q


def noonan_catalan_form(n: int) -> int:
    """The one-321 count as C_{n+2} - 4 C_{n+1} + 3 C_n.

    Evaluated from the ballot-triangle table, so it is an independent route
    from noonan_closed.
    """
    check_size("noonan_catalan_form", "n", n, 1)
    t = _extend(n + 2)
    return t[n + 2] - 4 * t[n + 1] + 3 * t[n]


def noonan_convolution(n: int) -> int:
    """The one-321 count as the convolution of first-difference Catalan terms.

    sum over b = 2..n-1 of (C_b - C_{b-1}) (C_{n-b+1} - C_{n-b}): the
    self-convolution of entries 2..n-1 of the difference row kept beside
    the table, grown here to entry n-1 first. Terms b and n+1-b are equal,
    so it is taken as a half-sum. The sum is empty (hence 0) for n < 3.
    """
    check_size("noonan_convolution", "n", n, 1)
    table = _extend(n - 1)
    if len(_diff) < n:
        with _table_lock:
            _diff.extend(table[m] - table[m - 1] for m in range(len(_diff), n))
    return _self_convolution(_diff[2:n])
