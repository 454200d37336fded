"""Exact Catalan arithmetic and the three equivalent one-321 count formulas.

C_n = (2n)! / (n! (n+1)!) counts 321-avoiding n-permutations. The number of
n-permutations containing 321 exactly once is given in three forms that all
agree exactly:

- closed:       (3/n) * binom(2n, n+3)
- Catalan form: C_{n+2} - 4 C_{n+1} + 3 C_n
- convolution:  sum over b = 2..n-1 of (C_b - C_{b-1}) (C_{n-b+1} - C_{n-b})

The Catalan form and the convolution read C_0..C_N from a table built
from the Catalan (ballot) triangle, independently of the closed form: row
m holds the ballot numbers T(m, k) = T(m, k-1) + T(m-1, k) for k = 0..m,
so each row is the running sum of the one before it with a 0 appended,
and C_m = T(m, m) is its last entry. That costs about N^2/2 big-integer
additions and no products. The table stops at C_TABLE_CAP: its cost still
grows about as N^3 in bit operations. The convolution's sum is symmetric
in b <-> n+1-b, so it is taken over half the range: twice the sum over the
first half of the products, plus the middle square when the number of
terms is odd.

Everything is plain Python integer arithmetic, hence exact at any size.
"""

from __future__ import annotations

import math
import operator
from _thread import allocate_lock
from collections.abc import Iterator
from itertools import accumulate

from .errors import CapExceeded, InvalidRange, NonIntegerResult

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
    if n < 0:
        raise InvalidRange(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    """C_n by the closed form binom(2n, n) / (n+1); the division is exact.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise InvalidRange(f"catalan requires n >= 0, got {n}")
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


# C_0..C_N from the ballot triangle, and the triangle's last row (row N,
# ending in C_N). The table only ever grows, so readers may index into it
# without the lock once _extend has guaranteed the length; the row is read
# and replaced only under the lock.
_table: list[int] = [1]
_row: list[int] = [1]
# allocate_lock is what threading.Lock returns, without loading threading.
_table_lock = allocate_lock()


def _extend(max_n: int) -> list[int]:
    global _row
    table = _table
    if len(table) <= max_n:
        if max_n > TABLE_CAP:
            raise CapExceeded(
                f"the Catalan table stops at C_{TABLE_CAP}; C_{max_n} was asked for "
                f"(its cost grows about as N^3)"
            )
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
    if max_n < 0:
        raise InvalidRange(f"catalan_table requires max_n >= 0, got {max_n}")
    return tuple(_extend(max_n)[: max_n + 1])


def noonan_closed(n: int) -> int:
    """The one-321 count as (3 * binom(2n, n+3)) / n, divided exactly.

    Zero for n < 3, where binom(2n, n+3) vanishes.

    >>> [noonan_closed(n) for n in range(1, 8)]
    [0, 0, 1, 6, 27, 110, 429]
    """
    if n < 1:
        raise InvalidRange(f"noonan_closed requires n >= 1, got {n}")
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
    if n < 1:
        raise InvalidRange(f"noonan_catalan_form requires n >= 1, got {n}")
    t = _extend(n + 2)
    return t[n + 2] - 4 * t[n + 1] + 3 * t[n]


def noonan_convolution(n: int) -> int:
    """The one-321 count as the convolution of first-difference Catalan terms.

    sum over b = 2..n-1 of (C_b - C_{b-1}) (C_{n-b+1} - C_{n-b}), whose
    terms b and n+1-b are equal, so it is taken as a half-sum. The sum is
    empty (hence 0) for n < 3.
    """
    if n < 1:
        raise InvalidRange(f"noonan_convolution requires n >= 1, got {n}")
    if n < 3:
        return 0
    return _self_convolution(_differences(n))


def _differences(n: int) -> list[int]:
    """C_b - C_{b-1} for b = 2..n-1, off the table; the convolution pairs b with n+1-b."""
    t = _extend(max(n - 1, 0))
    return list(map(operator.sub, t[2:n], t[1 : n - 1]))
