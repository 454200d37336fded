"""Exact Catalan arithmetic and the three equivalent one-321 count formulas.

C_n = (2n)! / (n! (n+1)!) counts 321-avoiding n-permutations. The number of
n-permutations containing 321 exactly once is given in three forms that all
agree exactly:

- closed:       (3/n) * binom(2n, n+3)
- Catalan form: C_{n+2} - 4 C_{n+1} + 3 C_n
- convolution:  sum over b = 2..n-1 of (C_b - C_{b-1}) (C_{n-b+1} - C_{n-b})

The Catalan form and the convolution read C_0..C_N from a table built with
the recurrence C_m = sum C_i C_{m-1-i}, independently of the closed form.
That sum is symmetric in i <-> m-1-i, and so is the convolution's, so each
is taken over half the range: twice the sum over the first half of the
products, plus the middle square when the number of terms is odd.

Everything is plain Python integer arithmetic, hence exact at any size.
"""

from __future__ import annotations

import math
import operator
import threading

from .errors import InvalidRange, NonIntegerResult


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


# Catalan prefix built with the convolution recurrence C_m = sum C_i C_{m-1-i}.
# Grows monotonically and is only ever appended to, so readers may index into
# it without the lock once _extend has guaranteed the length.
_recurrence_table: list[int] = [1]
_table_lock = threading.Lock()


def _extend(max_n: int) -> list[int]:
    table = _recurrence_table
    if len(table) <= max_n:
        with _table_lock:
            while len(table) <= max_n:
                table.append(_self_convolution(table))
    return table


def catalan_table(max_n: int) -> tuple[int, ...]:
    """C_0..C_max_n computed by the convolution recurrence.

    The symmetric half-sum makes the table up to N cost about N^2/4
    big-integer products instead of N^2/2. Independent of catalan(); the
    two routes are cross-checked in tests.

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


def noonan_catalan_form(n: int) -> int:
    """The one-321 count as C_{n+2} - 4 C_{n+1} + 3 C_n.

    Evaluated from the recurrence-built table, so it is an independent route
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
    t = _extend(n - 1)
    # The differences C_b - C_{b-1} for b = 2..n-1; term b pairs b with n+1-b.
    return _self_convolution(list(map(operator.sub, t[2:n], t[1 : n - 1])))
