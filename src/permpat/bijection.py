"""The decomposition pairing one-321 permutations with constrained avoider pairs.

A permutation containing 321 exactly once factors around its unique
occurrence as p = p1 c p2 b p3 a p4, where (c, b, a) are the occurrence
values at positions (i, j, k). Every value left of b other than c is below
b, and every value right of b other than a is above b; otherwise a second
occurrence would appear. The map

    p  ->  (b,  sigma1 = p1 b p2 a,  sigma2 = c p3 b p4)

therefore lands on a pair of 321-avoiding sequences: sigma1 a permutation
of {1..b} not ending with b, sigma2 over {b..n} not starting with b. The
map is a bijection onto all such pairs with 2 <= b <= n-1, which is what
compose() inverts and enumerate_noonan() exploits.

The enumeration runs in one process, b by b. It validates each factor
once and splits it once, into (p1, p2, a) and (c, p3, p4); every item is
then a plain tuple, checked on its own to hold exactly 1..n with a
middle-position 321 sum of exactly 1. The CLI prints those tuples and, at
the end of the stream, checks that their number is the closed-form count.

The count of those items (CLI `noonan --method bijection`) can split: b
block sizes are known in closed form, so b = 2..n-1 is cut into ranges of
about equal size, counted by the same checked generators in forked
children (split.forked_sum). The stream itself never splits.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from itertools import accumulate, chain
from operator import mul

from .errors import (
    ConstraintViolation,
    InternalConstraintViolation,
    NotAPermutation,
)
from .perms import (
    DEFAULT_CAP,
    Permutation,
    ValueSequence,
    _Frozen,
    _sorted_and_321,
    count_321,
    find_unique_321,
    is_avoiding_321,
    parse_one_line,
    parse_value_sequence,
)


class Decomposition(_Frozen):
    """The triple (b, sigma1, sigma2) for a permutation of length n.

    b is the middle value of the unique 321 occurrence; it is shared by
    sigma1 (a permutation of {1..b}) and sigma2 (a sequence over {b..n}),
    so len(sigma1) = b and len(sigma2) = n - b + 1.
    """

    __slots__ = ("b", "sigma1", "sigma2", "n")
    b: int
    sigma1: Permutation
    sigma2: ValueSequence
    n: int

    def __init__(self, b: int, sigma1: Permutation, sigma2: ValueSequence, n: int) -> None:
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma1", sigma1)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "n", n)

    def __str__(self) -> str:
        return format_decomposition(self)


def validate_decomposition(d: Decomposition) -> None:
    """Raise ConstraintViolation unless every Decomposition invariant holds."""
    if not 2 <= d.b <= d.n - 1:
        raise ConstraintViolation(f"need 2 <= b <= n-1, got b={d.b}, n={d.n}")
    _validate_sigma1(d.b, d.sigma1.values)
    _validate_sigma2(d.b, d.n, d.sigma2.values)


def _validate_sigma1(b: int, s1: tuple[int, ...]) -> None:
    # s1 and s2 below hold distinct values: a factor's values, or a
    # generated tuple already checked to hold exactly its family's values.
    if len(s1) != b:
        raise ConstraintViolation(f"sigma1 must be a permutation of 1..{b}, got length {len(s1)}")
    if s1[-1] == b:
        raise ConstraintViolation(f"sigma1 must not end with b={b}")
    if not is_avoiding_321(s1):
        raise ConstraintViolation(f"sigma1 {_text(s1)} contains a 321 occurrence")


def _validate_sigma2(b: int, n: int, s2: tuple[int, ...]) -> None:
    if frozenset(s2) != frozenset(range(b, n + 1)):
        raise ConstraintViolation(
            f"sigma2 support must be exactly {{{b}..{n}}}, got {sorted(s2)}"
        )
    if s2[0] == b:
        raise ConstraintViolation(f"sigma2 must not start with b={b}")
    if not is_avoiding_321(s2):
        raise ConstraintViolation(f"sigma2 {_text(s2)} contains a 321 occurrence")


def _text(values: tuple[int, ...]) -> str:
    return " ".join(map(str, values))


def decompose(perm: Permutation) -> Decomposition:
    """Split a one-321 permutation into its (b, sigma1, sigma2) triple.

    Raises NoOccurrence / MultipleOccurrences (both NoUnique321) when the
    permutation does not contain 321 exactly once. The outputs are verified
    against every Decomposition invariant before being returned; a failure
    there would be a bug, surfaced as InternalConstraintViolation.

    >>> str(decompose(parse_one_line("3 2 1 4")))
    'b=2 | sigma1=2 1 | sigma2=3 2 4'
    """
    occ = find_unique_321(perm)
    i, j, k = occ.positions
    c, b, a = occ.values
    v = perm.values
    try:
        sigma1 = Permutation(v[: i - 1] + (b,) + v[i : j - 1] + (a,))
        sigma2 = ValueSequence((c,) + v[j : k - 1] + (b,) + v[k:])
        d = Decomposition(b=b, sigma1=sigma1, sigma2=sigma2, n=perm.n)
        validate_decomposition(d)
    except (NotAPermutation, ConstraintViolation) as exc:
        raise InternalConstraintViolation(
            f"decomposition of {perm} violated an invariant: {exc}"
        ) from exc
    return d


def compose(d: Decomposition) -> Permutation:
    """Rebuild the permutation from its triple; inverse of decompose.

    The last value of sigma1 is a, and the value b splits the rest of
    sigma1 into p1 and p2; the first value of sigma2 is c, and b splits the
    rest of sigma2 into p3 and p4. The result is p1 c p2 b p3 a p4.

    The input is fully validated (ConstraintViolation on any failure) and
    the output is defensively checked to contain 321 exactly once.
    """
    validate_decomposition(d)
    b, s1, s2 = d.b, d.sigma1.values, d.sigma2.values
    p = s1.index(b)
    q = s2.index(b)
    perm = Permutation(s1[:p] + s2[:1] + s1[p + 1 : -1] + (b,) + s2[1:q] + s1[-1:] + s2[q + 1 :])
    if count_321(perm) != 1:
        raise InternalConstraintViolation(f"composition of {d} does not contain 321 exactly once")
    return perm


def _check_one_321(t: tuple[int, ...], values: list[int]) -> None:
    """Raise InternalConstraintViolation unless t arranges `values` (1..n) with one 321."""
    if _sorted_and_321(t) != (values, 1):
        raise InternalConstraintViolation(f"generated {_text(t)} is not a one-321 permutation")


def _noonan_for_b(b: int, n: int, cap: int) -> Iterator[tuple[int, ...]]:
    from .avoiders import _sigma1_tuples, _sigma2_tuples

    # Each factor is validated once and split once. sigma2 = c p3 b p4 is
    # kept as three columns, which take less memory than a tuple per factor;
    # the few distinct p3 pieces are stored once each.
    cs, p3s, p4s, shared = [], [], [], {}
    for s2 in _sigma2_tuples(b, n, cap):
        _validate_sigma2(b, n, s2)
        q = s2.index(b)
        cs.append(s2[0])
        p3s.append(shared.setdefault(s2[1:q], s2[1:q]))
        p4s.append(s2[q + 1 :])
    values = list(range(1, n + 1))
    for s1 in _sigma1_tuples(b, cap):
        _validate_sigma1(b, s1)
        # sigma1 = p1 b p2 a
        p = s1.index(b)
        p1, p2, a = s1[:p], s1[p + 1 : -1], s1[-1]
        for c, p3, p4 in zip(cs, p3s, p4s):
            t = (*p1, c, *p2, b, *p3, a, *p4)
            _check_one_321(t, values)
            yield t


def _noonan_tuples(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The checked tuples of enumerate_noonan, in ascending b; the cap is checked first."""
    from .avoiders import _check_cap

    _check_cap(n, cap, "enumeration")
    return chain.from_iterable(_noonan_for_b(b, n, cap) for b in range(2, n))


def _b_ranges(n: int, threads: int) -> list[range]:
    """b = 2..n-1 cut into min(max(threads, 1), n-2) contiguous, non-empty ranges.

    Block b holds (C_b - C_{b-1})(C_{n-b+1} - C_{n-b}) items. Range i ends
    at the first block where the running total reaches (i+1)/k of all items,
    moved only as far as it takes to leave every range one block at least.

    >>> _b_ranges(11, 2)
    [range(2, 7), range(7, 11)]
    """
    from .catalan import _differences

    k = min(max(threads, 1), n - 2)
    if k < 1:
        return []
    d = _differences(n)
    running = list(accumulate(map(mul, d, reversed(d))))
    total, ends = running[-1], [2]
    for i in range(1, k):
        # The first index whose running total is at least total * i / k.
        j = bisect_left(running, -(-total * i // k))
        ends.append(min(max(j + 3, ends[-1] + 1), n - k + i))
    ends.append(n)
    return [range(lo, hi) for lo, hi in zip(ends, ends[1:])]


def _count_noonan(n: int, cap: int, threads: int) -> int:
    """The number of tuples _noonan_tuples(n, cap) yields, split by _b_ranges."""
    from .avoiders import _check_cap
    from .split import forked_sum

    _check_cap(n, cap, "enumeration")
    return forked_sum(
        lambda bs: sum(1 for b in bs for _ in _noonan_for_b(b, n, cap)), _b_ranges(n, threads), "b"
    )


def enumerate_noonan(
    n: int, *, cap: int = DEFAULT_CAP, threads: int = 1
) -> Iterator[Permutation]:
    """Every n-permutation containing 321 exactly once, via the bijection.

    Emission order is ascending b, then lexicographic sigma1, then
    lexicographic sigma2. Empty stream for n < 3. The stream is generated
    in this process, in order; `threads` is accepted and ignored. Only the
    count of the stream (CLI `noonan --method bijection`) splits over
    processes.

    >>> [str(p) for p in enumerate_noonan(3)]
    ['3 2 1']
    """
    return map(Permutation._trusted, _noonan_tuples(n, cap))


def format_decomposition(d: Decomposition) -> str:
    """Single-line text form: "b=<int> | sigma1=<one-line> | sigma2=<one-line>"."""
    return f"b={d.b} | sigma1={d.sigma1} | sigma2={d.sigma2}"


def parse_decomposition(text: str) -> Decomposition:
    """Inverse of format_decomposition.

    The length n is recovered from sigma2, whose support must reach n.
    Field syntax is checked here; the semantic invariants are checked by
    compose, so that printing and parsing round-trip on any well-formed line.
    """
    parts = text.split("|")
    if len(parts) != 3:
        raise ConstraintViolation(f"expected 3 '|'-separated fields, got {len(parts)}")
    fields = {}
    for part, expected in zip(parts, ("b", "sigma1", "sigma2")):
        name, eq, value = part.strip().partition("=")
        if name != expected or not eq:
            raise ConstraintViolation(f"expected field {expected}=..., got {part.strip()!r}")
        fields[name] = value.strip()
    try:
        b = int(fields["b"])
    except ValueError:
        raise ConstraintViolation(f"b must be an integer, got {fields['b']!r}") from None
    sigma1 = parse_one_line(fields["sigma1"])
    sigma2 = parse_value_sequence(fields["sigma2"])
    n = max(sigma2.values) if sigma2.values else b
    return Decomposition(b=b, sigma1=sigma1, sigma2=sigma2, n=n)
