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

decompose() finds (c, b, a) with find_unique_321, whose one bit-set
pass gives both the 321 count and the position of b. compose() and the
enumeration run the one splice, _splice(b, n, lefts, rights): compose()
on its one pair, the enumeration on every pair of block b, b by b, in
one process. The factors come from the sigma1 and sigma2 walks of
`avoiders`, which check their own values leaf by leaf. The splice cuts
each factor once at b, into (p1, p2, a) and (c, p3, p4), and checks no
factor; every item is a plain tuple, checked on its own by the same pass
to hold exactly 1..n with a middle-position 321 sum of exactly 1. That
check covers every rule of the factors too. The item's
values p1 c p2 a stand in sigma1's order, since c takes b's place and is
above all of sigma1; its values c p3 a p4 stand in sigma2's order, since
a takes b's place and is below all of sigma2. Neither set holds the
item's b, so a 321 in a factor is a second 321 of the item. A sigma1
ending with b or a sigma2 starting with b repeats b in the item, a value
out of range leaves 1..n, and a factor without b cannot be split.
The CLI prints the tuples and, at the end of the stream, checks that
their number is the closed-form count.

The pass over an item is cut at b into two parts whose sums add up: the
head p1 c p2 b, passed once per left factor and run of equal c, and the
tail p3 a p4, resumed from the head's bit set and length, which is all
it reads of the head. The first left factor splices each right factor
as the walk yields it; when a second one will replay them, it also keeps
them, with their tail sums under the key (head bit set, head length, a).
A later left factor reuses the sums of a known key and passes the tails
of a new one once. For valid factors the head's bit set is that of 1..b
less a plus c, so a block passes each tail once per value of a. Each
part's share is its sum clamped to 0..2, and the tail's is 2 unless the
item's n values have the bit set of 1..n. Such an item is a permutation,
with no negative term, so its shares add up to 1 exactly when it has one
321; any other item's add up to at least 2.

The count of those items (CLI `noonan --method bijection`) can split:
b = 2..n-1 is cut into ranges of equally many blocks (split.ranges),
counted by the same checked generators in forked children
(split.forked_sum). Block b holds as many items as block n+1-b, so two
halves by block number hold as equal shares as whole blocks allow. The
stream itself never splits.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, groupby
from operator import itemgetter

from .errors import ConstraintViolation, InternalConstraintViolation, check_size
from .perms import (
    DEFAULT_CAP,
    Permutation,
    ValueSequence,
    _Frozen,
    _pass_321,
    _text,
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
    b, n, s1, s2 = d.b, d.n, d.sigma1.values, d.sigma2.values
    if not 2 <= b <= n - 1:
        raise ConstraintViolation(f"need 2 <= b <= n-1, got b={b}, n={n}")
    for name, s, lo, hi in (("sigma1", s1, 1, b), ("sigma2", s2, b, n)):
        if sorted(s) != list(range(lo, hi + 1)):
            raise ConstraintViolation(f"{name} must hold exactly {lo}..{hi}, got {_text(s)}")
        if not is_avoiding_321(s):
            raise ConstraintViolation(f"{name} {_text(s)} contains a 321 occurrence")
    if s1[-1] == b:
        raise ConstraintViolation(f"sigma1 must not end with b={b}")
    if s2[0] == b:
        raise ConstraintViolation(f"sigma2 must not start with b={b}")


def decompose(perm: Permutation) -> Decomposition:
    """Split a one-321 permutation into its (b, sigma1, sigma2) triple.

    Raises NoOccurrence / MultipleOccurrences (both NoUnique321) when the
    permutation does not contain 321 exactly once. The factors are wrapped
    unvalidated and then checked once, against every Decomposition
    invariant, before being returned; a failure there would be a bug,
    surfaced as InternalConstraintViolation.

    >>> str(decompose(parse_one_line("3 2 1 4")))
    'b=2 | sigma1=2 1 | sigma2=3 2 4'
    """
    occ = find_unique_321(perm)
    i, j, k = occ.positions
    c, b, a = occ.values
    v = perm.values
    sigma1 = Permutation._trusted(v[: i - 1] + (b,) + v[i : j - 1] + (a,))
    sigma2 = ValueSequence._trusted((c,) + v[j : k - 1] + (b,) + v[k:])
    d = Decomposition(b=b, sigma1=sigma1, sigma2=sigma2, n=perm.n)
    try:
        validate_decomposition(d)
    except ConstraintViolation as exc:
        raise InternalConstraintViolation(
            f"decomposition of {perm} violated an invariant: {exc}"
        ) from exc
    return d


def compose(d: Decomposition) -> Permutation:
    """Rebuild the permutation from its triple; inverse of decompose.

    The input is fully validated (ConstraintViolation on any failure), and
    its one pair goes through the enumeration's splice: sigma1 = p1 b p2 a
    and sigma2 = c p3 b p4 give p1 c p2 b p3 a p4, checked in one pass to
    arrange 1..n with 321 exactly once (InternalConstraintViolation
    otherwise).
    """
    validate_decomposition(d)
    return Permutation._trusted(next(_splice(d.b, d.n, [d.sigma1.values], [d.sigma2.values])))


def _splice(
    b: int, n: int, lefts: Iterable[tuple[int, ...]], rights: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """p1 c p2 b p3 a p4 for each left factor p1 b p2 a and right factor c p3 b p4.

    Lefts in the outer loop, rights in the inner; each item is checked on
    its own (see the module docstring), no factor is. The rights are walked
    once, and only when there is a left factor.
    """
    lefts = iter(lefts)
    first = next(lefts, None)
    if first is None:
        return
    second = next(lefts, None)
    # For a second left factor to replay them, each run of equal c keeps its
    # right factors as two columns, smaller than a tuple per factor (the few
    # distinct p3 pieces stored once each), and the tail sums of each key.
    kept, shared = [], {}
    p1, p2, a = _cut_left(first, b)
    for c, run in groupby((_cut_right(s2, b) for s2 in rights), itemgetter(0)):
        head = (*p1, c, *p2, b)
        h = len(head)
        mask, head_sum = _part_321(head, 0, 0)
        if second is not None:
            p3s, p4s, sums = [], [], bytearray()
            kept.append((c, p3s, p4s, {(mask, h, a): sums}))
        for _, p3, p4 in run:
            tail = p3 + (a,) + p4
            tail_sum = _tail_sum(tail, h, mask, n)
            t = head + tail
            if head_sum + tail_sum != 1:
                raise _not_one_321(t)
            if second is not None:
                p3s.append(shared.setdefault(p3, p3))
                p4s.append(p4)
                sums.append(tail_sum)
            yield t
    if second is None:
        return
    for s1 in chain((second,), lefts):
        p1, p2, a = _cut_left(s1, b)
        for c, p3s, p4s, sums_by_key in kept:
            head = (*p1, c, *p2, b)
            h = len(head)
            mask, head_sum = _part_321(head, 0, 0)
            # The tail p3 a p4 reads only the head's bit set and length,
            # a and the right factor: every input of its sum is in the key.
            sums = sums_by_key.get((mask, h, a))
            if sums is None:
                sums = sums_by_key[mask, h, a] = bytes(
                    [_tail_sum(p3 + (a,) + p4, h, mask, n) for p3, p4 in zip(p3s, p4s)]
                )
            for p3, p4, tail_sum in zip(p3s, p4s, sums):
                t = (*head, *p3, a, *p4)
                if head_sum + tail_sum != 1:
                    raise _not_one_321(t)
                yield t


def _part_321(values: tuple[int, ...], j: int, mask: int) -> tuple[int, int]:
    """The one-321 pass over values, resumed after j values with bit set mask.

    Returns the bit set and the values' share of the middle-position sum,
    clamped to 0..2, 2 being the least sum above 1. A negative value has
    no bit, and its share is 2.
    """
    try:
        bits, total, _ = _pass_321(values, j, mask)
    except ValueError:
        return mask, 2
    return bits, 0 if total < 0 else total if total < 2 else 2


def _tail_sum(tail: tuple[int, ...], j: int, mask: int, n: int) -> int:
    """The tail's share of its item's sum: 2 unless the item's n values hold exactly 1..n."""
    bits, total = _part_321(tail, j, mask)
    return total if j + len(tail) == n and bits == (2 << n) - 2 else 2


def _not_one_321(t: tuple[int, ...]) -> InternalConstraintViolation:
    return InternalConstraintViolation(f"generated {_text(t)} is not a one-321 permutation")


def _cut_left(s1: tuple[int, ...], b: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """A left factor sigma1 = p1 b p2 a as (p1, p2, a)."""
    p = _index(s1, b)
    return s1[:p], s1[p + 1 : -1], s1[-1]


def _cut_right(s2: tuple[int, ...], b: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A right factor sigma2 = c p3 b p4 as (c, p3, p4)."""
    q = _index(s2, b)
    return s2[0], s2[1:q], s2[q + 1 :]


def _noonan_for_b(b: int, n: int) -> Iterator[tuple[int, ...]]:
    """Block b of the one-321 stream: every left factor over 1..b spliced with every right one."""
    from .avoiders import _sigma1_tuples, _sigma2_tuples

    return _splice(b, n, _sigma1_tuples(b, None), _sigma2_tuples(b, n, None))


def _index(factor: tuple[int, ...], b: int) -> int:
    """The position of b in a generated factor; InternalConstraintViolation if absent."""
    try:
        return factor.index(b)
    except ValueError:
        raise InternalConstraintViolation(f"generated {_text(factor)} lacks b={b}") from None


def _noonan_tuples(n: int, cap: int | None) -> Iterator[tuple[int, ...]]:
    """The checked tuples of enumerate_noonan, in ascending b; the cap is checked first."""
    check_size("one-321 enumeration", "n", n, cap=cap)
    return chain.from_iterable(_noonan_for_b(b, n) for b in range(2, n))


def _count_noonan(n: int, cap: int | None, threads: int) -> int:
    """The number of tuples _noonan_tuples(n, cap) yields, split over b ranges."""
    # Checked before split loads, so a refused count loads nothing more.
    check_size("bijection count", "n", n, cap=cap)
    from .split import forked_sum, ranges

    return forked_sum(
        lambda bs: sum(1 for b in bs for _ in _noonan_for_b(b, n)),
        ranges(range(2, n), threads),
        "b",
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
    return _triple(b, fields["sigma1"], fields["sigma2"])


def _triple(b: int, sigma1_text: str, sigma2_text: str) -> Decomposition:
    """The triple of b and the factors' parsed text forms; compose checks its invariants.

    The length n is recovered from sigma2, whose support must reach n: its
    largest value, or b when sigma2 is empty.
    """
    sigma1, sigma2 = parse_one_line(sigma1_text), parse_value_sequence(sigma2_text)
    return Decomposition(b=b, sigma1=sigma1, sigma2=sigma2, n=max(sigma2.values, default=b))
