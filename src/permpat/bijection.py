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
"""

from __future__ import annotations

from collections.abc import Iterator

from .avoiders import DEFAULT_CAP, enumerate_sigma1, enumerate_sigma2, is_avoiding_321
from .errors import (
    CapExceeded,
    ConstraintViolation,
    InternalConstraintViolation,
    NotAPermutation,
)
from .perms import (
    Permutation,
    ValueSequence,
    _Frozen,
    count_321,
    find_unique_321,
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
    _validate_sigma1(d.b, d.sigma1)
    _validate_sigma2(d.b, d.n, d.sigma2)


def _validate_sigma1(b: int, sigma1: Permutation) -> None:
    if sigma1.n != b:
        raise ConstraintViolation(
            f"sigma1 must be a permutation of 1..{b}, got length {sigma1.n}"
        )
    if sigma1.values[-1] == b:
        raise ConstraintViolation(f"sigma1 must not end with b={b}")
    if not is_avoiding_321(sigma1):
        raise ConstraintViolation(f"sigma1 {sigma1} contains a 321 occurrence")


def _validate_sigma2(b: int, n: int, sigma2: ValueSequence) -> None:
    if sigma2.support != frozenset(range(b, n + 1)):
        raise ConstraintViolation(
            f"sigma2 support must be exactly {{{b}..{n}}}, got {sorted(sigma2.support)}"
        )
    if sigma2.values[0] == b:
        raise ConstraintViolation(f"sigma2 must not start with b={b}")
    if not is_avoiding_321(sigma2):
        raise ConstraintViolation(f"sigma2 {sigma2} contains a 321 occurrence")


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
    return _splice(d.b, d.sigma1, d.sigma2.values, d.n)


def _splice(b: int, sigma1: Permutation, s2: tuple[int, ...], n: int) -> Permutation:
    """p1 c p2 b p3 a p4 from validated factors, checked to contain 321 once."""
    s1 = sigma1.values
    p = s1.index(b)
    q = s2.index(b)
    perm = Permutation(s1[:p] + s2[:1] + s1[p + 1 : -1] + (b,) + s2[1:q] + s1[-1:] + s2[q + 1 :])
    if count_321(perm) != 1:
        d = Decomposition(b=b, sigma1=sigma1, sigma2=ValueSequence(s2), n=n)
        raise InternalConstraintViolation(
            f"composition of {d} does not contain 321 exactly once"
        )
    return perm


def _noonan_for_b(b: int, n: int, cap: int) -> Iterator[Permutation]:
    # Each factor is validated once here, not once per pair as compose would.
    right_factors = []
    for s2 in enumerate_sigma2(b, n, cap=cap):
        _validate_sigma2(b, n, s2)
        right_factors.append(s2.values)
    for s1 in enumerate_sigma1(b, cap=cap):
        _validate_sigma1(b, s1)
        for s2 in right_factors:
            yield _splice(b, s1, s2, n)


def _noonan_block(args: tuple[int, int, int]) -> list[tuple[int, ...]]:
    b, n, cap = args
    return [p.values for p in _noonan_for_b(b, n, cap)]


def enumerate_noonan(
    n: int, *, cap: int = DEFAULT_CAP, threads: int = 1
) -> Iterator[Permutation]:
    """Every n-permutation containing 321 exactly once, via the bijection.

    Emission order is ascending b, then lexicographic sigma1, then
    lexicographic sigma2. Empty stream for n < 3. With threads > 1 the b
    values are distributed over worker processes and merged back in order.

    >>> [str(p) for p in enumerate_noonan(3)]
    ['3 2 1']
    """
    if n > cap:
        raise CapExceeded(f"enumeration of length {n} exceeds the cap {cap}")
    return _iter_noonan(n, cap, threads)


def _iter_noonan(n: int, cap: int, threads: int) -> Iterator[Permutation]:
    if n < 3:
        return
    bs = range(2, n)
    if threads > 1:
        import multiprocessing

        jobs = [(b, n, cap) for b in bs]
        with multiprocessing.Pool(min(threads, len(jobs))) as pool:
            for block in pool.imap(_noonan_block, jobs):
                for vals in block:
                    yield Permutation(vals)
    else:
        for b in bs:
            yield from _noonan_for_b(b, n, cap)


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
