import copy
import hashlib
import os
import pickle
import random
import tracemalloc
from collections import deque
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat import avoiders, bijection
from permpat.avoiders import enumerate_sigma1, enumerate_sigma2
from permpat.bijection import (
    Decomposition,
    _count_noonan,
    _noonan_for_b,
    _noonan_tuples,
    _splice,
    compose,
    decompose,
    enumerate_noonan,
    format_decomposition,
    parse_decomposition,
    validate_decomposition,
)
from permpat.catalan import catalan, noonan_closed
from permpat.cli import run
from permpat.errors import (
    CapExceeded,
    ConstraintViolation,
    InternalConstraintViolation,
    NotAPermutation,
    NoUnique321,
)
from permpat.perms import (
    Permutation,
    ValueSequence,
    count_321,
    count_occurrences,
    find_unique_321,
    parse_one_line,
)


def perm(text):
    return parse_one_line(text)


def decomp(b, sigma1, sigma2, n):
    return Decomposition(
        b=b,
        sigma1=Permutation(tuple(sigma1)),
        sigma2=ValueSequence(tuple(sigma2)),
        n=n,
    )


def all_decompositions(n):
    for b in range(2, n):
        for s1 in enumerate_sigma1(b):
            for s2 in enumerate_sigma2(b, n):
                yield Decomposition(b=b, sigma1=s1, sigma2=s2, n=n)


# --- Decomposition as a value ------------------------------------------


def test_decomposition_compares_and_hashes_by_field():
    d = decomp(2, (2, 1), (3, 2, 4), 4)
    same = decomp(2, [2, 1], [3, 2, 4], 4)
    assert d == same and hash(d) == hash(same)
    assert d != decomp(2, (2, 1), (3, 4, 2), 4)
    assert d != decomp(2, (2, 1), (3, 2, 4), 5)
    plain = (2, Permutation((2, 1)), ValueSequence((3, 2, 4)), 4)
    assert d != plain and plain != d
    assert len({d, same}) == 1


def test_decomposition_repr():
    assert repr(decomp(2, (2, 1), (3, 2, 4), 4)) == (
        "Decomposition(b=2, sigma1=Permutation(values=(2, 1)), "
        "sigma2=ValueSequence(values=(3, 2, 4)), n=4)"
    )


def test_decomposition_is_immutable():
    d = decomp(2, (2, 1), (3, 2, 4), 4)
    with pytest.raises(AttributeError):
        d.b = 3
    with pytest.raises(AttributeError):
        del d.n


def test_decomposition_pickles_and_copies_with_validation():
    d = decomp(2, (2, 1), (3, 2, 4), 4)
    for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert clone == d
        assert compose(clone) == compose(d)
    # sigma1 (2, 1) tampered to (2, 2): its Permutation is rebuilt and rejected.
    data = pickle.dumps(d, protocol=4)
    tampered = data.replace(b"K\x02K\x01", b"K\x02K\x02")
    assert tampered != data
    with pytest.raises(NotAPermutation):
        pickle.loads(tampered)


# --- decompose ----------------------------------------------------------


def test_decompose_examples():
    d = decompose(perm("3 2 1"))
    assert (d.b, d.sigma1.values, d.sigma2.values, d.n) == (2, (2, 1), (3, 2), 3)
    d = decompose(perm("3 2 1 4"))
    assert (d.b, d.sigma1.values, d.sigma2.values) == (2, (2, 1), (3, 2, 4))
    d = decompose(perm("1 4 3 2"))
    assert (d.b, d.sigma1.values, d.sigma2.values) == (3, (1, 3, 2), (4, 3))


def test_decompose_requires_exactly_one_occurrence():
    with pytest.raises(NoUnique321):
        decompose(perm("1 2 3"))
    with pytest.raises(NoUnique321):
        decompose(perm("4 3 2 1"))


# --- compose ------------------------------------------------------------


def test_compose_examples():
    assert str(compose(decomp(2, (2, 1), (3, 2), 3))) == "3 2 1"
    assert str(compose(decomp(3, (1, 3, 2), (4, 3), 4))) == "1 4 3 2"
    built = compose(decomp(2, (2, 1), (3, 4, 2), 4))
    assert str(built) == "3 2 4 1"
    assert count_321(built) == 1


@pytest.mark.parametrize(
    "d",
    [
        decomp(2, (1, 2), (3, 2), 3),  # sigma1 ends with b
        decomp(2, (2, 1), (2, 3), 3),  # sigma2 starts with b
        decomp(2, (2, 1), (4, 3), 4),  # sigma2 support misses b
        decomp(3, (1, 3, 2), (5, 4, 3), 4),  # sigma2 support exceeds n
        decomp(4, (4, 3, 2, 1), (5, 4), 5),  # sigma1 contains 321
        decomp(2, (2, 1), (5, 4, 3, 2), 5),  # sigma2 contains 321
        decomp(1, (1,), (2, 1), 2),  # b below 2
        decomp(3, (1, 3, 2), (4, 3), 3),  # b above n-1
        decomp(3, (2, 1), (4, 3), 4),  # sigma1 has the wrong length
        # sigma1 is not over 1..b; as a ValueSequence it can hold any values
        Decomposition(2, ValueSequence((3, 1)), ValueSequence((3, 2, 4)), 4),
        Decomposition(3, ValueSequence((1, 4, 2)), ValueSequence((4, 3)), 4),
    ],
)
def test_compose_rejects_invalid_decompositions(d):
    with pytest.raises(ConstraintViolation):
        compose(d)


def test_decompose_and_compose_check_what_they_build_once(monkeypatch):
    # the factors and the composed permutation are wrapped unvalidated:
    # validate_decomposition and the one-321 check are their only checks
    p, d = perm("2 4 3 1 5"), decomp(3, (2, 3, 1), (4, 3, 5), 5)

    def refuse(self, values):
        raise AssertionError(f"{values} validated a second time")

    monkeypatch.setattr(Permutation, "__init__", refuse)
    monkeypatch.setattr(ValueSequence, "__init__", refuse)
    assert decompose(p) == d and compose(d) == p
    assert type(compose(d)) is Permutation and type(decompose(p).sigma2) is ValueSequence


def test_internal_violation_is_a_constraint_violation():
    assert issubclass(InternalConstraintViolation, ConstraintViolation)


# --- round trips --------------------------------------------------------


def test_round_trip_from_permutations(naive_noonan_set):
    for n in range(3, 8):
        for p in naive_noonan_set(n):
            assert compose(decompose(p)) == p


def test_round_trip_from_decompositions():
    for n in range(3, 8):
        for d in all_decompositions(n):
            assert decompose(compose(d)) == d


@st.composite
def decompositions(draw, max_n=7):
    n = draw(st.integers(3, max_n))
    b = draw(st.integers(2, n - 1))
    sigma1 = draw(st.sampled_from(list(enumerate_sigma1(b))))
    sigma2 = draw(st.sampled_from(list(enumerate_sigma2(b, n))))
    return Decomposition(b=b, sigma1=sigma1, sigma2=sigma2, n=n)


@settings(deadline=None)
@given(decompositions())
def test_round_trip_property(d):
    rebuilt = compose(d)
    assert count_321(rebuilt) == 1
    assert decompose(rebuilt) == d


def test_middle_value_separates_left_and_right(naive_noonan_set):
    # left of b everything but c lies below b; right of b everything but a
    # lies above b
    for n in range(3, 8):
        for p in naive_noonan_set(n):
            occ = find_unique_321(p)
            i, j, k = occ.positions
            c, b, a = occ.values
            assert decompose(p).b == b
            for pos in range(1, j):
                if pos != i:
                    assert p.values[pos - 1] < b
            for pos in range(j + 1, n + 1):
                if pos != k:
                    assert p.values[pos - 1] > b


# --- enumeration via the bijection --------------------------------------


def test_enumerate_noonan_small():
    assert [str(p) for p in enumerate_noonan(3)] == ["3 2 1"]
    assert [str(p) for p in enumerate_noonan(4)] == [
        "3 2 1 4",
        "3 2 4 1",
        "4 2 1 3",
        "1 4 3 2",
        "2 4 3 1",
        "4 1 3 2",
    ]
    assert sum(1 for _ in enumerate_noonan(5)) == 27


def test_enumerate_noonan_empty_below_3():
    for n in range(3):
        assert list(enumerate_noonan(n)) == []


def test_enumerate_noonan_matches_oracle_as_a_set(naive_noonan_set):
    for n in range(3, 8):
        via_bijection = {p.values for p in enumerate_noonan(n)}
        via_oracle = {p.values for p in naive_noonan_set(n)}
        assert via_bijection == via_oracle
        assert len(via_bijection) == noonan_closed(n)


def test_enumerate_noonan_cap():
    with pytest.raises(CapExceeded):
        enumerate_noonan(15)
    with pytest.raises(CapExceeded):
        enumerate_noonan(6, cap=5)


def test_enumerate_noonan_threads_do_not_change_the_stream():
    sequential = list(enumerate_noonan(6))
    merged = list(enumerate_noonan(6, threads=3))
    assert [str(p) for p in merged] == [str(p) for p in sequential]
    # the stream wraps checked tuples unvalidated; they still compare and hash alike
    assert merged == sequential
    assert [hash(p) for p in merged] == [hash(p) for p in sequential]
    assert all(type(p) is Permutation for p in merged)


@pytest.mark.parametrize("threads", [0, 1, 2, 3, 16])
def test_split_count_is_the_closed_form_at_every_thread_count(forked, threads):
    for n in range(1, 12):
        forked.clear()
        assert _count_noonan(n, 14, threads) == noonan_closed(n)
        # One range per thread, at most one per b block. One range is
        # counted in this process, two or more in a child each; so threads 1
        # and n <= 3 fork nothing.
        k = min(threads, n - 2)
        assert len(forked) == (k if k > 1 else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_split_count_checks_the_cap_first():
    with pytest.raises(CapExceeded):
        _count_noonan(15, 14, 2)


def splice_by_hand(b, lefts, rights):
    """p1 c p2 b p3 a p4 for every pair, left factors outer, unchecked."""
    for s1 in lefts:
        p = s1.index(b)
        for s2 in rights:
            q = s2.index(b)
            yield s1[:p] + s2[:1] + s1[p + 1 : -1] + (b,) + s2[1:q] + s1[-1:] + s2[q + 1 :]


def is_one_321(t, n):
    return sorted(t) == list(range(1, n + 1)) and count_occurrences(t, (3, 2, 1)) == 1


_BLOCK_3 = [(1, 3, 2), (2, 3, 1), (3, 1, 2)], [(4, 3, 5), (4, 5, 3), (5, 3, 4)]

# Each rejected item t, with the block (b, n, left factors, right factors)
# whose splice meets it after every item before it passed.
_REJECTED_IN = {
    # two 321s, 4 2 1 and 4 3 1: the head 4 2 3 holds the values of 2 4 3,
    # an earlier head with the same a, and reuses its tail sums
    (4, 2, 3, 1, 5): (3, 5, _BLOCK_3[0] + [(3, 2, 1)], _BLOCK_3[1]),
    # none: the head 1 2 3 4 reuses the tail sum of 3 2 1 4
    (1, 2, 3, 4, 5, 6): (4, 6, [(1, 4, 5, 3), (3, 4, 1, 5), (1, 4, 3, 5)], [(2, 4, 6)]),
    # a repeated value, in a second run of c = 4; the middle-position sum
    # is 1, so only the bit set rejects it, as it does the next two
    (1, 4, 3, 2, 4): (3, 5, _BLOCK_3[0], _BLOCK_3[1] + [(4, 3, 4)]),
    # a value out of range, 0, from the last left factor
    (0, 4, 3, 2, 5): (3, 5, _BLOCK_3[0] + [(0, 3, 2)], _BLOCK_3[1]),
    # a value missing, 5
    (1, 4, 3, 2): (3, 5, _BLOCK_3[0], _BLOCK_3[1] + [(4, 3)]),
    # a 0 after a larger value, whose term makes the head's sum -1
    (2, 0, 4, 3, 1, 5): (3, 5, _BLOCK_3[0] + [(2, 0, 3, 1)], _BLOCK_3[1]),
    # a repeated value from a left factor that has an earlier one's a but
    # not its head's values, so it cannot reuse their tail sums
    (1, 4, 3, 1, 5): (3, 5, _BLOCK_3[0] + [(1, 3, 1)], _BLOCK_3[1]),
}


@pytest.mark.parametrize("t", list(_REJECTED_IN))
def test_noonan_tuple_check_rejects(t):
    b, n, lefts, rights = _REJECTED_IN[t]
    assert len(lefts) >= 3
    by_hand = list(splice_by_hand(b, lefts, rights))
    passed = by_hand[: by_hand.index(t)]
    assert all(is_one_321(p, n) for p in passed) and not is_one_321(t, n)
    yielded = []
    text = " ".join(map(str, t))
    with pytest.raises(InternalConstraintViolation, match=f"^generated {text} is not a one-321"):
        for item in _splice(b, n, lefts, rights):
            yielded.append(item)
    assert yielded == passed


def shuffled_factors(naive_noonan_set, n, b, seed):
    """Block b's factors, taken from the one-321 permutations, in a seeded order."""
    found = [decompose(p) for p in naive_noonan_set(n)]
    lefts = sorted({d.sigma1.values for d in found if d.b == b})
    rights = sorted({d.sigma2.values for d in found if d.b == b})
    rng = random.Random(seed)
    rng.shuffle(lefts)
    rng.shuffle(rights)
    return lefts, rights


def test_noonan_tuple_check_accepts_every_one_321_permutation(naive_noonan_set):
    # Shuffled factors: several runs of each c, and keys met in any order.
    # Block 2 has one left factor and runs only the first pass; every other
    # block also replays the right factors that pass keeps.
    for n in range(3, 8):
        for b in range(2, n):
            lefts, rights = shuffled_factors(naive_noonan_set, n, b, seed=n * b)
            assert len(lefts) == catalan(b) - catalan(b - 1)
            assert list(_splice(b, n, lefts, rights)) == list(splice_by_hand(b, lefts, rights))


def test_every_noonan_tuple_goes_through_the_check(monkeypatch, naive_noonan_set):
    # Each item is its head p1 c p2 b, passed from the start, then its tail
    # p3 a p4, passed from the head's bit set; an item of a block with
    # several left factors may reuse the tail sum an earlier one passed. A
    # head's bit set is that of 1..b less a plus c, so each right factor's
    # tail is passed once for each distinct a.
    passed = []
    real = bijection._pass_321

    def record(values, j=0, mask=0):
        passed.append((tuple(values), j, mask))
        return real(values, j, mask)

    monkeypatch.setattr(bijection, "_pass_321", record)
    n = 7
    for b in (2, 3, 5):
        lefts, rights = shuffled_factors(naive_noonan_set, n, b, seed=b)
        passed.clear()
        items = list(_splice(b, n, lefts, rights))
        assert items == list(splice_by_hand(b, lefts, rights))
        seen = set(passed)
        for t in items:
            h = t.index(b) + 1
            assert (t[:h], 0, 0) in seen
            assert (t[h:], h, sum(1 << v for v in t[:h])) in seen
        tails = sum(j > 0 for _, j, _ in passed)
        assert tails == len({s1[-1] for s1 in lefts}) * len(rights)


def test_noonan_stream_ascends_in_b_and_is_lexicographic_within_each_block():
    for n in range(11):
        stream = list(_noonan_tuples(n, None))
        bs = [find_unique_321(Permutation._trusted(t)).values[1] for t in stream]
        assert bs == sorted(bs)
        blocks = {}
        for b, t in zip(bs, stream):
            blocks.setdefault(b, []).append(t)
        assert list(blocks) == list(range(2, n))
        for b, block in blocks.items():
            assert all(s < t for s, t in zip(block, block[1:]))
            assert len(block) == (catalan(b) - catalan(b - 1)) * (catalan(n - b + 1) - catalan(n - b))


def test_splice_without_a_left_factor_walks_no_right_factor():
    def rights():
        raise AssertionError("a right factor was walked")
        yield

    assert list(_splice(3, 6, [], rights())) == []
    assert list(_splice(3, 6, iter(()), rights())) == []


@pytest.mark.parametrize(
    "b, lefts, sha256",
    [
        (2, 1, "70d444872f8fed58882b5b12280450bc2506fc0e5e3acb490b6637b247fd5498"),
        (5, 28, "ebf82c9f1d0908c127365191d1bab89664741baa5457877b9e97faded8bb1972"),
    ],
)
def test_one_left_and_several_left_blocks_keep_their_bytes(b, lefts, sha256):
    # Block b at n = 9 as printed lines: block 2 has one left factor, so the
    # splice keeps nothing; block 5 keeps its right factors for 27 replays.
    assert catalan(b) - catalan(b - 1) == lefts
    text = "".join(" ".join(map(str, t)) + "\n" for t in _noonan_for_b(b, 9))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_block_2_keeps_no_right_factor():
    # Its one left factor, 2 1, has no second to replay the right factors
    # for, so none is kept; keeping its 41,990 at n = 12 peaks at 5.4 MB.
    deque(_noonan_for_b(2, 10), 0)  # builds the completion tables
    tracemalloc.start()
    try:
        deque(_noonan_for_b(2, 12), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_block_3_keeps_its_right_factors_and_tail_sums_under_1_5_mb():
    # Block 3 keeps the most right factors, 11,934 at n = 12, for its three
    # left factors, and beside them a byte of tail sum per factor for each
    # of its two values of a: about 1.3 MB in all.
    deque(_noonan_for_b(3, 10), 0)  # builds the completion tables
    tracemalloc.start()
    try:
        deque(_noonan_for_b(3, 12), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1024 * 1024


# Each fault replaces one call of avoiders._avoiders, the walk behind both
# factors: a left factor walk has no `first`, a right factor walk has one.


def _left_ends_with_b(real, lo, hi, first, max_last):
    return real(lo, hi, first)


def _right_with_a_321(real, lo, hi, first, max_last):
    extra = [tuple(range(hi, lo - 1, -1))] if first == hi and hi - lo >= 2 else []
    return chain(real(lo, hi, first, max_last=max_last), extra)


def _right_starts_with_b(real, lo, hi, first, max_last):
    extra = [tuple(range(lo, hi + 1))] if first == lo + 1 else []
    return chain(real(lo, hi, first, max_last=max_last), extra)


def _left_without_b(real, lo, hi, first, max_last):
    items = real(lo, hi, first, max_last=max_last)
    return items if first is not None else (tuple(v for v in t if v != hi) for t in items)


def _right_out_of_range(real, lo, hi, first, max_last):
    items = real(lo, hi, first, max_last=max_last)
    return items if first is None else ((hi + 1, *t[1:]) for t in items)


def _left_with_a_negative_value(real, lo, hi, first, max_last):
    # 1 becomes -1; it stands in the head or is a, by the left factor
    items = real(lo, hi, first, max_last=max_last)
    return items if first is not None else (tuple(-v if v == 1 else v for v in t) for t in items)


def _last_left_ends_with_b(real, lo, hi, first, max_last):
    items = list(real(lo, hi, first, max_last=max_last))
    return items if first is not None else items[:-1] + [tuple(range(lo, hi + 1))]


def _last_left_has_a_321(real, lo, hi, first, max_last):
    # hi..1 ends with 1, as earlier left factors of its block do, and its
    # head holds the same values as theirs, so it reuses their tail sums.
    items = list(real(lo, hi, first, max_last=max_last))
    return items if first is not None else items[:-1] + [tuple(range(hi, lo - 1, -1))]


def _right_repeats_its_last_value(real, lo, hi, first, max_last):
    # n + 1 values holding all of 1..n; the repeat's middle term is 0, so
    # the item's 321 sum stays 1 and only its length rejects it.
    items = real(lo, hi, first, max_last=max_last)
    return items if first is None else ((*t, t[-1]) for t in items)


@pytest.mark.parametrize(
    "fault",
    [
        _left_ends_with_b,
        _right_with_a_321,
        _right_starts_with_b,
        _left_without_b,
        _right_out_of_range,
        _left_with_a_negative_value,
        _last_left_ends_with_b,
        _last_left_has_a_321,
        _right_repeats_its_last_value,
    ],
)
def test_every_factor_fault_fails_the_item_check(monkeypatch, capsys, fault):
    # The factors are not checked on their own; each fault must still
    # surface as InternalConstraintViolation, in the stream, the count and
    # the CLI.
    real = avoiders._avoiders
    monkeypatch.setattr(
        avoiders,
        "_avoiders",
        lambda lo, hi, first=None, *, max_last=True: fault(real, lo, hi, first, max_last),
    )
    with pytest.raises(InternalConstraintViolation):
        list(_noonan_tuples(7, 14))
    with pytest.raises(InternalConstraintViolation):
        _count_noonan(7, 14, 1)
    assert run(["enumerate", "--family", "noonan", "--n", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InternalConstraintViolation: generated ")
    assert err.count("\n") == 1


# --- text form ----------------------------------------------------------


def test_format_decomposition():
    d = decompose(perm("3 2 1 4"))
    assert format_decomposition(d) == "b=2 | sigma1=2 1 | sigma2=3 2 4"
    assert str(d) == format_decomposition(d)


def test_parse_format_round_trip():
    for n in range(3, 7):
        for d in all_decompositions(n):
            assert parse_decomposition(format_decomposition(d)) == d


@pytest.mark.parametrize(
    "text",
    [
        "b=2 | sigma1=2 1",
        "b=2 | sigma1=2 1 | sigma2=3 2 4 | extra=1",
        "sigma1=2 1 | b=2 | sigma2=3 2 4",
        "b=two | sigma1=2 1 | sigma2=3 2 4",
        "b 2 | sigma1=2 1 | sigma2=3 2 4",
    ],
)
def test_parse_decomposition_rejects_malformed_text(text):
    with pytest.raises(ConstraintViolation):
        parse_decomposition(text)


def test_validate_decomposition_accepts_all_generated_triples():
    for d in all_decompositions(6):
        validate_decomposition(d)
