import copy
import os
import pickle
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat import avoiders, bijection
from permpat.avoiders import enumerate_sigma1, enumerate_sigma2
from permpat.bijection import (
    Decomposition,
    _check_one_321,
    _count_noonan,
    _noonan_tuples,
    compose,
    decompose,
    enumerate_noonan,
    format_decomposition,
    parse_decomposition,
    validate_decomposition,
)
from permpat.catalan import noonan_closed
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


@pytest.mark.parametrize(
    "t",
    [
        (4, 3, 1, 2),  # a permutation with two 321s: 4 3 1 and 4 3 2
        (1, 2, 3, 4),  # a permutation with none
        (3, 2, 1, 3),  # a repeated value; its middle-position sum is still 1
        (3, 2, 1, 5),  # a value out of range; its middle-position sum is still 1
    ],
)
def test_noonan_tuple_check_rejects(t):
    with pytest.raises(InternalConstraintViolation):
        _check_one_321(t, [1, 2, 3, 4])


def test_every_noonan_tuple_goes_through_the_check(monkeypatch):
    checked = []
    monkeypatch.setattr(bijection, "_check_one_321", lambda t, values: checked.append((t, values)))
    streamed = [p.values for p in enumerate_noonan(7)]
    assert checked == [(t, [1, 2, 3, 4, 5, 6, 7]) for t in streamed]


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


@pytest.mark.parametrize(
    "fault",
    [_left_ends_with_b, _right_with_a_321, _right_starts_with_b, _left_without_b, _right_out_of_range],
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


def test_noonan_tuple_check_accepts_every_one_321_permutation(naive_noonan_set):
    for n in range(3, 8):
        for p in naive_noonan_set(n):
            _check_one_321(p.values, list(range(1, n + 1)))


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
