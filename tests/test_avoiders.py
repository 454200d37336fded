import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat.avoiders import (
    _avoiders,
    enumerate_avoiders,
    enumerate_sigma1,
    enumerate_sigma2,
    is_avoiding_321,
)
from permpat.catalan import catalan
from permpat.errors import CapExceeded, InvalidB, InvalidRange
from permpat.perms import Permutation, ValueSequence, count_occurrences


def one_line(stream):
    return [str(p) for p in stream]


# --- is_avoiding_321 ----------------------------------------------------


def test_is_avoiding_examples():
    assert is_avoiding_321(Permutation((2, 4, 1, 3)))
    assert not is_avoiding_321(Permutation((3, 2, 1)))
    assert is_avoiding_321(Permutation(()))
    # judged on relative order for arbitrary value sets
    assert is_avoiding_321(ValueSequence((3, 5, 4)))
    assert not is_avoiding_321(ValueSequence((9, 6, 2)))
    assert is_avoiding_321((2, 4, 1, 3))


def test_is_avoiding_matches_naive_count_exhaustively():
    for n in range(7):
        for vals in itertools.permutations(range(1, n + 1)):
            assert is_avoiding_321(vals) == (count_occurrences(vals, (3, 2, 1)) == 0)


@settings(deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.permutations(list(range(1, n + 1)))), st.integers(0, 40))
def test_is_avoiding_matches_naive_count_on_shifted_values(values, shift):
    shifted = tuple(v + shift for v in values)
    assert is_avoiding_321(shifted) == (count_occurrences(shifted, (3, 2, 1)) == 0)


# --- enumerate_avoiders -------------------------------------------------


def test_avoiders_of_length_3():
    assert one_line(enumerate_avoiders(3)) == ["1 2 3", "1 3 2", "2 1 3", "2 3 1", "3 1 2"]


def test_avoiders_of_length_0():
    assert one_line(enumerate_avoiders(0)) == [""]


def test_avoider_counts_match_catalan():
    for n in range(10):
        assert sum(1 for _ in enumerate_avoiders(n)) == catalan(n)


def test_avoiders_are_sorted_unique_and_avoiding():
    for n in range(8):
        items = [p.values for p in enumerate_avoiders(n)]
        assert items == sorted(items)
        assert len(items) == len(set(items))
        assert all(is_avoiding_321(vals) for vals in items)


def test_generation_equals_filtering_all_permutations():
    # the incremental pruning must match the naive counter exactly
    for n in range(8):
        generated = [p.values for p in enumerate_avoiders(n)]
        filtered = [
            vals
            for vals in itertools.permutations(range(1, n + 1))
            if count_occurrences(vals, (3, 2, 1)) == 0
        ]
        assert generated == filtered
    for n in (8, 9):
        generated = [p.values for p in enumerate_avoiders(n)]
        filtered = [
            vals
            for vals in itertools.permutations(range(1, n + 1))
            if is_avoiding_321(vals)
        ]
        assert generated == filtered


def test_avoiders_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_avoiders(15))
    with pytest.raises(CapExceeded):
        next(enumerate_avoiders(5, cap=4))
    assert sum(1 for _ in enumerate_avoiders(5, cap=5)) == 42
    with pytest.raises(InvalidRange):
        next(enumerate_avoiders(-1))


def test_first_value_blocks_concatenate_to_the_full_stream():
    # --threads splits the stream by first value; the blocks must tile it.
    for m in range(1, 10):
        blocks = [vals for f in range(1, m + 1) for vals in _avoiders(m, f)]
        assert blocks == list(_avoiders(m))


def test_avoiders_threads_do_not_change_the_stream():
    for n in (0, 1, 5):
        assert one_line(enumerate_avoiders(n, threads=3)) == one_line(enumerate_avoiders(n))


# --- enumerate_sigma1 ---------------------------------------------------


def test_sigma1_examples():
    assert one_line(enumerate_sigma1(2)) == ["2 1"]
    assert one_line(enumerate_sigma1(3)) == ["1 3 2", "2 3 1", "3 1 2"]
    assert sum(1 for _ in enumerate_sigma1(4)) == 9


def test_sigma1_counts_and_constraints():
    for b in range(2, 13):
        items = [p.values for p in enumerate_sigma1(b)]
        assert len(items) == catalan(b) - catalan(b - 1)
        assert items == sorted(items)
        assert all(vals[-1] != b for vals in items)
        assert all(is_avoiding_321(vals) for vals in items)


def test_sigma1_is_the_filtered_avoider_stream():
    for b in range(2, 11):
        expected = [p.values for p in enumerate_avoiders(b) if p.values[-1] != b]
        assert [p.values for p in enumerate_sigma1(b)] == expected


def test_sigma1_rejects_small_b_and_cap():
    for b in (1, 0, -3):
        with pytest.raises(InvalidB):
            next(enumerate_sigma1(b))
    with pytest.raises(CapExceeded):
        next(enumerate_sigma1(15))


def test_sigma1_threads_do_not_change_the_stream():
    for b in (6, 9):
        assert one_line(enumerate_sigma1(b, threads=3)) == one_line(enumerate_sigma1(b))


# --- enumerate_sigma2 ---------------------------------------------------


def test_sigma2_examples():
    assert one_line(enumerate_sigma2(2, 3)) == ["3 2"]
    assert one_line(enumerate_sigma2(2, 4)) == ["3 2 4", "3 4 2", "4 2 3"]
    assert one_line(enumerate_sigma2(3, 4)) == ["4 3"]


def test_sigma2_counts_and_constraints():
    for n in range(3, 14):
        for b in range(2, n):
            items = [s.values for s in enumerate_sigma2(b, n)]
            m = n - b + 1
            assert len(items) == catalan(m) - catalan(m - 1)
            assert items == sorted(items)
            for vals in items:
                assert vals[0] != b
                assert set(vals) == set(range(b, n + 1))
                assert is_avoiding_321(vals)


def test_sigma2_is_the_filtered_avoider_stream():
    # The stream skips the avoiders starting with 1 instead of discarding them.
    for n in range(3, 11):
        for b in range(2, n):
            filtered = [
                tuple(v + b - 1 for v in vals)
                for vals in _avoiders(n - b + 1)
                if vals[0] != 1
            ]
            assert [s.values for s in enumerate_sigma2(b, n)] == filtered


def test_sigma2_rejects_bad_ranges():
    for b, n in ((1, 4), (4, 4), (5, 4), (0, 3)):
        with pytest.raises(InvalidRange):
            next(enumerate_sigma2(b, n))
    with pytest.raises(CapExceeded):
        next(enumerate_sigma2(2, 17))


def test_sigma2_threads_do_not_change_the_stream():
    for b, n in ((3, 9), (2, 10)):
        assert one_line(enumerate_sigma2(b, n, threads=3)) == one_line(enumerate_sigma2(b, n))
