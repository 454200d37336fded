import itertools
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat import avoiders
from permpat.avoiders import (
    _avoiders,
    _checked,
    _tails,
    enumerate_avoiders,
    enumerate_sigma1,
    enumerate_sigma2,
)
from permpat.catalan import catalan
from permpat.errors import CapExceeded, InternalConstraintViolation, InvalidRange
from permpat.perms import Permutation, ValueSequence, count_occurrences, is_avoiding_321


SRC = Path(__file__).resolve().parent.parent / "src"


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


# --- per-item value check -----------------------------------------------


@pytest.mark.parametrize("t", [(2, 2, 4), (2, 3, 5), (1, 2, 3), (2, 3)])
def test_tuple_check_rejects_a_wrong_value_set(t):
    # A duplicate, a value above and one below the range 2..4, a short tuple.
    stream = _checked(iter([(4, 2, 3), t]), 2, 4)
    assert next(stream) == (4, 2, 3)
    with pytest.raises(InternalConstraintViolation):
        next(stream)


def test_every_family_item_goes_through_the_check(monkeypatch):
    checked = []
    real = avoiders._checked

    def spy(tuples, lo, hi):
        for t in real(tuples, lo, hi):
            checked.append((t, lo, hi))
            yield t

    monkeypatch.setattr(avoiders, "_checked", spy)
    for stream, lo, hi in [
        (enumerate_avoiders(6), 1, 6),
        (enumerate_sigma1(6), 1, 6),
        (enumerate_sigma2(3, 7), 3, 7),
    ]:
        checked.clear()
        assert [(p.values, lo, hi) for p in stream] == checked


def test_family_items_are_wrapped_without_a_second_validation(monkeypatch):
    # _checked has verified every tuple, so the wrappers skip __init__.
    def refuse(self, values):
        raise AssertionError(f"{values} validated a second time")

    monkeypatch.setattr(Permutation, "__init__", refuse)
    monkeypatch.setattr(ValueSequence, "__init__", refuse)
    assert len(list(enumerate_avoiders(6))) == catalan(6)
    assert len(list(enumerate_sigma1(6))) == catalan(6) - catalan(5)
    streamed = list(enumerate_sigma2(3, 7))
    assert len(streamed) == catalan(5) - catalan(4)
    assert all(type(s) is ValueSequence for s in streamed)


# --- enumerate_avoiders -------------------------------------------------


def test_avoiders_of_length_3():
    assert one_line(enumerate_avoiders(3)) == ["1 2 3", "1 3 2", "2 1 3", "2 3 1", "3 1 2"]


def test_avoiders_of_length_0():
    assert one_line(enumerate_avoiders(0)) == [""]


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


# Value intervals lo..hi of up to 8 values; those starting above 1 stand for
# the right factors' intervals b..n.
INTERVALS = [(1, m) for m in range(9)] + [(lo, lo + m - 1) for lo in (2, 5) for m in range(9)]


def test_raw_generator_equals_filtering_all_permutations():
    # The table-read tails and the first-value and last-value restrictions
    # against a plain filter of every permutation.
    for lo, hi in INTERVALS:
        filtered = [v for v in itertools.permutations(range(lo, hi + 1)) if is_avoiding_321(v)]
        assert list(_avoiders(lo, hi)) == filtered
        assert list(_avoiders(lo, hi, max_last=False)) == [v for v in filtered if v[-1:] != (hi,)]
        for f in range(lo, hi + 1):
            assert list(_avoiders(lo, hi, f)) == [v for v in filtered if v[0] == f]


def test_avoiders_of_length_13_are_catalan_many_and_strictly_increasing():
    count = 0
    prev = ()
    for vals in _avoiders(1, 13):
        assert vals > prev
        prev = vals
        count += 1
    assert count == catalan(13)


@pytest.mark.parametrize("k", range(9))
def test_completion_table_holds_the_ballot_many_rank_patterns(k):
    # State (k, s): k unused values, s of them below the prefix maximum.
    # Applied to the ranks 0..k-1, each getter returns its pattern.
    ranks = list(range(k))
    for s in range(k + 1):
        patterns = [get(ranks) for get in _tails(k, s, True)]
        assert len(patterns) == (s + 1) * comb(2 * k - s, k) // (k + 1)
        assert all(sorted(p) == ranks for p in patterns)
        assert all(p < q for p, q in zip(patterns, patterns[1:]))
        without_top = [get(ranks) for get in _tails(k, s, False)]
        assert without_top == [p for p in patterns if p[-1:] != (k - 1,)]


def test_importing_avoiders_builds_no_table():
    # decompose and compose import this module; the table must cost them nothing.
    code = (
        "from permpat.avoiders import _patterns, _tails\n"
        "from permpat.cli import run\n"
        "status = run(['decompose', '--perm', '1 4 3 2 5'])\n"
        "print(status, _tails.cache_info().currsize, _patterns.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "0 0 0"


def test_first_value_blocks_concatenate_to_the_full_stream():
    # sigma2 walks only the first values b+1..n; the blocks must tile the stream.
    for lo, hi in [(lo, hi) for lo, hi in INTERVALS if lo <= hi] + [(1, 9)]:
        blocks = [vals for f in range(lo, hi + 1) for vals in _avoiders(lo, hi, f)]
        assert blocks == list(_avoiders(lo, hi))


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
        with pytest.raises(InvalidRange):
            next(enumerate_sigma1(b))
    with pytest.raises(CapExceeded):
        next(enumerate_sigma1(15))


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
    # An independent reference: the avoiders of 1..n-b+1 not starting with 1,
    # every value shifted up by b-1.
    for n in range(3, 11):
        for b in range(2, n):
            filtered = [
                tuple(v + b - 1 for v in vals)
                for vals in _avoiders(1, n - b + 1)
                if vals[0] != 1
            ]
            assert [s.values for s in enumerate_sigma2(b, n)] == filtered


def test_sigma2_rejects_bad_ranges():
    for b, n in ((1, 4), (4, 4), (5, 4), (0, 3)):
        with pytest.raises(InvalidRange):
            next(enumerate_sigma2(b, n))
    with pytest.raises(CapExceeded):
        next(enumerate_sigma2(2, 17))
