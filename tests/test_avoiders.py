import itertools
import os
import subprocess
import sys
import types
from math import comb
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permpat import avoiders
from permpat.avoiders import (
    _avoiders,
    _completions,
    _tails,
    enumerate_avoiders,
    enumerate_sigma1,
    enumerate_sigma2,
)
from permpat.bijection import _noonan_tuples
from permpat.catalan import catalan
from permpat.cli import run
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
@given(st.integers(0, 8).flatmap(lambda n: st.permutations(list(range(1, n + 1)))), st.integers(-40, 40))
@example((1,), -2)
@example((1, 3, 2), -4)
def test_is_avoiding_matches_naive_count_on_shifted_values(values, shift):
    # Values at or below 0 are distinct integers too: (-1,) and (-3, -1, -2) avoid 321.
    shifted = tuple(v + shift for v in values)
    assert is_avoiding_321(shifted) == (count_occurrences(shifted, (3, 2, 1)) == 0)


# --- the walk's own check -------------------------------------------------


@pytest.mark.parametrize(
    "unused", [(2, 2), (2, 5), (1, 2), (2,), (2, 3, 3)], ids=["duplicate", "above", "below", "short", "long"]
)
def test_completions_reject_a_wrong_value_set(unused):
    # Completing the prefix (4,) must give exactly 2..4. The first completion
    # is checked; the second getter stands for the rest of a table entry.
    getters = (tuple, itemgetter(1, 0))
    assert _completions((4,), getters, (2, 3), [2, 3, 4]) == [(4, 2, 3), (4, 3, 2)]
    with pytest.raises(InternalConstraintViolation):
        _completions((4,), getters, unused, [2, 3, 4])


@pytest.mark.parametrize("get", [itemgetter(0, 3), itemgetter(0, -4), itemgetter(1)])
def test_completions_reject_a_getter_that_reads_past_or_returns_no_tuple(get):
    with pytest.raises(InternalConstraintViolation):
        _completions((), (get,), (0, 1, 2), [0, 1, 2])


# Each mutant replaces one piece of the avoiders module's source, in a copy
# of the module, with a fault: a duplicate value, a value above the range or
# below it, a short tuple or a long one. A fault sits in a walk step, a table
# getter, a leaf reading a table of the wrong size, or the values a family
# walks over.
_STEP = "prefix + (unused[r],)"
_GETTER = "_getter = cache(itemgetter)"
_LEAF = "yield from _completions(prefix, _tails(k, s, top not in unused), unused, values)"
_RANGE = "unused = tuple(v for v in range(lo, hi + 1) if v != first)"
MUTANTS = {
    "step-duplicate": (_STEP, "prefix + (unused[0],)"),
    "step-above": (_STEP, "prefix + (unused[r] + 99,)"),
    "step-below": (_STEP, "prefix + (unused[r] - 99,)"),
    "step-short": (_STEP, "prefix"),
    "step-long": (_STEP, "prefix + (unused[r], r)"),
    "step-drops-two": ("unused[:r] + unused[r + 1 :]", "unused[:r] + unused[r + 2 :]"),
    "getter-duplicate": (_GETTER, "_getter = cache(lambda *p: itemgetter(*p[:-1], p[0]))"),
    "getter-above": (_GETTER, "_getter = cache(lambda *p: itemgetter(*p[:-1], len(p)))"),
    "getter-below": (_GETTER, "_getter = cache(lambda *p: itemgetter(*p[:-1], -1 - len(p)))"),
    "getter-short": (_GETTER, "_getter = cache(lambda *p: itemgetter(*p[:-1]))"),
    "getter-long": (_GETTER, "_getter = cache(lambda *p: itemgetter(*p, p[0]))"),
    # Only patterns that start above rank 0 are long, so the first completion
    # of every entry, which starts with rank 0, is right: only the table's
    # own check of each getter sees the fault.
    "getter-long-after-the-first": (
        _GETTER,
        "_getter = cache(lambda *p: itemgetter(*p, p[0]) if p[0] else itemgetter(*p))",
    ),
    "leaf-table-too-small": (_LEAF, _LEAF.replace("_tails(k,", "_tails(k - 1,")),
    # The leaf comes a step late and reads the size-k entry with k - 1 values.
    "leaf-table-too-large": ("if len(unused) <= k:", "if len(unused) < k:"),
    "range-duplicate": (_RANGE, _RANGE.replace("range(lo, hi + 1)", "(lo, *range(lo, hi))")),
    "range-above": (_RANGE, _RANGE.replace("range(lo, hi + 1)", "range(lo + 1, hi + 2)")),
    "range-below": (_RANGE, _RANGE.replace("range(lo, hi + 1)", "range(lo - 1, hi)")),
    "range-short": (_RANGE, _RANGE.replace("range(lo, hi + 1)", "range(lo, hi)")),
    "range-long": (_RANGE, _RANGE.replace("range(lo, hi + 1)", "range(lo, hi + 2)")),
}

# Sizes at which every walk takes steps above its table-read leaves: the
# one-321 stream at n = 9 walks the left factors of 1..8.
FAMILY_STREAMS = {
    "avoiders": (lambda m: m._avoider_tuples(9, None), ["--n", "9"]),
    "sigma1": (lambda m: m._sigma1_tuples(9, None), ["--b", "9"]),
    "sigma2": (lambda m: m._sigma2_tuples(2, 10, None), ["--b", "2", "--n", "10"]),
    "noonan": (lambda m: _noonan_tuples(9, None), ["--n", "9"]),
}


def _mutant(old, new):
    source = Path(avoiders.__file__).read_text()
    assert source.count(old) == 1, old
    module = types.ModuleType("permpat.avoiders")
    module.__package__ = "permpat"
    exec(compile(source.replace(old, new), avoiders.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", MUTANTS)
def test_every_injected_fault_raises_before_a_wrong_tuple(monkeypatch, capsys, name):
    # Every family, in-process and through CLI `enumerate`, must raise
    # InternalConstraintViolation, and whatever it yielded or printed first
    # must be the start of the true stream.
    real = {family: list(stream(avoiders)) for family, (stream, _) in FAMILY_STREAMS.items()}
    mutant = _mutant(*MUTANTS[name])
    # The CLI and the one-321 stream import the module at call time.
    monkeypatch.setitem(sys.modules, "permpat.avoiders", mutant)
    for family, (stream, flags) in FAMILY_STREAMS.items():
        yielded = []
        with pytest.raises(InternalConstraintViolation):
            yielded.extend(stream(mutant))
        assert yielded == real[family][: len(yielded)], family
        assert run(["enumerate", "--family", family, *flags]) == 1, family
        out, err = capsys.readouterr()
        assert err.startswith("InternalConstraintViolation: ") and err.count("\n") == 1, family
        lines = out.splitlines()
        assert lines == [" ".join(map(str, t)) for t in real[family][: len(lines)]], family


def test_family_items_are_wrapped_without_a_second_validation(monkeypatch):
    # The walk has checked every tuple, so the wrappers skip __init__.
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
    # The completion table is built on first use: importing the module, and a
    # request that generates nothing, must not build any of it.
    code = (
        "from permpat.avoiders import _tails\n"
        "from permpat.cli import run\n"
        "status = run(['decompose', '--perm', '1 4 3 2 5'])\n"
        "print(status, _tails.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "0 0"


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
