import ast
import inspect
import itertools
import math
import os
from functools import cache

import pytest

import permpat.oracle
import permpat.split
from permpat.catalan import catalan, noonan_closed
from permpat.errors import CapExceeded, InternalConstraintViolation, InvalidRange
from permpat.oracle import (
    brute_count_exactly_k,
    brute_distribution,
    brute_noonan_set,
    count_321_exactly_k,
    distribution_321,
)
from permpat.perms import PATTERN_321, Permutation, count_occurrences


def _state_count(n, pattern, k, **kw):
    # count_321_exactly_k behind brute_count_exactly_k's signature
    assert pattern == PATTERN_321
    return count_321_exactly_k(n, k, **kw)


def test_exactly_k_examples():
    assert brute_count_exactly_k(4, PATTERN_321, 0) == 14
    assert brute_count_exactly_k(4, PATTERN_321, 1) == 6
    assert brute_count_exactly_k(5, PATTERN_321, 1) == 27


def test_k_zero_recovers_catalan(naive_row):
    for n in range(10):
        assert naive_row(n)[0] == catalan(n)
    for n in range(15):
        assert count_321_exactly_k(n, 0, cap=n) == catalan(n)


def test_counts_over_all_k_sum_to_factorial(naive_row):
    for n in range(10):
        assert sum(naive_row(n)) == math.factorial(n)


def test_naive_tally_meets_the_mean_the_top_count_and_the_exactly_two_formula(naive_row, exactly_two):
    for n in range(10):
        row = naive_row(n)
        # each triple of positions is a 321 with probability 1/6
        assert 6 * sum(k * a for k, a in enumerate(row)) == math.factorial(n) * math.comb(n, 3)
        if n >= 3:
            # only the decreasing permutation has every triple a 321
            assert row[-1] == 1
        if n >= 4:
            assert row[2] == exactly_two(n), n


def test_other_patterns_are_supported():
    # permutations of 1..3 with exactly one ascending pair: 231 and 312
    pattern = Permutation((1, 2))
    assert brute_count_exactly_k(3, pattern, 1) == 2


def test_degenerate_sizes():
    empty = Permutation(())
    one = Permutation((1,))
    # the empty pattern occurs once in every sequence, the empty one included
    assert brute_count_exactly_k(0, empty, 1) == 1
    assert brute_count_exactly_k(4, empty, 1) == 24
    assert brute_count_exactly_k(4, empty, 0) == 0
    # a length-1 pattern occurs once per position
    assert brute_count_exactly_k(5, one, 5) == 120
    assert brute_count_exactly_k(5, one, 4) == 0
    for count in (brute_count_exactly_k, _state_count):
        # n = 0, and n below the pattern length: nothing occurs
        assert count(0, PATTERN_321, 0) == 1
        assert count(0, PATTERN_321, 1) == 0
        assert count(1, PATTERN_321, 0) == 1
        assert count(2, PATTERN_321, 0) == 2
        assert count(2, PATTERN_321, 1) == 0


def test_noonan_set_examples():
    assert [str(p) for p in brute_noonan_set(3)] == ["3 2 1"]
    assert list(brute_noonan_set(2)) == []
    assert [str(p) for p in brute_noonan_set(4)] == [
        "1 4 3 2",
        "2 4 3 1",
        "3 2 1 4",
        "3 2 4 1",
        "4 1 3 2",
        "4 2 1 3",
    ]


def test_noonan_set_is_lexicographic(naive_row):
    for n in range(3, 7):
        items = [p.values for p in brute_noonan_set(n)]
        assert items == sorted(items)
        assert len(items) == naive_row(n)[1]


def test_caps_and_ranges():
    # The n! scans refuse n past their default cap; the state count has none
    # by default, only a budget on its layers.
    with pytest.raises(CapExceeded, match="at n = 11 exceeds the cap 10"):
        brute_count_exactly_k(11, PATTERN_321, 1)
    assert _state_count(11, PATTERN_321, 1) == noonan_closed(11)
    for count in (brute_count_exactly_k, _state_count):
        with pytest.raises(CapExceeded, match="exceeds the cap 4"):
            count(5, PATTERN_321, 1, cap=4)
        assert count(5, PATTERN_321, 1, cap=5) == 27
        with pytest.raises(InvalidRange, match="need n >= 0, got -1"):
            count(-1, PATTERN_321, 0)
        with pytest.raises(InvalidRange, match="need k >= 0, got -1"):
            count(3, PATTERN_321, -1)
    with pytest.raises(CapExceeded):
        brute_noonan_set(11)


def test_threads_do_not_change_the_count(forked, naive_row):
    want = [naive_row(n)[:3] for n in range(8)]
    for threads in (-1, 0, 1, 2, 3, 16):
        forked.clear()
        got = [brute_distribution(n, PATTERN_321, 2, threads=threads) for n in range(8)]
        assert got == want, threads
        # max(1, min(threads, n)) ranges of first values for n = 1..7: one
        # is counted in this process, two or more in a child each.
        parts = [max(1, min(threads, n)) for n in range(1, 8)]
        assert len(forked) == sum(p for p in parts if p > 1), threads
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# the naive counter, memoized across the parameters and inherited by forks
_memo_count = cache(count_occurrences)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_an_exactly_k_count_is_one_entry_of_the_naive_row(monkeypatch, threads):
    # Memoized counts: this checks how a row is read and split, not the
    # counter. A split forks on every call, so past one process it checks
    # one k inside the row, when there is one, and one past it.
    monkeypatch.setattr(permpat.oracle, "count_occurrences", _memo_count)
    for n, m in itertools.product(range(7), range(4)):
        top = math.comb(n, m)
        for p in map(Permutation, itertools.permutations(range(1, m + 1))):
            for k in range(top + 2) if threads == 1 else {1, top + 1}:
                row = brute_distribution(n, p, k, threads=threads)
                assert len(row) == min(k, top) + 1
                want = row[k] if k <= top else 0
                assert brute_count_exactly_k(n, p, k, threads=threads) == want, (n, p, k)


def test_a_failing_child_names_its_first_values_and_leaves_no_process(monkeypatch):
    counted = permpat.oracle.count_occurrences

    def failing(values, pattern):
        if values[0] >= 4:
            raise ValueError(f"no first value {values[0]}")
        return counted(values, pattern)

    # A module global, so the forked children inherit it.
    monkeypatch.setattr(permpat.oracle, "count_occurrences", failing)
    with pytest.raises(InternalConstraintViolation) as info:
        brute_count_exactly_k(6, PATTERN_321, 1, threads=2)
    message = str(info.value)
    assert message.startswith("the count of first value = 4..6 in child process ")
    assert message.endswith(" failed: ValueError: no first value 4")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_progress_callback_runs_once_per_position():
    seen = []
    count_321_exactly_k(5, 1, progress=lambda d, t: seen.append((d, t)))
    assert seen == [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]


def test_state_count_equals_a_naive_tally_for_every_k(naive_row):
    for n in range(10):
        row = distribution_321(n, math.comb(n, 3))
        assert row == naive_row(n), n
        # past C(n, 3) the row stops, and the count is 0
        assert distribution_321(n, math.comb(n, 3) + 5) == row
        assert count_321_exactly_k(n, math.comb(n, 3) + 1) == 0


def test_state_count_row_at_n_10(exactly_two):
    # past the naive rows' reach, the whole row against what is known of it
    n, top = 10, math.comb(10, 3)
    row = distribution_321(n, top)
    assert len(row) == top + 1
    assert sum(row) == math.factorial(n)
    assert 6 * sum(k * a for k, a in enumerate(row)) == math.factorial(n) * top
    assert row[:3] == [catalan(n), noonan_closed(n), exactly_two(n)]
    assert row[top] == 1


def test_an_explicit_cap_lifts_the_state_budget(monkeypatch, naive_row):
    # the CLI tests check the refusals at the real budget
    monkeypatch.setattr(permpat.oracle, "STATE_BUDGET", 100)
    with pytest.raises(CapExceeded, match="budget of 100 live states times unused values"):
        distribution_321(8, 3)
    assert distribution_321(8, 3, cap=8) == naive_row(8)[:4]


def test_oracle_is_independent_of_the_optimized_paths():
    # the whole point of the oracle is that a bug elsewhere cannot confirm
    # itself here: from the package it may import the naive counter, the
    # permutation type and the errors, and nothing else
    # (level, module) -> names it may provide, None for any
    allowed = {
        (0, "__future__"): None,
        (0, "collections.abc"): None,
        (0, "itertools"): None,
        (0, "math"): None,
        (1, "errors"): None,
        (1, "perms"): {"PATTERN_321", "Permutation", "count_occurrences"},
        (1, "split"): {"forked_sum", "ranges"},
    }
    imported = set()
    tree = ast.parse(inspect.getsource(permpat.oracle))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert allowed.get((0, alias.name), ()) is None, alias.name
        elif isinstance(node, ast.ImportFrom):
            key = (node.level, node.module)
            assert key in allowed, key
            names = {alias.name for alias in node.names}
            assert allowed[key] is None or names <= allowed[key], names - allowed[key]
            imported |= names
    assert "count_occurrences" in imported
    # The split only sums what the oracle's own count returns: it takes
    # nothing from the package but its errors.
    for node in ast.walk(ast.parse(inspect.getsource(permpat.split))):
        if isinstance(node, ast.ImportFrom):
            module = (node.level, node.module)
            assert module == (1, "errors") or not (node.level or "permpat" in node.module), module
        elif isinstance(node, ast.Import):
            assert not any("permpat" in alias.name for alias in node.names)
