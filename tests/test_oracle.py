import ast
import inspect
import itertools
import math
from collections import Counter

import pytest

import permpat.oracle
from permpat.catalan import catalan
from permpat.errors import CapExceeded, InvalidRange
from permpat.oracle import brute_count_exactly_k, brute_noonan_set, count_321_exactly_k
from permpat.perms import PATTERN_321, Permutation, count_occurrences


def _state_count(n, pattern, k, **kw):
    # count_321_exactly_k behind brute_count_exactly_k's signature
    assert pattern == PATTERN_321
    return count_321_exactly_k(n, k, **kw)


def test_exactly_k_examples():
    assert brute_count_exactly_k(4, PATTERN_321, 0) == 14
    assert brute_count_exactly_k(4, PATTERN_321, 1) == 6
    assert brute_count_exactly_k(5, PATTERN_321, 1) == 27


def test_k_zero_recovers_catalan():
    for n in range(8):
        assert brute_count_exactly_k(n, PATTERN_321, 0) == catalan(n)
    for n in range(15):
        assert count_321_exactly_k(n, 0, cap=n) == catalan(n)


def test_k_zero_recovers_catalan_at_full_oracle_scale():
    # the slow end of the same invariant: 8! and 9! full passes
    for n in (8, 9):
        assert brute_count_exactly_k(n, PATTERN_321, 0) == catalan(n)


def test_counts_over_all_k_sum_to_factorial():
    for n in range(8):
        max_k = math.comb(n, 3)
        total = sum(brute_count_exactly_k(n, PATTERN_321, k) for k in range(max_k + 1))
        assert total == math.factorial(n)


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


def test_noonan_set_is_lexicographic():
    for n in range(3, 7):
        items = [p.values for p in brute_noonan_set(n)]
        assert items == sorted(items)
        assert len(items) == brute_count_exactly_k(n, PATTERN_321, 1)


def test_caps_and_ranges():
    for count in (brute_count_exactly_k, _state_count):
        with pytest.raises(CapExceeded, match="at n = 11 exceeds the cap 10"):
            count(11, PATTERN_321, 1)
        with pytest.raises(CapExceeded, match="exceeds the cap 4"):
            count(5, PATTERN_321, 1, cap=4)
        assert count(5, PATTERN_321, 1, cap=5) == 27
        with pytest.raises(InvalidRange, match="need n >= 0, got -1"):
            count(-1, PATTERN_321, 0)
        with pytest.raises(InvalidRange, match="need k >= 0, got -1"):
            count(3, PATTERN_321, -1)
    with pytest.raises(CapExceeded):
        brute_noonan_set(11)


def test_threads_do_not_change_the_count():
    for k in (0, 1, 2):
        assert brute_count_exactly_k(6, PATTERN_321, k, threads=3) == brute_count_exactly_k(
            6, PATTERN_321, k
        )


def test_progress_callback_runs_once_per_position():
    seen = []
    count_321_exactly_k(5, 1, progress=lambda d, t: seen.append((d, t)))
    assert seen == [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]


def test_state_count_equals_a_naive_tally_for_every_k():
    for n in range(8):
        # one naive pass tallies every k at once, as the n! scan counts them
        tally = Counter(
            count_occurrences(v, PATTERN_321.values) for v in itertools.permutations(range(1, n + 1))
        )
        for k in range(math.comb(n, 3) + 2):
            assert count_321_exactly_k(n, k) == tally[k], (n, k)
    assert brute_count_exactly_k(7, PATTERN_321, 1) == tally[1]


def test_oracle_is_independent_of_the_optimized_paths():
    # the whole point of the oracle is that a bug elsewhere cannot confirm
    # itself here: from the package it may import the naive counter, the
    # permutation type and the errors, and nothing else
    # (level, module) -> names it may provide, None for any
    allowed = {
        (0, "__future__"): None,
        (0, "collections.abc"): None,
        (0, "itertools"): None,
        (0, "multiprocessing"): None,
        (1, "errors"): None,
        (1, "perms"): {"PATTERN_321", "Permutation", "count_occurrences"},
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
