import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat.errors import (
    MultipleOccurrences,
    NoOccurrence,
    NotAPermutation,
    NoUnique321,
)
from permpat.perms import (
    PATTERN_321,
    Occurrence321,
    Permutation,
    ValueSequence,
    count_321,
    count_321_fenwick,
    count_occurrences,
    count_pattern,
    find_unique_321,
    from_one_line,
    parse_one_line,
    standardize,
)


def perm(*values):
    return Permutation(tuple(values))


def perms_up_to(max_n, min_n=0):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


# --- validation ---------------------------------------------------------


def test_from_one_line_accepts_permutations():
    assert from_one_line([3, 2, 1]).values == (3, 2, 1)
    assert from_one_line([]).values == ()
    assert from_one_line([1]).n == 1


@pytest.mark.parametrize("raw", [[1, 1, 2], [2, 4, 3], [0, 1], [-1], [2], [1, 3]])
def test_from_one_line_rejects_non_permutations(raw):
    with pytest.raises(NotAPermutation):
        from_one_line(raw)


def test_parse_one_line():
    assert parse_one_line("3 2 1 4").values == (3, 2, 1, 4)
    assert parse_one_line("").values == ()
    with pytest.raises(NotAPermutation):
        parse_one_line("1 2 x")


@given(perms_up_to(8))
def test_text_form_round_trips(values):
    p = Permutation(tuple(values))
    assert parse_one_line(str(p)) == p


def test_value_sequence_rejects_duplicates_and_nonpositive():
    assert ValueSequence((5, 3, 9)).support == frozenset({3, 5, 9})
    with pytest.raises(NotAPermutation):
        ValueSequence((5, 3, 5))
    with pytest.raises(NotAPermutation):
        ValueSequence((0, 1))


def test_occurrence_triple_is_checked():
    occ = Occurrence321((1, 2, 3), (3, 2, 1))
    assert occ.positions == (1, 2, 3)
    with pytest.raises(ValueError):
        Occurrence321((2, 1, 3), (3, 2, 1))
    with pytest.raises(ValueError):
        Occurrence321((1, 2, 3), (1, 2, 3))


# --- value classes ------------------------------------------------------

VALUE_OBJECTS = [
    (Permutation((3, 1, 2)), Permutation([3, 1, 2]), Permutation((1, 2, 3)), (3, 1, 2)),
    (ValueSequence((5, 3, 9)), ValueSequence([5, 3, 9]), ValueSequence((3, 5, 9)), (5, 3, 9)),
    (
        Occurrence321((1, 2, 3), (3, 2, 1)),
        Occurrence321(positions=(1, 2, 3), values=(3, 2, 1)),
        Occurrence321((1, 2, 4), (3, 2, 1)),
        ((1, 2, 3), (3, 2, 1)),
    ),
]


@pytest.mark.parametrize("obj, equal, unequal, plain", VALUE_OBJECTS)
def test_value_objects_compare_and_hash_by_field(obj, equal, unequal, plain):
    assert obj == equal and not obj != equal
    assert hash(obj) == hash(equal)
    assert obj != unequal
    assert obj != plain and plain != obj
    assert len({obj, equal, unequal}) == 2


def test_value_object_reprs():
    assert repr(Permutation((3, 1, 2))) == "Permutation(values=(3, 1, 2))"
    assert repr(ValueSequence((5, 3, 9))) == "ValueSequence(values=(5, 3, 9))"
    assert repr(Occurrence321((1, 2, 3), (3, 2, 1))) == (
        "Occurrence321(positions=(1, 2, 3), values=(3, 2, 1))"
    )


@pytest.mark.parametrize("obj", [row[0] for row in VALUE_OBJECTS])
def test_value_objects_are_immutable(obj):
    with pytest.raises(AttributeError):
        obj.values = (1,)
    with pytest.raises(AttributeError):
        del obj.values
    with pytest.raises(AttributeError):
        obj.other = 1


@pytest.mark.parametrize("obj", [row[0] for row in VALUE_OBJECTS])
def test_value_objects_pickle_and_copy(obj):
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(clone) is type(obj)
        assert clone == obj


def test_unpickling_revalidates():
    data = pickle.dumps(Permutation((1, 2)), protocol=4)
    # BININT1 opcodes: (1, 2) becomes (1, 1).
    tampered = data.replace(b"K\x02", b"K\x01")
    assert tampered != data
    with pytest.raises(NotAPermutation):
        pickle.loads(tampered)


def test_standardize():
    assert standardize((5, 9, 7)).values == (1, 3, 2)
    assert standardize(()).values == ()


# --- counting -----------------------------------------------------------


def test_count_pattern_examples():
    assert count_pattern(perm(3, 2, 1), PATTERN_321) == 1
    assert count_pattern(perm(1, 2, 3, 4), PATTERN_321) == 0
    assert count_pattern(perm(4, 3, 2, 1), PATTERN_321) == 4


def test_count_pattern_degenerate_patterns():
    p = perm(2, 4, 1, 3)
    assert count_pattern(p, perm()) == 1
    assert count_pattern(p, perm(1)) == 4
    assert count_pattern(perm(2, 1), perm(3, 2, 1)) == 0


def test_count_321_examples():
    assert count_321(perm(3, 2, 1)) == 1
    assert count_321(perm(3, 2, 1, 4)) == 1
    assert count_321(perm(4, 3, 2, 1)) == 4
    assert count_321(perm()) == 0
    assert count_321(perm(1)) == 0


def test_counters_agree_exhaustively_up_to_6():
    for n in range(7):
        for vals in itertools.permutations(range(1, n + 1)):
            p = Permutation(vals)
            naive = count_pattern(p, PATTERN_321)
            assert count_321(p) == naive
            assert count_321_fenwick(p) == naive


def test_counters_agree_on_random_sample():
    # 10^4 random permutations of length <= 9
    rng = random.Random(321321)
    for _ in range(10_000):
        vals = list(range(1, rng.randint(0, 9) + 1))
        rng.shuffle(vals)
        p = Permutation(tuple(vals))
        naive = count_pattern(p, PATTERN_321)
        assert count_321(p) == naive
        assert count_321_fenwick(p) == naive


@given(perms_up_to(9))
def test_counters_agree_property(values):
    p = Permutation(tuple(values))
    assert count_321(p) == count_pattern(p, PATTERN_321) == count_321_fenwick(p)


def test_reverse_identity_counts_all_triples():
    from permpat.catalan import binomial

    for n in range(31):
        p = Permutation(tuple(range(n, 0, -1)))
        assert count_321(p) == binomial(n, 3)


def reverse_complement(values):
    n = len(values)
    return tuple(n + 1 - v for v in reversed(values))


def test_reverse_complement_symmetry_exhaustive():
    patterns = [(3, 2, 1), (1, 3, 2)]
    for n in range(7):
        for vals in itertools.permutations(range(1, n + 1)):
            for pat in patterns:
                assert count_occurrences(vals, pat) == count_occurrences(
                    reverse_complement(vals), reverse_complement(pat)
                )


@settings(deadline=None)
@given(perms_up_to(7), perms_up_to(4, min_n=1))
def test_reverse_complement_symmetry_property(values, pattern):
    assert count_occurrences(tuple(values), tuple(pattern)) == count_occurrences(
        reverse_complement(values), reverse_complement(pattern)
    )


# --- find_unique_321 ----------------------------------------------------


def test_find_unique_on_3214():
    occ = find_unique_321(perm(3, 2, 1, 4))
    assert occ.positions == (1, 2, 3)
    assert occ.values == (3, 2, 1)


def test_find_unique_error_cases():
    with pytest.raises(NoOccurrence):
        find_unique_321(perm(1, 2, 3))
    with pytest.raises(MultipleOccurrences):
        find_unique_321(perm(4, 3, 2, 1))
    # both failure modes are catchable under the common class
    with pytest.raises(NoUnique321):
        find_unique_321(perm(1, 2, 3))
    with pytest.raises(NoUnique321):
        find_unique_321(perm(4, 3, 2, 1))


def test_find_unique_succeeds_exactly_when_count_is_one():
    for n in range(7):
        for vals in itertools.permutations(range(1, n + 1)):
            p = Permutation(vals)
            if count_321(p) == 1:
                occ = find_unique_321(p)
                i, j, k = occ.positions
                c, b, a = occ.values
                assert i < j < k
                assert c > b > a
                assert (vals[i - 1], vals[j - 1], vals[k - 1]) == (c, b, a)
            else:
                with pytest.raises(NoUnique321):
                    find_unique_321(p)


def triple_scan(values):
    """All 321 occurrences as 0-based position triples, by brute force."""
    return [
        (i, j, k)
        for i, j, k in itertools.combinations(range(len(values)), 3)
        if values[i] > values[j] > values[k]
    ]


def check_against_triple_scan(values):
    found = triple_scan(values)
    p = Permutation(tuple(values))
    if not found:
        with pytest.raises(NoOccurrence):
            find_unique_321(p)
    elif len(found) > 1:
        with pytest.raises(MultipleOccurrences):
            find_unique_321(p)
    else:
        i, j, k = found[0]
        assert find_unique_321(p) == Occurrence321(
            (i + 1, j + 1, k + 1), (values[i], values[j], values[k])
        )


def test_find_unique_matches_triple_scan_exhaustively():
    for n in range(8):
        for vals in itertools.permutations(range(1, n + 1)):
            check_against_triple_scan(vals)


def two_run_avoider(rng, m):
    """A random merge of two increasing runs; no 321 fits in two runs."""
    high = set(rng.sample(range(1, m + 1), rng.randint(0, m)))
    slots = set(rng.sample(range(m), len(high)))
    high_values = iter(sorted(high))
    low_values = iter(sorted(set(range(1, m + 1)) - high))
    return [next(high_values) if pos in slots else next(low_values) for pos in range(m)]


def planted_one_321(rng, n):
    """p1 c p2 b p3 a p4 built from two random avoiders, as in compose."""
    b = rng.randint(2, n - 1)
    while (left := two_run_avoider(rng, b))[-1] == b:
        pass
    while (right := two_run_avoider(rng, n - b + 1))[0] == 1:
        pass
    right = [v + b - 1 for v in right]
    p, q = left.index(b), right.index(b)
    return left[:p] + right[:1] + left[p + 1 : -1] + [b] + right[1:q] + left[-1:] + right[q + 1 :]


def test_find_unique_matches_triple_scan_on_planted_inputs():
    rng = random.Random(2011)
    for _ in range(200):
        n = rng.randint(3, 40)
        values = planted_one_321(rng, n)
        assert len(triple_scan(values)) == 1
        check_against_triple_scan(values)
        # a random adjacent swap gives inputs with zero, one or several occurrences
        t = rng.randrange(n - 1)
        values[t], values[t + 1] = values[t + 1], values[t]
        check_against_triple_scan(values)


def test_find_unique_is_fast_on_a_large_one_321_input():
    # Both factors are two decreasing blocks: about n^2/8 inversions, on
    # which the former triple scan took about 15 s on a 2-vCPU Xeon VM.
    n, b = 2000, 1000
    half = b // 2
    left = list(range(half + 1, b + 1)) + list(range(1, half + 1))
    m = n - b + 1
    right = [v + b - 1 for v in list(range(m // 2 + 1, m + 1)) + list(range(1, m // 2 + 1))]
    p, q = left.index(b), right.index(b)
    values = left[:p] + right[:1] + left[p + 1 : -1] + [b] + right[1:q] + left[-1:] + right[q + 1 :]
    perm = Permutation(tuple(values))
    start = time.perf_counter()
    occ = find_unique_321(perm)
    elapsed = time.perf_counter() - start
    assert occ.values == (right[0], b, left[-1])
    assert elapsed < 1.0
