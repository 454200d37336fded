"""Acceptance suite: one test per top-level correctness criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts both the exact values and the stated time budget.
"""

import itertools
import random
import time

from permpat.avoiders import enumerate_avoiders, enumerate_sigma1, enumerate_sigma2
from permpat.bijection import Decomposition, compose, decompose
from permpat.catalan import (
    binomial,
    catalan,
    catalan_table,
    noonan_catalan_form,
    noonan_closed,
    noonan_convolution,
)
from permpat.cli import run
from permpat.oracle import count_321_exactly_k, distribution_321
from permpat.perms import PATTERN_321, Permutation, count_321, count_pattern


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_theorem_end_to_end(naive_row):
    # the k = 1 entry of each naive row, split over two forked children
    expected = {3: 1, 4: 6, 5: 27, 6: 110, 7: 429, 8: 1638, 9: 6188}
    start = time.perf_counter()
    mismatches = []
    for n, want in expected.items():
        got = naive_row(n)[1]
        closed = noonan_closed(n)
        if not (got == closed == want):
            mismatches.append((n, got, closed, want))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (theorem end-to-end, n=3..9)",
        not mismatches and elapsed < 120.0,
        f"mismatches={mismatches}, {elapsed:.1f}s of 120s",
    )


def test_state_oracle_confirms_the_closed_forms_to_n_30():
    # criterion 1 carried past the naive scan's reach, and the exactly-two
    # count conjectured by Noonan and Zeilberger and proved by Fulmek (2003)
    def exactly_two(n):
        return (59 * n * n + 117 * n + 100) * binomial(2 * n, n - 4) // (
            2 * n * (2 * n - 1) * (n + 5)
        )

    # a_1 and a_2 off one row per n <= 16, a_1 alone past it; no cap, so
    # the state budget admits each of them
    start = time.perf_counter()
    mismatches = [
        (n, got)
        for n in range(4, 17)
        if (got := distribution_321(n, 2)[1:]) != [noonan_closed(n), exactly_two(n)]
    ]
    mismatches += [
        (n, got)
        for n in [3, *range(17, 21), 30]
        if (got := count_321_exactly_k(n, 1)) != noonan_closed(n)
    ]
    elapsed = time.perf_counter() - start
    _report(
        "state oracle vs. closed forms, k=1 at n=3..20 and 30, k=2 at n=4..16",
        not mismatches and elapsed < 30.0,
        f"mismatches={mismatches}, {elapsed:.1f}s of 30s",
    )


def test_criterion_2_identity_chain():
    start = time.perf_counter()
    bad = [
        n
        for n in range(3, 501)
        if not noonan_convolution(n) == noonan_catalan_form(n) == noonan_closed(n)
    ]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (identity chain, n=3..500)",
        not bad and elapsed < 1.0,
        f"failures={bad}, {elapsed:.2f}s of 1s",
    )


def test_criterion_3_catalan_consistency():
    start = time.perf_counter()
    table = catalan_table(500)
    table_ok = all(table[n] == catalan(n) for n in range(501))
    counts_ok = all(
        sum(1 for _ in enumerate_avoiders(n)) == catalan(n) for n in range(13)
    )
    twelve_ok = sum(1 for _ in enumerate_avoiders(12)) == 208012
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (Catalan consistency)",
        table_ok and counts_ok and twelve_ok and elapsed < 10.0,
        f"table_ok={table_ok}, counts_ok={counts_ok}, C12_ok={twelve_ok}, "
        f"{elapsed:.1f}s of 10s",
    )


def test_criterion_4_bijection_correctness(naive_noonan_set):
    start = time.perf_counter()
    forward_ok = True
    image_ok = True
    for n in range(3, 9):
        by_b = {}
        for p in naive_noonan_set(n):
            d = decompose(p)
            by_b[d.b] = by_b.get(d.b, 0) + 1
            if compose(d) != p:
                forward_ok = False
        for b in range(2, n):
            m = n - b + 1
            want = (catalan(b) - catalan(b - 1)) * (catalan(m) - catalan(m - 1))
            if by_b.get(b, 0) != want:
                image_ok = False
    backward_ok = True
    for n in range(3, 9):
        for b in range(2, n):
            for s1 in enumerate_sigma1(b):
                for s2 in enumerate_sigma2(b, n):
                    d = Decomposition(b=b, sigma1=s1, sigma2=s2, n=n)
                    if decompose(compose(d)) != d:
                        backward_ok = False
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 (bijection round trips, n<=8)",
        forward_ok and backward_ok and image_ok and elapsed < 30.0,
        f"forward={forward_ok}, backward={backward_ok}, image_counts={image_ok}, "
        f"{elapsed:.1f}s of 30s",
    )


def test_criterion_5_counter_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(7):
        for vals in itertools.permutations(range(1, n + 1)):
            p = Permutation(vals)
            if count_321(p) != count_pattern(p, PATTERN_321):
                ok = False
    rng = random.Random(20260808)
    for _ in range(10_000):
        length = rng.randint(0, 50)
        vals = list(range(1, length + 1))
        rng.shuffle(vals)
        p = Permutation(tuple(vals))
        if count_321(p) != count_pattern(p, PATTERN_321):
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 (counter equivalence)",
        ok and elapsed < 10.0,
        f"agree={ok}, {elapsed:.1f}s of 10s",
    )


def test_criterion_6_thread_determinism(capsys):
    cases = [
        ["enumerate", "--family", "avoiders", "--n", "7"],
        ["enumerate", "--family", "sigma1", "--b", "7"],
        ["enumerate", "--family", "sigma2", "--b", "3", "--n", "7"],
        ["enumerate", "--family", "noonan", "--n", "7"],
        ["oracle", "--n", "7"],
        ["oracle", "--n", "7", "--k", "0"],
        ["noonan", "--n", "7", "--method", "oracle"],
        ["noonan", "--n", "7", "--method", "bijection"],
    ]
    differing = []
    for argv in cases:
        # exit status, stdout and stderr of each thread count
        outputs = set()
        for threads in ("1", "3"):
            code = run(argv + ["--threads", threads])
            captured = capsys.readouterr()
            assert code == 0
            outputs.add((code, captured.out, captured.err))
        if len(outputs) != 1:
            differing.append(" ".join(argv))
    _report(
        "criterion 6 (--threads determinism)",
        not differing,
        f"differing={differing or 'none'}",
    )
