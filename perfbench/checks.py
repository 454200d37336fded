"""Reference answers and output checkers, independent of the permpat package.

Nothing here imports permpat: every expected answer is computed from first
principles (math.comb, an O(n^2) middle-position 321 counter, and a splice of
p1 c p2 b p3 a p4 written out by hand), so a bug in the package cannot
confirm itself. Each checker takes the program's stdout as text and returns
None when the answer is right, or a one-line reason when it is wrong.
`self_test()` feeds every checker a known-wrong answer and raises when one
is accepted.
"""

from __future__ import annotations

import hashlib
import sys
from functools import lru_cache
from math import comb

# The int-to-str conversion limit the CLI processes run under (Python's
# default). The benchmark lifts its own limit to build reference strings.
CHILD_MAX_STR_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)


def count_321(values: tuple[int, ...]) -> int:
    """Occurrences of 321 in a permutation of 1..n, summed over the middle position.

    With left_j = #{i < j : p_i > p_j}, the number of smaller values to the
    right of position j is (p_j - 1) - (j - left_j), because exactly p_j - 1
    values are smaller than p_j and j - left_j of them lie to its left.
    """
    total = 0
    for j, x in enumerate(values):
        left = 0
        for y in values[:j]:
            if y > x:
                left += 1
        if left:
            total += left * (x - 1 - j + left)
    return total


def is_permutation(values: tuple[int, ...]) -> bool:
    return sorted(values) == list(range(1, len(values) + 1))


def splice(b: int, sigma1: tuple[int, ...], sigma2: tuple[int, ...]) -> tuple[int, ...]:
    """p1 c p2 b p3 a p4 from sigma1 = p1 b p2 a and sigma2 = c p3 b p4."""
    i = sigma1.index(b)
    q = sigma2.index(b)
    return (
        sigma1[:i] + (sigma2[0],) + sigma1[i + 1 : -1] + (b,)
        + sigma2[1:q] + (sigma1[-1],) + sigma2[q + 1 :]
    )


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def noonan(n: int) -> int:
    """n-permutations with exactly one 321: 3 * binom(2n, n+3) / n."""
    return 3 * comb(2 * n, n + 3) // n


def exceeds_child_str_limit(value: int) -> bool:
    """True when the CLI cannot print `value` under the default int-to-str limit."""
    return abs(value) >= 10**CHILD_MAX_STR_DIGITS


def ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- single-answer requests ------------------------------------------------


def check_value(out: str, expected: int) -> str | None:
    if out != f"{expected}\n":
        return f"expected {expected}, got {out[:60]!r}"
    return None


def check_count(perm: tuple[int, ...], out: str) -> str | None:
    return check_value(out, count_321(perm))


def check_noonan(n: int, out: str) -> str | None:
    return check_value(out, noonan(n))


def check_compose(b: int, sigma1: tuple[int, ...], sigma2: tuple[int, ...], out: str) -> str | None:
    expected = " ".join(map(str, splice(b, sigma1, sigma2)))
    if out != expected + "\n":
        return f"compose of b={b} does not match the splice"
    return None


def check_decompose(perm: tuple[int, ...], planted_b: int, out: str) -> str | None:
    """The printed triple must carry the planted b and splice back to `perm`."""
    fields = out.rstrip("\n").split(" | ")
    if len(fields) != 3 or not fields[0].startswith("b="):
        return f"malformed decomposition {out[:60]!r}"
    try:
        b = int(fields[0][2:])
        sigma1 = ints(fields[1].removeprefix("sigma1="))
        sigma2 = ints(fields[2].removeprefix("sigma2="))
    except ValueError:
        return f"malformed decomposition {out[:60]!r}"
    if b != planted_b:
        return f"b={b}, planted b={planted_b}"
    if b not in sigma1 or b not in sigma2 or splice(b, sigma1, sigma2) != perm:
        return "sigma1 and sigma2 do not splice back to the input"
    return None


@lru_cache(maxsize=None)
def formulas_agree(n: int) -> bool:
    """Closed form, Catalan form and convolution give the same one-321 count."""
    cat = catalan
    form = cat(n + 2) - 4 * cat(n + 1) + 3 * cat(n)
    conv = sum((cat(b) - cat(b - 1)) * (cat(n - b + 1) - cat(n - b)) for b in range(2, n))
    return noonan(n) == form == conv


def verify_text(max_n: int) -> str:
    """The `verify` output: one PASS line per n = 3..max_n, then the tally."""
    lines = []
    for n in range(3, max_n + 1):
        if not formulas_agree(n):
            raise AssertionError(f"reference formulas disagree at n={n}")
        lines.append(f"n={n} PASS\n")
    total = max(max_n - 2, 0)
    lines.append(f"{total}/{total} PASS\n")
    return "".join(lines)


def check_verify(max_n: int, out: str, reference: str) -> str | None:
    if out != reference:
        return f"verify --max-n {max_n} output differs from the reference"
    return None


def seq_text(what: str, max_n: int) -> str:
    if what == "catalan":
        return "".join(f"{n} {catalan(n)}\n" for n in range(max_n + 1))
    return "".join(f"{n} {noonan(n)}\n" for n in range(1, max_n + 1))


def check_seq(what: str, max_n: int, out: str) -> str | None:
    if out != seq_text(what, max_n):
        return f"seq --what {what} --max-n {max_n} differs from the reference"
    return None


# -- streams ---------------------------------------------------------------


def _rows(data: bytes) -> list[tuple[int, ...]] | None:
    try:
        return [ints(line) for line in data.decode().splitlines()]
    except (UnicodeDecodeError, ValueError):
        return None


def check_noonan_stream(data: bytes, n: int) -> str | None:
    """Every line a distinct n-permutation with exactly one 321; noonan(n) lines."""
    rows = _rows(data)
    if rows is None:
        return "a line is not a list of integers"
    if len(rows) != noonan(n):
        return f"{len(rows)} lines, expected {noonan(n)}"
    if len(set(rows)) != len(rows):
        return "duplicate lines"
    for values in rows:
        if len(values) != n or not is_permutation(values):
            return f"not a permutation of 1..{n}: {values}"
        if count_321(values) != 1:
            return f"does not contain 321 exactly once: {values}"
    return None


def check_avoider_stream(data: bytes, n: int) -> str | None:
    """Every line a 321-avoiding n-permutation, strictly increasing; C_n lines."""
    rows = _rows(data)
    if rows is None:
        return "a line is not a list of integers"
    if len(rows) != catalan(n):
        return f"{len(rows)} lines, expected {catalan(n)}"
    previous: tuple[int, ...] = ()
    for values in rows:
        if len(values) != n or not is_permutation(values):
            return f"not a permutation of 1..{n}: {values}"
        if values <= previous:
            return f"not in strictly increasing lexicographic order at {values}"
        if count_321(values):
            return f"contains 321: {values}"
        previous = values
    return None


def self_test() -> None:
    """Every checker must reject a known-wrong answer and accept a right one."""

    def rejects(reason: str | None, what: str) -> None:
        if reason is None:
            raise AssertionError(f"checker accepted a wrong answer: {what}")

    def accepts(reason: str | None, what: str) -> None:
        if reason is not None:
            raise AssertionError(f"checker rejected a right answer: {what}: {reason}")

    if count_321((4, 3, 1, 2)) != 2 or count_321((3, 2, 1, 4)) != 1 or count_321((4, 3, 2, 1)) != 4:
        raise AssertionError("reference 321 counter is wrong")
    accepts(check_count((4, 3, 1, 2), "2\n"), "count")
    rejects(check_count((4, 3, 1, 2), "3\n"), "off-by-one count")
    accepts(check_noonan(9, "6188\n"), "noonan 9")
    rejects(check_noonan(9, "6187\n"), "off-by-one noonan")
    accepts(check_decompose((3, 2, 1, 4), 2, "b=2 | sigma1=2 1 | sigma2=3 2 4\n"), "decompose")
    rejects(check_decompose((3, 2, 1, 4), 3, "b=3 | sigma1=2 1 | sigma2=3 2 4\n"), "wrong b")
    rejects(check_decompose((3, 2, 1, 4), 2, "b=2 | sigma1=2 1 | sigma2=4 2 3\n"), "wrong sigma2")
    accepts(check_compose(3, (1, 3, 2), (4, 3), "1 4 3 2\n"), "compose")
    rejects(check_compose(3, (1, 3, 2), (4, 3), "1 4 2 3\n"), "wrong compose")
    accepts(check_seq("catalan", 3, "0 1\n1 1\n2 2\n3 5\n"), "seq")
    rejects(check_seq("catalan", 3, "0 1\n1 1\n2 2\n3 6\n"), "wrong seq")
    reference = verify_text(5)
    accepts(check_verify(5, reference, reference), "verify")
    rejects(check_verify(5, reference.replace("n=4 PASS", "n=4 FAIL"), reference), "verify FAIL line")
    good = b"3 2 1 4\n3 2 4 1\n4 2 1 3\n1 4 3 2\n2 4 3 1\n4 1 3 2\n"
    accepts(check_noonan_stream(good, 4), "noonan stream")
    rejects(check_noonan_stream(good.replace(b"4 1 3 2", b"4 3 1 2"), 4), "line with two 321s")
    rejects(check_noonan_stream(good.replace(b"4 1 3 2", b"3 2 1 4"), 4), "duplicate line")
    rejects(check_noonan_stream(good[: -len(b"4 1 3 2\n")], 4), "missing line")
    avoiders = b"1 2 3\n1 3 2\n2 1 3\n2 3 1\n3 1 2\n"
    accepts(check_avoider_stream(avoiders, 3), "avoider stream")
    rejects(check_avoider_stream(avoiders.replace(b"3 1 2", b"3 2 1"), 3), "line with a 321")
    rejects(check_avoider_stream(b"1 3 2\n1 2 3\n2 1 3\n2 3 1\n3 1 2\n", 3), "out of order")
    if splice(2, (2, 1), (3, 2, 4)) != (3, 2, 1, 4):
        raise AssertionError("reference splice is wrong")
    if exceeds_child_str_limit(10 ** (CHILD_MAX_STR_DIGITS - 1)) or not exceeds_child_str_limit(10 ** CHILD_MAX_STR_DIGITS):
        raise AssertionError("int-to-str limit test is wrong")
