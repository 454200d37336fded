"""The three workloads as lists of CLI operations with their reference checks.

`stream` and `verify` are fixed command lists. `query` is drawn from the
seed: every request type has a fixed number of requests, and the seed draws
only sizes, contents and order. Sizes are stratified (one draw from each of
k equal slices of the size range), so that runs on different seeds do the
same amount of work to within the spread of one slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import checks


@dataclass
class Op:
    """One CLI call: its arguments, how to check its stdout, and its inputs."""

    kind: str
    argv: list[str]
    check: Callable[[bytes], str | None]
    # Inputs of a query request, for the in-process replay of the traced run.
    inputs: dict = field(default_factory=dict)
    # The CLI is expected to exit non-zero here (see contract.json notes).
    known_failure: bool = False
    # Stream and verify outputs are pinned by sha256 in contract.json.
    pinned: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _text(check: Callable[[str], str | None]) -> Callable[[bytes], str | None]:
    def on_bytes(data: bytes) -> str | None:
        try:
            return check(data.decode())
        except UnicodeDecodeError:
            return "stdout is not UTF-8"

    return on_bytes


def setup_op() -> Op:
    return Op(
        "setup",
        ["seq", "--what", "catalan", "--max-n", "0"],
        _text(lambda out: checks.check_seq("catalan", 0, out)),
    )


# Sizes shared with the traced replay.
NOONAN_N = 11
AVOIDERS_N = 12
ORACLE_N = 9
VERIFY_MAX_N = 500


def stream_ops() -> list[Op]:
    return [
        Op(
            "enumerate-noonan",
            ["enumerate", "--family", "noonan", "--n", str(NOONAN_N), "--threads", "1"],
            lambda data: checks.check_noonan_stream(data, NOONAN_N),
            pinned=True,
        ),
        Op(
            "enumerate-avoiders",
            ["enumerate", "--family", "avoiders", "--n", str(AVOIDERS_N), "--threads", "1"],
            lambda data: checks.check_avoider_stream(data, AVOIDERS_N),
            pinned=True,
        ),
    ]


def verify_ops() -> list[Op]:
    reference = checks.verify_text(VERIFY_MAX_N)
    return [
        Op(
            "oracle",
            ["oracle", "--n", str(ORACLE_N), "--threads", "2"],
            _text(lambda out: checks.check_noonan(ORACLE_N, out)),
            pinned=True,
        ),
        Op(
            "noonan-bijection",
            ["noonan", "--n", str(NOONAN_N), "--method", "bijection", "--threads", "2"],
            _text(lambda out: checks.check_noonan(NOONAN_N, out)),
            pinned=True,
        ),
        Op(
            "verify",
            ["verify", "--max-n", str(VERIFY_MAX_N)],
            _text(lambda out: checks.check_verify(VERIFY_MAX_N, out, reference)),
            pinned=True,
        ),
    ]


# -- query -----------------------------------------------------------------


def _stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One uniform draw from each of k equal slices of lo..hi."""
    width = (hi - lo + 1) / k
    return [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(k)]


def _two_run_avoider(rng: random.Random, m: int) -> tuple[int, ...]:
    """A 321-avoiding permutation of 1..m with about m^2/4 inversions.

    It is the union of two increasing subsequences, so it avoids 321: a
    mostly-high value set sits, in increasing order, at mostly-early
    positions, and the remaining values fill the other positions in order.
    """
    k = rng.randint(max(1, m // 3), max(1, 2 * m // 3))
    slack = m // 8
    high = sorted(rng.sample(range(max(1, m - k - slack + 1), m + 1), k))
    early = set(rng.sample(range(min(m, k + slack)), k))
    low = iter(sorted(set(range(1, m + 1)).difference(high)))
    high_iter = iter(high)
    return tuple(next(high_iter) if pos in early else next(low) for pos in range(m))


def _planted_triple(rng: random.Random, n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(b, sigma1, sigma2) with many inversions in both factors."""
    b = rng.randint(max(2, n // 4), min(n - 1, 3 * n // 4))
    while True:
        sigma1 = _two_run_avoider(rng, b)
        if sigma1[-1] != b:
            break
    while True:
        right = _two_run_avoider(rng, n - b + 1)
        if right[0] != 1:
            break
    return b, sigma1, tuple(v + b - 1 for v in right)


def _line(values: tuple[int, ...]) -> str:
    return " ".join(map(str, values))


# Requests per type; 190 in all, so p90 has 19 samples beyond it.
QUERY_MIX = {
    "count": 30,
    "decompose": 30,
    "compose": 30,
    "noonan-closed": 20,
    "noonan-table": 30,
    "verify": 20,
    "seq": 30,
}


def query_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    for n in _stratified(rng, 100, 300, QUERY_MIX["count"]):
        perm = tuple(rng.sample(range(1, n + 1), n))
        text = _line(perm)
        ops.append(Op(
            "count", ["count", "--perm", text],
            _text(lambda out, perm=perm: checks.check_count(perm, out)),
            {"text": text},
        ))

    for n in _stratified(rng, 100, 500, QUERY_MIX["decompose"]):
        b, sigma1, sigma2 = _planted_triple(rng, n)
        perm = checks.splice(b, sigma1, sigma2)
        if checks.count_321(perm) != 1:
            raise AssertionError(f"planted permutation of length {n} is not one-321")
        text = _line(perm)
        ops.append(Op(
            "decompose", ["decompose", "--perm", text],
            _text(lambda out, perm=perm, b=b: checks.check_decompose(perm, b, out)),
            {"text": text},
        ))

    for n in _stratified(rng, 100, 500, QUERY_MIX["compose"]):
        b, sigma1, sigma2 = _planted_triple(rng, n)
        s1, s2 = _line(sigma1), _line(sigma2)
        ops.append(Op(
            "compose", ["compose", "--b", str(b), "--sigma1", s1, "--sigma2", s2],
            _text(lambda out, t=(b, sigma1, sigma2): checks.check_compose(*t, out)),
            {"b": b, "sigma1": s1, "sigma2": s2},
        ))

    for n in _stratified(rng, 3, 12000, QUERY_MIX["noonan-closed"]):
        ops.append(Op(
            "noonan-closed", ["noonan", "--n", str(n)],
            _text(lambda out, n=n: checks.check_noonan(n, out)),
            {"n": n, "method": "closed"},
            known_failure=checks.exceeds_child_str_limit(checks.noonan(n)),
        ))

    table_sizes = _stratified(rng, 100, 1000, QUERY_MIX["noonan-table"])
    for i, n in enumerate(table_sizes):
        method = ("catalan", "convolution")[i % 2]
        ops.append(Op(
            "noonan-table", ["noonan", "--n", str(n), "--method", method],
            _text(lambda out, n=n: checks.check_noonan(n, out)),
            {"n": n, "method": method},
        ))

    for max_n in _stratified(rng, 3, 500, QUERY_MIX["verify"]):
        reference = checks.verify_text(max_n)
        ops.append(Op(
            "verify", ["verify", "--max-n", str(max_n)],
            _text(lambda out, m=max_n, r=reference: checks.check_verify(m, out, r)),
            {"max_n": max_n},
        ))

    for i, max_n in enumerate(_stratified(rng, 1, 1000, QUERY_MIX["seq"])):
        what = ("catalan", "noonan")[i % 2]
        ops.append(Op(
            "seq", ["seq", "--what", what, "--max-n", str(max_n)],
            _text(lambda out, w=what, m=max_n: checks.check_seq(w, m, out)),
            {"what": what, "max_n": max_n},
        ))

    rng.shuffle(ops)
    return ops


def ops_for(workload: str, seed: int) -> list[Op]:
    if workload == "stream":
        return stream_ops()
    if workload == "verify":
        return verify_ops()
    return query_ops(seed)
