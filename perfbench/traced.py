"""Traced run: replay the workloads' inputs in-process and time each layer.

The layers are the package's modules. Every timed call goes through a
module's public functions from outside the package, inside a span (name,
start, end, parent) kept in memory and written to .bench_out at the end.
Two module globals are wrapped from here to see inside a call:
`permpat.bijection.find_unique_321`, to get a child span of `decompose`,
and `permpat.oracle.count_occurrences`, to count the permutations the
oracle scans. `catalan` calls run in a fresh interpreter each, because its
recurrence table is a module-level cache that a CLI user never keeps warm;
the process pool behind `--threads` is measured in the module that owns it.

The replay order is verify, stream, query: the pools fork while the process
is still small, before the stream section holds its 300k items.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from math import factorial
from pathlib import Path

import checks
import workloads
from workloads import AVOIDERS_N, NOONAN_N, ORACLE_N, VERIFY_MAX_N

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from permpat import avoiders, bijection, cli, oracle, perms  # noqa: E402

# permpat re-exports the function catalan() under the submodule's name.
catalan = importlib.import_module("permpat.catalan")

IMPORT_SAMPLES = 7


class Tracer:
    """Spans in memory: [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


class Replay:
    """The replay of each workload's inputs, and the metrics and checks it yields."""

    def __init__(self, tracer: Tracer, spawner, out_dir: Path) -> None:
        self.t = tracer
        self.spawner = spawner
        self.out_dir = out_dir
        self.values: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.scanned = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fresh(self, code: str, *args: str) -> tuple[float, str]:
        """Wall time and stdout of `python -c code args` in a fresh interpreter."""
        wall, _, _, status = self.spawner.measure([sys.executable, "-c", code, *args])
        out = self.spawner.out.read_text()
        self.expect(status == 0, f"fresh interpreter exited {status}: {code[:40]}")
        return wall, out

    # -- verify ------------------------------------------------------------

    def verify_section(self) -> None:
        t = self.t
        for threads in (1, 2):
            with t.span(f"bijection.enumerate_noonan.threads{threads}"):
                count = sum(1 for _ in bijection.enumerate_noonan(NOONAN_N, threads=threads))
            self.expect(count == checks.noonan(NOONAN_N), f"enumerate_noonan gave {count} items")
        self.values["bijection.pool_speedup"] = (
            t.total("bijection.enumerate_noonan.threads1") / t.total("bijection.enumerate_noonan.threads2")
        )

        counted = oracle.count_occurrences

        def counting(values, pattern):
            self.scanned += 1
            return counted(values, pattern)

        oracle.count_occurrences = counting
        try:
            for threads in (1, 2):
                with t.span(f"oracle.brute_count_exactly_k.threads{threads}"):
                    value = oracle.brute_count_exactly_k(ORACLE_N, perms.PATTERN_321, 1, threads=threads)
                self.expect(value == checks.noonan(ORACLE_N), f"oracle gave {value}")
        finally:
            oracle.count_occurrences = counted
        one = t.total("oracle.brute_count_exactly_k.threads1")
        self.values["oracle.perms_per_s"] = factorial(ORACLE_N) / one
        self.values["oracle.pool_speedup"] = one / t.total("oracle.brute_count_exactly_k.threads2")
        # Workers of the threads=2 call count in their own processes.
        self.values["oracle.perms_scanned"] = self.scanned
        self.expect(self.scanned == factorial(ORACLE_N), f"oracle scanned {self.scanned} permutations")

        code = (
            "import sys, time\n"
            "from permpat.catalan import noonan_catalan_form, noonan_closed, noonan_convolution\n"
            "t = time.perf_counter()\n"
            "ok = sum(noonan_convolution(n) == noonan_catalan_form(n) == noonan_closed(n)"
            " for n in range(3, int(sys.argv[1]) + 1))\n"
            "print(time.perf_counter() - t, ok)\n"
        )
        with t.span("catalan.chain"):
            _, out = self.fresh(code, str(VERIFY_MAX_N))
        seconds, ok = out.split()
        self.values["catalan.chain_s"] = float(seconds)
        self.expect(int(ok) == VERIFY_MAX_N - 2, f"catalan chain agreed on {ok} sizes")

    # -- stream ------------------------------------------------------------

    def stream_section(self, pinned: dict[str, str]) -> None:
        t = self.t
        with t.span("avoiders.enumerate_avoiders.batch"):
            avoiding = list(avoiders.enumerate_avoiders(AVOIDERS_N))
        self.values["avoiders.items"] = len(avoiding)
        self.expect(len(avoiding) == checks.catalan(AVOIDERS_N), f"enumerate_avoiders gave {len(avoiding)} items")
        self.values["avoiders.us_per_item"] = 1e6 * t.total("avoiders.enumerate_avoiders.batch") / len(avoiding)

        lefts, rights = {}, {}
        with t.span("avoiders.factors.batch"):
            for b in range(2, NOONAN_N):
                lefts[b] = list(avoiders.enumerate_sigma1(b))
                rights[b] = list(avoiders.enumerate_sigma2(b, NOONAN_N))
        factor_items = sum(map(len, lefts.values())) + sum(map(len, rights.values()))
        self.values["avoiders.factor_us_per_item"] = 1e6 * t.total("avoiders.factors.batch") / factor_items

        triples = [
            bijection.Decomposition(b=b, sigma1=s1, sigma2=s2, n=NOONAN_N)
            for b in range(2, NOONAN_N) for s1 in lefts[b] for s2 in rights[b]
        ]
        with t.span("bijection.compose.batch"):
            noonan = [bijection.compose(d) for d in triples]
        with t.span("bijection.validate_decomposition.batch"):
            for d in triples:
                bijection.validate_decomposition(d)
        self.values["bijection.items"] = len(triples)
        self.expect(len(triples) == checks.noonan(NOONAN_N), f"{len(triples)} triples")
        self.values["bijection.compose_us_per_item"] = 1e6 * t.total("bijection.compose.batch") / len(triples)
        self.values["bijection.validate_us_per_item"] = (
            1e6 * t.total("bijection.validate_decomposition.batch") / len(triples)
        )
        del triples, lefts, rights

        raw = [p.values for p in noonan] + [p.values for p in avoiding]
        with t.span("perms.Permutation.batch"):
            for values in raw:
                perms.Permutation(values)
        self.values["perms.validate_us_per_item"] = 1e6 * t.total("perms.Permutation.batch") / len(raw)
        del raw
        with t.span("perms.count_321.batch"):
            ones = sum(perms.count_321(p) == 1 for p in noonan)
        self.expect(ones == len(noonan), f"count_321 found {ones} one-321 items of {len(noonan)}")
        self.values["perms.count_321_us_per_item"] = 1e6 * t.total("perms.count_321.batch") / len(noonan)

        stream_ops = workloads.stream_ops()
        for op, items in zip(stream_ops, (noonan, avoiding)):
            buffer = io.StringIO()
            with t.span("cli.format.batch"):
                for p in items:
                    buffer.write(str(p) + "\n")
            digest = checks.sha256(buffer.getvalue().encode())
            self.expect(digest == pinned[op.key], f"formatted replay of `{op.key}` differs from the pinned stdout")
        self.values["cli.format_us_per_item"] = 1e6 * t.total("cli.format.batch") / (len(noonan) + len(avoiding))
        del noonan, avoiding, buffer

        with t.span("bijection.enumerate_noonan.batch"):
            collections.deque(bijection.enumerate_noonan(NOONAN_N), maxlen=0)
        library = t.total("bijection.enumerate_noonan.batch") + t.total("avoiders.enumerate_avoiders.batch")
        target = self.out_dir / "cli_run.out"
        for op in stream_ops:
            with open(target, "w") as sink, contextlib.redirect_stdout(sink):
                with t.span("cli.run"):
                    status = cli.run(op.argv)
            digest = checks.sha256(target.read_bytes())
            self.expect(status == 0 and digest == pinned[op.key], f"in-process `{op.key}` differs from the pinned stdout")
        self.values["cli.self_s"] = t.total("cli.run") - library

        pairs = []
        for _ in range(IMPORT_SAMPLES):
            bare, _ = self.fresh("pass")
            loaded, _ = self.fresh("import permpat.cli")
            pairs.append(loaded - bare)
        self.values["cli.import_s"] = statistics.median(pairs)

    # -- query -------------------------------------------------------------

    def query_section(self, seed: int) -> None:
        t = self.t
        pattern = perms.parse_one_line("3 2 1")
        table_code = (
            "import sys, time\n"
            "from permpat.catalan import noonan_catalan_form, noonan_convolution\n"
            "f = {'catalan': noonan_catalan_form, 'convolution': noonan_convolution}[sys.argv[1]]\n"
            "t = time.perf_counter()\n"
            "value = f(int(sys.argv[2]))\n"
            "print(time.perf_counter() - t, value)\n"
        )
        table_ms = []
        for op in workloads.query_ops(seed):
            args = op.inputs
            if op.kind in ("count", "decompose"):
                with t.span("perms.parse_one_line"):
                    perm = perms.parse_one_line(args["text"])
                if op.kind == "count":
                    with t.span("perms.count_pattern"):
                        value = perms.count_pattern(perm, pattern)
                    out = f"{value}\n"
                else:
                    with t.span("bijection.decompose"):
                        d = bijection.decompose(perm)
                    out = f"{bijection.format_decomposition(d)}\n"
            elif op.kind == "compose":
                with t.span("perms.parse_one_line"):
                    sigma1 = perms.parse_one_line(args["sigma1"])
                sigma2 = perms.parse_value_sequence(args["sigma2"])
                d = bijection.Decomposition(b=args["b"], sigma1=sigma1, sigma2=sigma2, n=max(sigma2.values))
                with t.span("bijection.compose"):
                    out = f"{bijection.compose(d)}\n"
            elif op.kind == "noonan-closed":
                with t.span("catalan.noonan_closed"):
                    value = catalan.noonan_closed(args["n"])
                out = f"{value}\n"
            elif op.kind == "noonan-table":
                with t.span("catalan.table"):
                    _, printed = self.fresh(table_code, args["method"], str(args["n"]))
                seconds, value = printed.split()
                table_ms.append(1e3 * float(seconds))
                out = f"{value}\n"
            else:
                # verify and seq requests: their layer is timed by catalan.chain_s.
                continue
            reason = op.check(out.encode())
            self.expect(reason is None, f"replay of {op.kind}: {reason}")

        def ms(name: str) -> list[float]:
            return [1e3 * d for d in t.durations(name)]

        count_ms = ms("perms.count_pattern")
        self.values["perms.count_pattern_ms"] = statistics.median(count_ms)
        self.values["perms.count_pattern_p90_ms"] = statistics.quantiles(count_ms, n=10, method="inclusive")[8]
        self.values["perms.find_unique_321_ms"] = statistics.median(ms("perms.find_unique_321"))
        self.values["perms.parse_ms"] = statistics.median(ms("perms.parse_one_line"))
        self.values["bijection.decompose_ms"] = statistics.median(ms("bijection.decompose"))
        self.values["bijection.compose_ms"] = statistics.median(ms("bijection.compose"))
        self.values["catalan.closed_ms"] = statistics.median(ms("catalan.noonan_closed"))
        self.values["catalan.table_ms"] = statistics.median(table_ms)


def hook_costs(tracer: Tracer) -> tuple[float, float]:
    """Seconds one span and one counting wrapper add to a call, measured on a no-op."""
    calls = 20000

    counter = [0]

    def noop(a, b):
        return None

    def counting(a, b):
        counter[0] += 1
        return noop(a, b)

    def loop(body) -> float:
        start = time.perf_counter()
        body()
        return time.perf_counter() - start

    def bare():
        for _ in range(calls):
            noop(1, 2)

    def spanned():
        for _ in range(calls):
            with tracer.span("calibration"):
                noop(1, 2)

    def wrapped():
        for _ in range(calls):
            counting(1, 2)

    base = statistics.median(loop(bare) for _ in range(5))
    per_span = (statistics.median(loop(spanned) for _ in range(5)) - base) / calls
    per_count = (statistics.median(loop(wrapped) for _ in range(5)) - base) / calls
    return per_span, per_count


def run(seed: int, spawner, out_dir: Path, spans_path: Path, pinned: dict[str, str]) -> tuple[dict, dict, dict]:
    """Replay all three workloads (query from `seed`); (metric values, outcome, report)."""
    tracer = Tracer()
    replay = Replay(tracer, spawner, out_dir)

    find_unique = bijection.find_unique_321

    def traced_find_unique(perm):
        with tracer.span("perms.find_unique_321"):
            return find_unique(perm)

    bijection.find_unique_321 = traced_find_unique
    try:
        with tracer.span("verify"):
            replay.verify_section()
        with tracer.span("stream"):
            replay.stream_section(pinned)
        with tracer.span("query"):
            replay.query_section(seed)
    finally:
        bijection.find_unique_321 = find_unique

    spans = len(tracer.spans)
    per_span, per_count = hook_costs(Tracer())
    replay.values["trace.overhead_s"] = spans * per_span + replay.scanned * per_count

    with open(spans_path, "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, f)
    report = {
        "spans": spans,
        "section_s": {name: tracer.total(name) for name in ("verify", "stream", "query")},
        "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": replay.failures,
    }
    outcome = {
        "correct": not replay.failures,
        "attempted": replay.attempted,
        "failed": len(replay.failures),
    }
    return replay.values, outcome, report
