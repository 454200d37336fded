"""permpat benchmark: drive the real CLI, check every answer, report metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream|verify|query --seed N \
        --seconds S --trace 0|1

With --trace 0 it runs the workload's fixed work as fresh `permpat`
processes, one after another from this single-threaded process, repeating
the work while another repetition still fits in S seconds. Every answer is
checked against references computed in checks.py, outside the timed
region. With --trace 1 it instead replays the inputs of all three workloads
in-process through the package's public functions and reports per-layer
metrics (see traced.py). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is a
JSON report with machine facts, sample counts and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CALLS = 15


@dataclass
class Result:
    op: workloads.Op
    wall: float
    cpu: float
    rss_kb: int
    returncode: int
    digest: str
    stdout: bytes
    stderr_tail: str


class Spawner:
    """Client of spawner.py, which runs and measures every child process."""

    def __init__(self, out_dir: Path, env: dict[str, str]) -> None:
        self.out = out_dir / "stdout"
        self.err = out_dir / "stderr"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py"), str(self.out), str(self.err)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )

    def measure(self, argv: list[str]) -> tuple[float, float, int, int]:
        """(wall s, cpu s, peak rss KB, exit code) of one command."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 4:
            raise RuntimeError("the spawner process stopped")
        return float(reply[0]), float(reply[1]), int(reply[2]), int(reply[3])

    def run_cli(self, op: workloads.Op) -> Result:
        wall, cpu, rss_kb, code = self.measure([sys.executable, "-m", "permpat.cli", *op.argv])
        stdout = self.out.read_bytes()
        stderr_tail = self.err.read_text(errors="replace").strip().splitlines()[-1:]
        return Result(op, wall, cpu, rss_kb, code, checks.sha256(stdout), stdout, " ".join(stderr_tail)[:200])

    def close(self) -> None:
        """End of input stops the spawner once its current command has ended."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def machine_facts() -> dict:
    cpu_model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others since boot, summed over CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


class Verdicts:
    """Checks each distinct stdout once; repeated byte-identical streams cost one check."""

    def __init__(self, pinned: dict[str, str]) -> None:
        self.pinned = pinned
        self.cache: dict[tuple[str, str], str | None] = {}
        self.failures: list[dict] = []
        self.unexpected = 0

    def judge(self, r: Result) -> bool:
        """True when the operation succeeded; records why it did not."""
        key = (r.op.key, r.digest)
        if r.returncode != 0:
            reason = f"exit status {r.returncode}: {r.stderr_tail}"
        else:
            if key not in self.cache:
                reason = r.op.check(r.stdout)
                if reason is None and r.op.pinned and self.pinned.get(r.op.key) != r.digest:
                    reason = f"stdout sha256 {r.digest} differs from the pinned contract"
                self.cache[key] = reason
            reason = self.cache[key]
        if reason is None:
            return True
        known = r.op.known_failure and r.returncode != 0
        self.unexpected += not known
        self.failures.append({"kind": r.op.kind, "argv": r.op.key[:60], "known": known, "reason": reason[:160]})
        return False


def end_to_end(workload: str, seed: int, seconds: float, spawner: Spawner, contract: dict) -> tuple[dict, dict, dict]:
    """(metric values, outcome, report) of the untraced run.

    The SETUP_CALLS no-work calls behind setup_s are spread over the run,
    at most one per `seconds / SETUP_CALLS` and only between operations, so
    that they sample the same stretch of machine time as the work; any
    still missing are made at the end.
    """
    ops = workloads.ops_for(workload, seed)
    verdicts = Verdicts(contract["sha256"])
    setup: list[Result] = []
    last_setup = 0.0
    setup_every = seconds / SETUP_CALLS

    def run_op(op: workloads.Op) -> Result:
        nonlocal last_setup
        if len(setup) < SETUP_CALLS and time.perf_counter() - last_setup >= setup_every:
            setup.append(spawner.run_cli(workloads.setup_op()))
            last_setup = time.perf_counter()
        return spawner.run_cli(op)

    reps: list[list[Result]] = []
    steal_before = steal_seconds()
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append([run_op(op) for op in ops])
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    steal_after = steal_seconds()
    while len(setup) < SETUP_CALLS:
        setup.append(spawner.run_cli(workloads.setup_op()))
    setup_ok = all([verdicts.judge(r) for r in setup])

    results = [r for rep in reps for r in rep]
    failed = sum(not verdicts.judge(r) for r in results)
    latencies = [r.wall for r in results]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    peak_kb = max(r.rss_kb for r in setup + results)
    values = {
        "setup_s": statistics.median(r.wall for r in setup),
        "wall_s": statistics.median(sum(r.wall for r in rep) for rep in reps),
        "cpu_s": statistics.median(sum(r.cpu for r in rep) for rep in reps),
        "peak_rss_mb": peak_kb / 1024,
        "success_ratio": (len(results) - failed) / len(results),
        "req_p50_s": statistics.median(latencies),
        "req_p90_s": deciles[8],
    }
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(r.wall)
    report = {
        "repetitions": len(reps),
        "rep_wall_s": [sum(r.wall for r in rep) for rep in reps],
        "rep_cpu_s": [sum(r.cpu for r in rep) for rep in reps],
        "steal_s": None if steal_before is None else steal_after - steal_before,
        "requests": len(results),
        "samples_beyond_p90": sum(lat > deciles[8] for lat in latencies),
        "median_s_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "failures": verdicts.failures,
        "unexpected_failures": verdicts.unexpected,
    }
    outcome = {
        "correct": setup_ok and verdicts.unexpected == 0,
        "attempted": len(results),
        "failed": failed,
    }
    return values, outcome, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("stream", "verify", "query"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permpat" / "cli.py").is_file():
        print(f"error: no permpat sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    checks.self_test()
    facts = machine_facts()
    spec = load_json(ROOT / "BENCHMARK.json")
    contract = load_json(HERE / "contract.json")
    env = dict(os.environ, PYTHONPATH=str(SRC))

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        with Spawner(scratch, env) as spawner:
            if args.trace:
                import traced

                spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
                values, outcome, report = traced.run(args.seed, spawner, scratch, spans, contract["sha256"])
                declared = spec["per_layer"]
            else:
                values, outcome, report = end_to_end(args.workload, args.seed, args.seconds, spawner, contract)
                declared = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch)

    if set(values) != {m["name"] for m in declared}:
        print(f"error: measured {sorted(values)}, declared {sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": facts,
                      "notes": contract["notes"].get(args.workload), **report}))
    print(json.dumps({**outcome, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
