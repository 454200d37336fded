import itertools
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from permpat import avoiders, bijection, cli
from permpat.avoiders import enumerate_avoiders, enumerate_sigma1, enumerate_sigma2
from permpat.bijection import Decomposition, compose
from permpat.catalan import noonan_catalan_form, noonan_closed
from permpat.cli import _parse, build_parser, run
from permpat.errors import InternalConstraintViolation
from permpat.perms import count_occurrences

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture
def invoke(capsys):
    def _invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _invoke


# --- happy paths --------------------------------------------------------


def test_count(invoke):
    assert invoke("count", "--perm", "1 2 3") == (0, "0\n", "")
    assert invoke("count", "--perm", "4 3 2 1") == (0, "4\n", "")
    assert invoke("count", "--perm", "2 4 1 3", "--pattern", "2 1") == (0, "3\n", "")


@pytest.mark.parametrize("pattern", [None, "2 1 3"])
def test_count_matches_the_naive_counter(invoke, pattern):
    # Pattern 321 is answered by the bit-set counter, others by the generic one.
    rng = random.Random(3000 if pattern is None else 213)
    flag = [] if pattern is None else ["--pattern", pattern]
    values = (3, 2, 1) if pattern is None else (2, 1, 3)
    for _ in range(200):
        vals = list(range(1, rng.randint(0, 60) + 1))
        rng.shuffle(vals)
        code, out, err = invoke("count", "--perm", " ".join(map(str, vals)), *flag)
        assert (code, err) == (0, "")
        assert out == f"{count_occurrences(vals, values)}\n"


def test_count_321_is_fast_at_n_3000(fails_after, invoke):
    vals = list(range(1, 3001))
    random.Random(3).shuffle(vals)
    text = " ".join(map(str, vals))

    # The generic counter would run for hours here; the alarm makes it fail.
    with fails_after(10, "count at n = 3000"):
        start = time.perf_counter()
        code, out, _ = invoke("count", "--perm", text)
        elapsed = time.perf_counter() - start
    assert code == 0 and int(out) > 0
    assert elapsed < 1.0, f"count at n = 3000 took {elapsed:.2f} s"


def test_the_longest_perm_arguments_are_answered(fails_after, invoke):
    # One execve argument holds at most 128 KiB, about n = 23,700 values;
    # in decreasing order every triple is a 321.
    n = 23000
    with fails_after(10, f"count of the decreasing permutation at n = {n}"):
        code, out, err = invoke("count", "--perm", " ".join(map(str, range(n, 0, -1))))
    assert (code, out, err) == (0, f"{math.comb(n, 3)}\n", "")
    tail = " ".join(map(str, range(4, n + 1)))
    with fails_after(10, f"decompose at n = {n}"):
        code, out, err = invoke("decompose", "--perm", f"3 2 1 {tail}")
    assert (code, out, err) == (0, f"b=2 | sigma1=2 1 | sigma2=3 2 {tail}\n", "")


def test_count_caps_the_generic_counter(fails_after, invoke):
    # binom(1000, 4) steps would take the generic counter days; the cap
    # refuses before it starts, and the alarm makes a missing cap fail.
    rng = random.Random(2413)

    def perm(n):
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        return " ".join(map(str, vals))

    with fails_after(10, "count of 2 4 1 3 at n = 1000"):
        code, out, err = invoke("count", "--perm", perm(1000), "--pattern", "2 4 1 3")
    assert (code, out) == (1, "")
    assert err.startswith("CapExceeded: a pattern of length 4 in a permutation of length 1000")
    text = perm(400)
    code, out, err = invoke("count", "--perm", text, "--pattern", "2 1 3")
    assert (code, err) == (0, "")
    assert out == f"{count_occurrences([int(v) for v in text.split()], (2, 1, 3))}\n"


def test_cli_import_leaves_heavy_modules_unloaded():
    # -S keeps site and any .pth file from importing these on their own.
    heavy = ("dataclasses", "inspect", "typing", "multiprocessing", "threading", "permpat.oracle")
    code = f"import sys, permpat.cli; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


_LAZY_MODULES = (
    "argparse",
    "permpat.avoiders",
    "permpat.bijection",
    "permpat.oracle",
    "permpat.perms",
    "permpat.split",
)
# Refused before the count loads split; its diagnostic precedes the list.
_REFUSED = ("noonan", "--n", "15", "--method", "bijection")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("seq", "--what", "catalan", "--max-n", "5"), []),
        (("seq", "--what", "noonan", "--max-n", "5"), []),
        (("noonan", "--n", "8"), []),
        (("noonan", "--n", "8", "--method", "catalan"), []),
        (("noonan", "--n", "8", "--method", "convolution"), []),
        (("verify", "--max-n", "8"), []),
        (("count", "--perm", "3 2 1 4"), ["permpat.perms"]),
        (("decompose", "--perm", "3 2 1 4"), ["permpat.bijection", "permpat.perms"]),
        (
            ("compose", "--b", "2", "--sigma1", "2 1", "--sigma2", "3 4 2"),
            ["permpat.bijection", "permpat.perms"],
        ),
        (
            ("enumerate", "--family", "noonan", "--n", "5", "--threads", "2"),
            ["permpat.avoiders", "permpat.bijection", "permpat.perms"],
        ),
        (
            # The forked children generate the blocks; only they load avoiders.
            ("noonan", "--n", "8", "--method", "bijection", "--threads", "2"),
            ["permpat.bijection", "permpat.perms", "permpat.split"],
        ),
        (_REFUSED, ["permpat.bijection", "permpat.perms"]),
    ],
)
def test_commands_load_only_the_modules_they_need(argv, loaded):
    # Each call is a fresh process; -S keeps site and any .pth file from
    # importing modules on their own.
    code = (
        "import sys\n"
        "from permpat.cli import run\n"
        "status = run(sys.argv[1:])\n"
        f"print(sorted(m for m in {_LAZY_MODULES!r} if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True
    )
    refused = "CapExceeded: bijection count at n = 15 exceeds the cap 14\n" if argv == _REFUSED else ""
    assert (result.returncode, result.stderr) == (int(bool(refused)), f"{refused}{loaded}\n")


def test_table_routes_fail_fast_past_their_caps(fails_after, invoke):
    # Without the caps each would run for about a minute; the alarm turns a
    # missing cap into a failure instead of a stuck run.
    for argv in (
        ("seq", "--what", "catalan", "--max-n", "10000"),
        ("seq", "--what", "noonan", "--max-n", "10000"),
        ("verify", "--max-n", "5000"),
    ):
        with fails_after(2, " ".join(argv)):
            code, out, err = invoke(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("CapExceeded: ")


def test_every_cap_refuses_in_one_message_form(fails_after, invoke):
    # One request past each bound, with the value it names and the cap.
    cases = [
        (("enumerate", "--family", "avoiders", "--n", "15"), 15, 14),
        (("enumerate", "--family", "sigma1", "--b", "15"), 15, 14),
        (("enumerate", "--family", "sigma2", "--b", "2", "--n", "16"), 15, 14),
        (("enumerate", "--family", "noonan", "--n", "15"), 15, 14),
        (("noonan", "--n", "15", "--method", "bijection"), 15, 14),
        (("oracle", "--n", "12", "--cap", "11"), 12, 11),
        (("noonan", "--n", "4999", "--method", "catalan"), 5001, 5000),  # needs C_{n+2}
        (("seq", "--what", "catalan", "--max-n", "5001"), 5001, 5000),
        (("seq", "--what", "noonan", "--max-n", "5001"), 5001, 5000),
        (("verify", "--max-n", "2001"), 2001, 2000),
        (("count", "--perm", " ".join(map(str, range(1, 1001))), "--pattern", "1 2 3 4"),
         math.comb(1000, 4), 10**8),
        # just past the cap: without one it prints in about a second
        (("noonan", "--n", "100001"), 100001, 100_000),
    ]
    for argv, value, cap in cases:
        with fails_after(10, " ".join(argv[:4])):
            code, out, err = invoke(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("CapExceeded: ") and f" = {value} exceeds the cap {cap}" in err, err


def test_closed_form_refuses_a_huge_n_at_once():
    # math.comb is one C call that no alarm cuts into, so the request runs
    # in a child process that the timeout kills.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "permpat.cli", "noonan", "--n", "10000000"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("CapExceeded: the closed form at --n = 10000000 exceeds the cap 100000")


def test_cap_lifts_the_closed_form_cap(invoke, monkeypatch):
    monkeypatch.setattr(cli, "_CLOSED_CAP", 5)
    code, out, err = invoke("noonan", "--n", "6")
    assert (code, out) == (1, "") and "at --n = 6 exceeds the cap 5: " in err
    assert invoke("noonan", "--n", "6", "--cap", "6") == (0, "110\n", "")
    assert invoke("noonan", "--n", "5") == (0, "27\n", "")


@pytest.mark.parametrize("method", ["catalan", "convolution"])
def test_table_methods_refuse_a_cap_they_would_ignore(invoke, method):
    # Their bound is the Catalan table's cap, which --cap does not lift.
    assert invoke("noonan", "--n", "3", "--method", method) == (0, "1\n", "")
    refused = invoke("noonan", "--n", "3", "--method", method, "--cap", "1")
    assert refused == (2, "", f"usage error: --cap is not read by --method {method}\n")


def test_noonan_default_method(invoke):
    assert invoke("noonan", "--n", "4") == (0, "6\n", "")
    assert invoke("noonan", "--n", "1") == (0, "0\n", "")


def test_noonan_all_methods_agree(invoke):
    for n in range(3, 9):
        outputs = {
            invoke("noonan", "--n", str(n), "--method", method)[1]
            for method in ("closed", "catalan", "convolution", "oracle", "bijection")
        }
        assert len(outputs) == 1


def test_verify(invoke):
    code, out, err = invoke("verify", "--max-n", "6")
    assert code == 0
    assert out == "n=3 PASS\nn=4 PASS\nn=5 PASS\nn=6 PASS\n4/4 PASS\n"
    assert err == ""


def test_verify_reports_a_formula_that_disagrees(invoke, monkeypatch):
    # One formula, as the CLI sees it, is off by one at n = 7 only.
    monkeypatch.setattr(cli, "noonan_catalan_form", lambda n: noonan_catalan_form(n) + (n == 7))
    code, out, err = invoke("verify", "--max-n", "9")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "n=3 PASS", "n=4 PASS", "n=5 PASS", "n=6 PASS",
        "n=7 FAIL convolution=429 catalan_form=430 closed=429",
        "n=8 PASS", "n=9 PASS", "6/7 PASS",
    ]


def test_enumerate_families(invoke):
    code, out, _ = invoke("enumerate", "--family", "avoiders", "--n", "3")
    assert code == 0
    assert out == "1 2 3\n1 3 2\n2 1 3\n2 3 1\n3 1 2\n"
    code, out, _ = invoke("enumerate", "--family", "sigma1", "--b", "3")
    assert out == "1 3 2\n2 3 1\n3 1 2\n"
    code, out, _ = invoke("enumerate", "--family", "sigma2", "--b", "2", "--n", "4")
    assert out == "3 2 4\n3 4 2\n4 2 3\n"
    code, out, _ = invoke("enumerate", "--family", "noonan", "--n", "4")
    assert out == "3 2 1 4\n3 2 4 1\n4 2 1 3\n1 4 3 2\n2 4 3 1\n4 1 3 2\n"


def test_noonan_prints_counts_beyond_the_default_digit_limit(invoke):
    # noonan(8000) has more digits than Python's default int-to-str limit.
    code, out, err = invoke("noonan", "--n", "8000")
    assert (code, err) == (0, "")
    assert out == f"{noonan_closed(8000)}\n"
    assert len(out) > 4301


def test_enumerate_output_spans_write_batches(invoke):
    code, out, err = invoke("enumerate", "--family", "avoiders", "--n", "12", "--progress")
    assert code == 0
    assert out == "".join(f"{p}\n" for p in enumerate_avoiders(12))
    assert err == "100000 items\n200000 items\n"


def test_decompose(invoke):
    assert invoke("decompose", "--perm", "3 2 1 4") == (
        0,
        "b=2 | sigma1=2 1 | sigma2=3 2 4\n",
        "",
    )


def test_compose(invoke):
    code, out, err = invoke("compose", "--b", "2", "--sigma1", "2 1", "--sigma2", "3 4 2")
    assert (code, out, err) == (0, "3 2 4 1\n", "")


def test_compose_inverts_decompose_byte_for_byte(invoke, naive_noonan_set):
    for n in range(3, 8):
        for p in naive_noonan_set(n):
            _, line, _ = invoke("decompose", "--perm", str(p))
            d = dict(
                field.split("=", 1) for field in line.strip().split(" | ")
            )
            code, out, _ = invoke(
                "compose", "--b", d["b"], "--sigma1", d["sigma1"], "--sigma2", d["sigma2"]
            )
            assert code == 0
            assert out == str(p) + "\n"


def test_enumerate_noonan_matches_oracle(invoke, naive_noonan_set):
    for n in range(3, 8):
        _, out, _ = invoke("enumerate", "--family", "noonan", "--n", str(n))
        expected = sorted(str(p) for p in naive_noonan_set(n))
        assert sorted(out.splitlines()) == expected


def test_noonan_stream_equals_the_checked_public_path(invoke):
    for n in range(3, 11):
        expected = "".join(
            f"{compose(Decomposition(b, s1, s2, n))}\n"
            for b in range(2, n)
            for s1 in enumerate_sigma1(b)
            for s2 in enumerate_sigma2(b, n)
        )
        assert invoke("enumerate", "--family", "noonan", "--n", str(n)) == (0, expected, "")


def test_avoider_stream_lines_are_the_library_strings(invoke):
    cases = [(("avoiders", "--n", str(n)), enumerate_avoiders(n)) for n in range(11)]
    cases += [(("sigma1", "--b", str(b)), enumerate_sigma1(b)) for b in range(2, 11)]
    cases += [
        (("sigma2", "--b", str(b), "--n", str(n)), enumerate_sigma2(b, n))
        for n in range(3, 11)
        for b in range(2, n)
    ]
    for argv, items in cases:
        assert invoke("enumerate", "--family", *argv) == (0, "".join(f"{p}\n" for p in items), "")


def _drop_first(tuples):
    tuples = iter(tuples)
    next(tuples)
    return tuples


def _repeat_first(tuples):
    tuples = iter(tuples)
    first = next(tuples)
    return itertools.chain([first, first], tuples)


@pytest.mark.parametrize("change", [_drop_first, _repeat_first])
@pytest.mark.parametrize(
    "generator, argv",
    [
        ("_avoider_tuples", ("avoiders", "--n", "5")),
        ("_sigma1_tuples", ("sigma1", "--b", "5")),
        ("_sigma2_tuples", ("sigma2", "--b", "2", "--n", "6")),
        ("_noonan_tuples", ("noonan", "--n", "6")),
    ],
)
def test_stream_checks_its_length_at_the_end(invoke, monkeypatch, generator, argv, change):
    # The handler imports its generator on each call, so the patch goes on
    # the module that defines it.
    module = bijection if generator == "_noonan_tuples" else avoiders
    original = getattr(module, generator)
    monkeypatch.setattr(module, generator, lambda *args: change(original(*args)))
    code, out, err = invoke("enumerate", "--family", *argv)
    assert code == 1
    assert out  # the lines went out before the count was known
    assert err.startswith("InternalConstraintViolation: stream emitted")


def test_oracle_subcommand(invoke):
    assert invoke("oracle", "--n", "4")[:2] == (0, "6\n")
    assert invoke("oracle", "--n", "4", "--k", "0")[:2] == (0, "14\n")
    assert invoke("oracle", "--n", "4", "--k", "2")[:2] == (0, "3\n")


def test_seq(invoke):
    assert invoke("seq", "--what", "catalan", "--max-n", "4") == (
        0,
        "0 1\n1 1\n2 2\n3 5\n4 14\n",
        "",
    )
    assert invoke("seq", "--what", "noonan", "--max-n", "5") == (
        0,
        "1 0\n2 0\n3 1\n4 6\n5 27\n",
        "",
    )


# --- determinism under --threads ----------------------------------------


_NAIVE_ROW_AT_THREADS_2 = (
    "from permpat.oracle import brute_distribution\n"
    "from permpat.perms import PATTERN_321\n"
    "print(brute_distribution(7, PATTERN_321, 1, threads=2))\n"
    "status = 0\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "avoiders", "--n", "7"),
        ("enumerate", "--family", "sigma1", "--b", "7"),
        ("enumerate", "--family", "sigma2", "--b", "2", "--n", "8"),
        ("enumerate", "--family", "noonan", "--n", "7"),
        ("oracle", "--n", "7"),
        ("noonan", "--n", "7", "--method", "oracle"),
        ("noonan", "--n", "9", "--method", "bijection"),
        None,  # the naive oracle row, brute_distribution(7, PATTERN_321, 1, threads=2)
    ],
    ids=["avoiders", "sigma1", "sigma2", "noonan", "oracle", "oracle-count", "bijection-count", "naive-row"],
)
def test_threads_2_loads_no_pool_module(invoke, argv):
    # Each call is a fresh process at --threads 2. The bijection count and
    # the naive row fork their children themselves, with a pipe for each
    # result; every other command runs in one process. None may load
    # multiprocessing or threading; -S keeps site and any .pth file from
    # importing them on their own.
    if argv is None:
        call, want = _NAIVE_ROW_AT_THREADS_2, "[429, 429]\n"  # C_7 avoiders, 429 with one 321
    else:
        call, want = "from permpat.cli import run\nstatus = run(sys.argv[1:])\n", invoke(*argv)[1]
        argv = (*argv, "--threads", "2")
    code = (
        f"import sys\n{call}"
        "print([m for m in ('multiprocessing', 'threading') if m in sys.modules], file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *(argv or ())], env=env, capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, want, "[]\n")


def _fail_in(monkeypatch, first=None, second=None):
    """Make bijection._noonan_for_b call `first` for b < 6 and `second` for b >= 6."""
    real = bijection._noonan_for_b

    def patched(b, n):
        act = first if b < 6 else second
        if act is not None:
            act(b)
        return real(b, n)

    # The patch is a module global, so forked children inherit it.
    monkeypatch.setattr(bijection, "_noonan_for_b", patched)


def _raise(b):
    raise ValueError(f"no block {b}")


def _kill_self(b):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep(b):
    time.sleep(60)


def _raise_internal(b):
    raise InternalConstraintViolation(f"the first range failed at b = {b}")


@pytest.mark.parametrize(
    "first, second, diagnostic",
    [
        (None, _raise, "b = 6..10 in child process "),
        (None, _kill_self, "b = 6..10 in child process "),
        (_raise_internal, _sleep, "b = 2..5 in child process "),
        (_sleep, _raise, "b = 6..10 in child process "),
    ],
    ids=["child-raises", "child-killed", "first-raises-second-running", "second-raises-first-running"],
)
def test_split_count_failures_exit_1_and_leave_no_process(fails_after, invoke, monkeypatch, first, second, diagnostic):
    # At n = 11 and two threads one child counts b = 2..5 and another
    # b = 6..10; this process counts nothing. A sleeping child left unkilled
    # would hold the reap past the alarm.
    _fail_in(monkeypatch, first, second)
    with fails_after(10, "the failing split count"):
        code, out, err = invoke("noonan", "--n", "11", "--method", "bijection", "--threads", "2")
    assert (code, out) == (1, "")
    assert err.startswith(f"InternalConstraintViolation: the count of {diagnostic}")
    assert err.count("\n") == 1
    if second is _raise:
        assert err.endswith(" failed: ValueError: no block 6\n")
    if second is _kill_self:
        assert err.endswith(f" failed: it died by signal {int(signal.SIGKILL)}\n")
    if first is _raise_internal:
        assert err.endswith(" failed: InternalConstraintViolation: the first range failed at b = 2\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_oracle_refuses_a_layer_past_its_budget_fast(fails_after, invoke):
    # Without the budget each would run for minutes or run out of memory;
    # the alarm turns a missing budget into a failure instead of a stuck run.
    for n, k, layer in (("1000", "1", 1), ("12", "30", 5), ("1000000", "1", 0)):
        with fails_after(10, f"oracle --n {n} --k {k}"):
            code, out, err = invoke("oracle", "--n", n, "--k", k)
        assert (code, out) == (1, "")
        assert err.startswith("CapExceeded: ") and f" at layer {layer} of {n};" in err, err


def test_oracle_answers_a_huge_k_and_n_12_without_a_cap(fails_after, invoke):
    # k above C(n, 3) needs no row of length k; n = 12 at k = 1 is cheap
    with fails_after(10, "oracle --n 5 --k 1000000000"):
        assert invoke("oracle", "--n", "5", "--k", "1000000000") == (0, "0\n", "")
    with fails_after(10, "oracle --n 12"):
        assert invoke("oracle", "--n", "12") == invoke("noonan", "--n", "12")


def test_progress_goes_to_stderr_only(invoke):
    quiet = invoke("oracle", "--n", "5")
    chatty = invoke("oracle", "--n", "5", "--progress")
    assert chatty[0] == 0
    assert chatty[1] == quiet[1]
    assert "positions done" in chatty[2]


# --- error handling -----------------------------------------------------


def test_domain_errors_exit_1_with_named_diagnostic(invoke):
    cases = [
        (("count", "--perm", "1 1 2"), "NotAPermutation"),
        (("decompose", "--perm", "1 2 3"), "NoOccurrence"),
        (("decompose", "--perm", "4 3 2 1"), "MultipleOccurrences"),
        (("compose", "--b", "2", "--sigma1", "1 2", "--sigma2", "3 2"), "ConstraintViolation"),
        (("enumerate", "--family", "avoiders", "--n", "15"), "CapExceeded"),
        (("enumerate", "--family", "sigma2", "--b", "5", "--n", "5"), "InvalidRange"),
        (("enumerate", "--family", "sigma1", "--b", "1"), "InvalidRange"),
        (("enumerate", "--family", "noonan", "--n", "-3"), "InvalidRange"),
        (("oracle", "--n", "50"), "CapExceeded"),
        (("noonan", "--n", "0"), "InvalidRange"),
        (("noonan", "--n", "0", "--method", "oracle"), "InvalidRange"),
        (("noonan", "--n", "0", "--method", "bijection"), "InvalidRange"),
        (("noonan", "--n", "-3", "--method", "bijection"), "InvalidRange"),
        (("verify", "--max-n", "-3"), "InvalidRange"),
        (("seq", "--what", "catalan", "--max-n", "-1"), "InvalidRange"),
        (("seq", "--what", "noonan", "--max-n", "-1"), "InvalidRange"),
    ]
    for argv, name in cases:
        code, out, err = invoke(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith(name)


def test_decompose_names_the_empty_permutation(invoke):
    assert invoke("decompose", "--perm", "") == (
        1,
        "",
        "NoOccurrence: the empty permutation contains no 321 occurrence\n",
    )


def test_usage_errors_exit_2(invoke):
    # help and usage errors come from argparse
    code, out, _ = invoke("--help")
    assert code == 0 and out.startswith("usage: permpat")
    assert invoke()[0] == 2
    assert invoke("nonsense")[0] == 2
    assert invoke("noonan")[0] == 2  # --n missing
    code, _, err = invoke("noonan", "--n", "4", "--method", "magic")
    assert code == 2 and "invalid choice" in err
    assert invoke("noonan", "--n", "four")[0] == 2
    assert invoke("enumerate", "--family", "sigma1")[0] == 2  # --b missing
    assert invoke("enumerate", "--family", "avoiders")[0] == 2  # --n missing
    code, _, err = invoke("enumerate", "--family", "sigma1", "--b", "3", "--n", "5")
    assert code == 2 and err == "usage error: --n is not read by --family sigma1\n"
    assert invoke("enumerate", "--family", "noonan", "--n", "5", "--b", "3")[0] == 2
    assert invoke("oracle", "--n", "4", "--threads", "0")[0] == 2


# --- the table parse against argparse -----------------------------------

_VALID_ARGV = [
    ("count", "--perm", "3 2 1 4"),
    ("count", "--perm", "2 4 1 3", "--pattern", "2 1"),
    ("count", "--pattern", "2 1", "--perm", "2 4 1 3"),
    ("count", "--perm", ""),
    ("count", "--perm", "-3"),
    ("noonan", "--n", "4"),
    ("noonan", "--n", "-3"),
    ("noonan", "--method", "oracle", "--n", "7"),
    ("noonan", "--n", "7", "--method", "bijection", "--threads", "2", "--cap", "12", "--progress"),
    ("noonan", "--progress", "--cap", "-1", "--threads", "3", "--method", "catalan", "--n", "9"),
    ("verify", "--max-n", "6"),
    ("verify", "--max-n", "-3"),
    ("enumerate", "--family", "avoiders", "--n", "3"),
    ("enumerate", "--family", "sigma1", "--b", "3"),
    ("enumerate", "--n", "4", "--b", "2", "--family", "sigma2"),
    ("enumerate", "--family", "noonan", "--n", "6", "--threads", "1", "--cap", "6", "--progress"),
    ("enumerate", "--family", "sigma1"),
    ("decompose", "--perm", "3 2 1 4"),
    ("compose", "--b", "2", "--sigma1", "2 1", "--sigma2", "3 4 2"),
    ("compose", "--sigma2", "3 4 2", "--sigma1", "2 1", "--b", "2"),
    ("oracle", "--n", "4"),
    ("oracle", "--k", "0", "--n", "4", "--progress", "--threads", "2", "--cap", "11"),
    ("oracle", "--n", "4", "--k", "-2"),
    ("seq", "--what", "catalan", "--max-n", "0"),
    ("seq", "--max-n", "-1", "--what", "noonan"),
]


def _benchmark_argv(monkeypatch):
    # Every request the benchmark sends, on one query seed.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    ops = [workloads.setup_op(), *workloads.stream_ops(), *workloads.verify_ops()]
    return [op.argv for op in ops + workloads.query_ops(1)]


def test_table_parse_equals_argparse_on_valid_requests(monkeypatch):
    for argv in [*map(list, _VALID_ARGV), *_benchmark_argv(monkeypatch)]:
        parsed = _parse(argv)
        assert parsed is not None, argv
        assert vars(parsed) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("-h",),
        ("--help",),
        ("nonsense",),
        ("noonan", "-h"),
        ("noonan", "--n", "4", "--help"),
        ("noonan", "--", "--n", "4"),
        ("noonan", "--n=4"),
        ("noonan", "--me", "oracle", "--n", "4"),
        ("noonan", "--n", "4", "--n", "5"),
        ("oracle", "--n", "4", "--progress", "--progress"),
        ("noonan", "--n"),
        ("noonan",),
        ("compose", "--b", "2", "--sigma1", "2 1"),
        ("noonan", "--n", "-x"),
        ("noonan", "--n", "-3.5"),
        ("count", "--perm", "-h"),
        ("count", "--perm", "-1 2"),
        ("noonan", "--n", "four"),
        ("oracle", "--n", "4", "--threads", "0"),
        ("noonan", "--n", "4", "--method", "magic"),
        ("noonan", "--n", "4", "extra"),
    ],
)
def test_table_parse_leaves_everything_else_to_argparse(argv):
    assert _parse(list(argv)) is None


def test_oracle_n_5_with_cap_11_prints_27(invoke):
    code, out, err = invoke("oracle", "--n", "5", "--cap", "11")
    assert (code, out, err) == (0, "27\n", "")


# --- a reader that closes the pipe ----------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "avoiders", "--n", "12"),
        ("seq", "--what", "catalan", "--max-n", "2000"),
        ("verify", "--max-n", "500"),
    ],
)
def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(argv):
    # After the first line the reader closes its end, as `| head -n 1` does.
    # The command must exit 0 and write nothing to stderr, also in development
    # mode. It runs in a child: on a broken pipe, cli.run puts /dev/null on fd 1.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-X", "dev", "-m", "permpat.cli", *argv]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        first = child.stdout.readline()
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert first.endswith(b"\n")
    assert (child.returncode, err) == (0, b"")
