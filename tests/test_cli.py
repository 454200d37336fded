import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from permpat.avoiders import enumerate_avoiders
from permpat.catalan import noonan_closed
from permpat.cli import run
from permpat.oracle import brute_noonan_set
from permpat.perms import count_occurrences

SRC = Path(__file__).resolve().parent.parent / "src"


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
    # Pattern 321 is answered by the Fenwick counter, others by the generic one.
    rng = random.Random(3000 if pattern is None else 213)
    flag = [] if pattern is None else ["--pattern", pattern]
    values = (3, 2, 1) if pattern is None else (2, 1, 3)
    for _ in range(200):
        vals = list(range(1, rng.randint(0, 60) + 1))
        rng.shuffle(vals)
        code, out, err = invoke("count", "--perm", " ".join(map(str, vals)), *flag)
        assert (code, err) == (0, "")
        assert out == f"{count_occurrences(vals, values)}\n"


def test_count_321_is_fast_at_n_3000(invoke):
    vals = list(range(1, 3001))
    random.Random(3).shuffle(vals)
    text = " ".join(map(str, vals))

    # The generic counter would run for hours here; the alarm makes it fail.
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        start = time.perf_counter()
        code, out, _ = invoke("count", "--perm", text)
        elapsed = time.perf_counter() - start
    except TimeoutError:
        pytest.fail("count at n = 3000 ran past 10 s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and int(out) > 0
    assert elapsed < 1.0, f"count at n = 3000 took {elapsed:.2f} s"


def test_cli_import_leaves_heavy_modules_unloaded():
    # -S keeps site and any .pth file from importing these on their own.
    heavy = ("dataclasses", "inspect", "typing", "multiprocessing")
    code = f"import sys, permpat.cli; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


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


def test_compose_inverts_decompose_byte_for_byte(invoke):
    for n in range(3, 8):
        for p in brute_noonan_set(n):
            _, line, _ = invoke("decompose", "--perm", str(p))
            d = dict(
                field.split("=", 1) for field in line.strip().split(" | ")
            )
            code, out, _ = invoke(
                "compose", "--b", d["b"], "--sigma1", d["sigma1"], "--sigma2", d["sigma2"]
            )
            assert code == 0
            assert out == str(p) + "\n"


def test_enumerate_noonan_matches_oracle(invoke):
    for n in range(3, 8):
        _, out, _ = invoke("enumerate", "--family", "noonan", "--n", str(n))
        expected = sorted(str(p) for p in brute_noonan_set(n))
        assert sorted(out.splitlines()) == expected


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


def test_threads_leave_output_identical(invoke):
    cases = [
        ("enumerate", "--family", "avoiders", "--n", "6"),
        ("enumerate", "--family", "noonan", "--n", "6"),
        ("oracle", "--n", "6"),
        ("noonan", "--n", "6", "--method", "oracle"),
        ("noonan", "--n", "6", "--method", "bijection"),
    ]
    for argv in cases:
        base = invoke(*argv)
        threaded = invoke(*argv, "--threads", "3")
        assert threaded == base


def test_progress_goes_to_stderr_only(invoke):
    quiet = invoke("oracle", "--n", "5")
    chatty = invoke("oracle", "--n", "5", "--progress")
    assert chatty[0] == 0
    assert chatty[1] == quiet[1]
    assert "first values done" in chatty[2]


# --- error handling -----------------------------------------------------


def test_domain_errors_exit_1_with_named_diagnostic(invoke):
    cases = [
        (("count", "--perm", "1 1 2"), "NotAPermutation"),
        (("decompose", "--perm", "1 2 3"), "NoOccurrence"),
        (("decompose", "--perm", "4 3 2 1"), "MultipleOccurrences"),
        (("compose", "--b", "2", "--sigma1", "1 2", "--sigma2", "3 2"), "ConstraintViolation"),
        (("enumerate", "--family", "avoiders", "--n", "15"), "CapExceeded"),
        (("enumerate", "--family", "sigma2", "--b", "5", "--n", "5"), "InvalidRange"),
        (("enumerate", "--family", "sigma1", "--b", "1"), "InvalidB"),
        (("oracle", "--n", "12"), "CapExceeded"),
        (("noonan", "--n", "0"), "InvalidRange"),
        (("seq", "--what", "catalan", "--max-n", "-1"), "InvalidRange"),
    ]
    for argv, name in cases:
        code, out, err = invoke(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith(name)


def test_usage_errors_exit_2(invoke):
    assert invoke()[0] == 2
    assert invoke("nonsense")[0] == 2
    assert invoke("noonan")[0] == 2  # --n missing
    assert invoke("noonan", "--n", "4", "--method", "magic")[0] == 2
    assert invoke("noonan", "--n", "four")[0] == 2
    assert invoke("enumerate", "--family", "sigma1")[0] == 2  # --b missing
    assert invoke("enumerate", "--family", "avoiders")[0] == 2  # --n missing
    assert invoke("oracle", "--n", "4", "--threads", "0")[0] == 2


def test_oracle_cap_override_is_allowed_below_the_default(invoke):
    code, out, err = invoke("oracle", "--n", "5", "--cap", "11")
    assert (code, out, err) == (0, "27\n", "")


def test_oracle_warns_before_a_long_run(capsys):
    # the warning is decided from (n, cap) alone, so it can be checked
    # without actually paying for an n=11 run
    import argparse

    from permpat.cli import _oracle_cap

    assert _oracle_cap(argparse.Namespace(n=11, cap=11)) == 11
    assert "minutes" in capsys.readouterr().err
    assert _oracle_cap(argparse.Namespace(n=9, cap=None)) == 10
    assert capsys.readouterr().err == ""
