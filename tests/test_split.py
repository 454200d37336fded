import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from permpat.errors import InternalConstraintViolation
from permpat.split import forked_sum


def _no_fork():
    raise AssertionError("one part or none must be counted in this process")


def test_one_part_or_none_is_counted_in_this_process(monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    assert forked_sum(len, [], "x") == 0
    assert forked_sum(len, [range(3, 10)], "x") == 7
    # an error is raised here as it is, not wrapped
    with pytest.raises(ZeroDivisionError):
        forked_sum(lambda r: 1 // 0, [range(1)], "x")


def test_two_or_more_parts_are_each_counted_in_a_child():
    parent = os.getpid()
    # Each child reports its own pid; none of them is this process.
    pids = forked_sum(lambda r: os.getpid() if len(r) == 1 else 0, [range(1), range(2)], "x")
    assert pids not in (0, parent)
    assert forked_sum(sum, [range(0, 4), range(4, 9), range(9, 100)], "x") == sum(range(100))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _fails_after(seconds, what):
    # SIGALRM turns a wait on a running child into a test failure.
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"{what} ran past {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _len_or_sleep(r):
    # The part that starts at 0 is counted at once; any other sleeps until killed.
    if r.start:
        time.sleep(60)
    return len(r)


def _kill_self(code):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "leave, reason",
    [
        (_kill_self, f"it died by signal {int(signal.SIGKILL)}"),
        (lambda code, exit=os._exit: exit(3), "it exited 3"),
    ],
    ids=["killed", "exit-3"],
)
def test_a_whole_count_from_a_child_that_then_fails_is_refused(monkeypatch, leave, reason):
    # The first child writes its whole count, then leaves by the patched
    # os._exit; the second is still asleep, so it cannot be reported first.
    monkeypatch.setattr(os, "_exit", leave)
    with pytest.raises(InternalConstraintViolation) as info, _fails_after(10, "the failing count"):
        forked_sum(_len_or_sleep, [range(0, 5), range(5, 7)], "v")
    message = str(info.value)
    assert message.startswith("the count of v = 0..4 in child process ")
    assert message.endswith(f" failed: {reason}")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_error_or_an_empty_pipe_is_refused(monkeypatch):
    def count(r):
        if r.start:
            raise KeyError(r.start)
        return 1

    with pytest.raises(InternalConstraintViolation, match=r"v = 2\.\.3 in child .* failed: KeyError: 2$"):
        forked_sum(count, [range(0, 2), range(2, 4)], "v")
    # A child that exits 0 without writing anything, while the other sleeps
    monkeypatch.setattr(os, "write", lambda fd, data: len(data))
    with pytest.raises(InternalConstraintViolation, match=r"v = 0\.\.1 in child .* failed: it sent no count$"):
        with _fails_after(10, "the count with an empty pipe"):
            forked_sum(_len_or_sleep, [range(0, 2), range(2, 4)], "v")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_child_is_reported_while_an_earlier_one_still_runs():
    def count(r):
        if r.start == 0:
            time.sleep(60)
        raise KeyError(r.start)

    with pytest.raises(InternalConstraintViolation, match=r"v = 3\.\.4 in child .* failed: KeyError: 3$"):
        with _fails_after(10, "the count with a sleeping first part"):
            forked_sum(count, [range(0, 3), range(3, 5)], "v")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_of_the_caller_is_left_to_the_caller():
    # The caller's own child has ended before the split starts, and is not
    # reaped yet; only its own wait() may collect it and its exit code.
    proc = subprocess.Popen([sys.executable, "-c", "import sys; sys.exit(7)"])
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    assert forked_sum(len, [range(0, 2), range(2, 5)], "v") == 5
    assert proc.wait(timeout=10) == 7
