import os
import signal
import subprocess
import sys
import time

import pytest

from permpat.errors import InternalConstraintViolation
from permpat.split import forked_sum, ranges


def test_ranges_cut_the_items_into_contiguous_parts_of_equal_length():
    for start in (0, 1, 2):
        for length in range(31):
            items = range(start, start + length)
            for threads in range(-1, 33):
                parts = ranges(items, threads)
                assert len(parts) == min(max(threads, 1), length)
                assert all(len(part) > 0 and part.step == 1 for part in parts)
                # Concatenated in order they are the items, so they are contiguous.
                assert [v for part in parts for v in part] == list(items)
                assert max(map(len, parts), default=0) - min(map(len, parts), default=0) <= 1


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


def _open_fds():
    return sorted(map(int, os.listdir("/proc/self/fd")))


def test_a_fork_that_raises_closes_its_pipe_and_reaps_the_children_before_it(monkeypatch):
    # The second fork fails as it does under a process limit (EAGAIN).
    real_fork = os.fork
    forks = []

    def fork_once():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(real_fork())
        return forks[-1]

    before = _open_fds()
    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(BlockingIOError):
        forked_sum(len, [range(0, 2), range(2, 5)], "v")
    assert _open_fds() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
def test_a_whole_count_from_a_child_that_then_fails_is_refused(fails_after, monkeypatch, leave, reason):
    # The first child writes its whole count, then leaves by the patched
    # os._exit; the second is still asleep, so it cannot be reported first.
    monkeypatch.setattr(os, "_exit", leave)
    with pytest.raises(InternalConstraintViolation) as info, fails_after(10, "the failing count"):
        forked_sum(_len_or_sleep, [range(0, 5), range(5, 7)], "v")
    message = str(info.value)
    assert message.startswith("the count of v = 0..4 in child process ")
    assert message.endswith(f" failed: {reason}")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_count_past_the_decimal_digit_limit_comes_back_whole():
    # Python refuses to convert an int of more than 4,300 digits to or from
    # decimal text by default; a child's count travels in hex, which has no
    # such limit. The limit is set here, since a CLI run in this process lifts it.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert forked_sum(lambda r: 10**5000 * len(r), ranges(range(4), 2), "v") == 4 * 10**5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_child_error_or_an_empty_pipe_is_refused(fails_after, monkeypatch):
    def count(r):
        if r.start:
            raise KeyError(r.start)
        return 1

    with pytest.raises(InternalConstraintViolation, match=r"v = 2\.\.3 in child .* failed: KeyError: 2$"):
        forked_sum(count, [range(0, 2), range(2, 4)], "v")
    # A child that exits 0 without writing anything, while the other sleeps
    monkeypatch.setattr(os, "write", lambda fd, data: len(data))
    with pytest.raises(InternalConstraintViolation, match=r"v = 0\.\.1 in child .* failed: it sent no count$"):
        with fails_after(10, "the count with an empty pipe"):
            forked_sum(_len_or_sleep, [range(0, 2), range(2, 4)], "v")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_child_is_reported_while_an_earlier_one_still_runs(fails_after):
    def count(r):
        if r.start == 0:
            time.sleep(60)
        raise KeyError(r.start)

    with pytest.raises(InternalConstraintViolation, match=r"v = 3\.\.4 in child .* failed: KeyError: 3$"):
        with fails_after(10, "the count with a sleeping first part"):
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
