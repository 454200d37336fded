import os
import signal

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
    # Each child writes its whole count, then leaves by the patched os._exit.
    monkeypatch.setattr(os, "_exit", leave)
    with pytest.raises(InternalConstraintViolation) as info:
        forked_sum(len, [range(0, 5), range(5, 7)], "v")
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
    # A child that exits 0 without writing anything
    monkeypatch.setattr(os, "write", lambda fd, data: len(data))
    with pytest.raises(InternalConstraintViolation, match=r"v = 0\.\.1 in child .* failed: it sent no count$"):
        forked_sum(len, [range(0, 2), range(2, 4)], "v")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
