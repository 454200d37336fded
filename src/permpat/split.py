"""One way to split a count across processes: a forked child per range.

The bijection count splits its b ranges with it, the naive oracle its first
values; a child inherits the count, so nothing is pickled.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from .errors import InternalConstraintViolation


def forked_sum(count: Callable[[range], int], parts: list[range], what: str) -> int:
    """The sum of count(part) over parts, in one os.fork() child each if two or more.

    One part, or none, is counted here. Otherwise each child writes its
    decimal count, or its error, to a pipe and leaves by os._exit; one that
    fails, exits nonzero, sends no count or dies by a signal raises
    InternalConstraintViolation naming `what` and its range. Every child is
    reaped, killed first if still running, before this returns or raises.
    """
    if len(parts) < 2:
        return sum(map(count, parts))
    children = {}  # pid -> (read end, part), until reaped
    try:
        for part in parts:
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        data = b"%d" % count(part)
                    except BaseException as exc:
                        data = f"{type(exc).__name__}: {exc}".encode()
                    while data:
                        data = data[os.write(wfd, data) :]
                finally:
                    os._exit(0)
            os.close(wfd)
            children[pid] = rfd, part
        total = 0
        for pid, (rfd, part) in list(children.items()):
            data = b"".join(iter(lambda: os.read(rfd, 65536), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(rfd)
            if code or not data.isdigit():
                reason = data.decode(errors="replace") or "it sent no count"
                if code:
                    reason = f"it died by signal {-code}" if code < 0 else f"it exited {code}"
                where = f"{what} = {part.start}..{part.stop - 1} in child process {pid}"
                raise InternalConstraintViolation(f"the count of {where} failed: {reason}")
            total += int(data)
        return total
    finally:
        for pid, (rfd, _) in children.items():
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(rfd)
