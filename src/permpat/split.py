"""One way to split a count across processes: a forked child per range.

The bijection count splits its b ranges with it, the naive oracle its first
values; a child inherits the count, so nothing is pickled.
"""

from __future__ import annotations

import os
import select
from collections.abc import Callable

from .errors import InternalConstraintViolation


def forked_sum(count: Callable[[range], int], parts: list[range], what: str) -> int:
    """The sum of count(part) over parts, in one os.fork() child each if two or more.

    One part, or none, is counted here. Otherwise each child writes its
    decimal count, or its error, to a pipe and leaves by os._exit. The pipes
    are polled, so whichever child ends first is reaped first, by its own
    pid: one that fails, exits nonzero, sends no count or dies by a signal
    raises InternalConstraintViolation naming `what` and its range as soon
    as it ends, while children forked before it may still be counting.
    Every child is reaped, killed first if still running, before this
    returns or raises; children of the caller's own are left alone.
    """
    if len(parts) < 2:
        return sum(map(count, parts))
    children = {}  # read end -> (pid, part, chunks read), until reaped
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
            children[rfd] = pid, part, []
        poller = select.poll()
        for rfd in children:
            poller.register(rfd, select.POLLIN)
        total = 0
        while children:
            for rfd, _ in poller.poll():
                chunk = os.read(rfd, 65536)
                pid, part, chunks = children[rfd]
                if chunk:
                    chunks.append(chunk)
                    continue
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[rfd]
                poller.unregister(rfd)
                os.close(rfd)
                data = b"".join(chunks)
                if code or not data.isdigit():
                    reason = data.decode(errors="replace") or "it sent no count"
                    if code:
                        reason = f"it died by signal {-code}" if code < 0 else f"it exited {code}"
                    where = f"{what} = {part.start}..{part.stop - 1} in child process {pid}"
                    raise InternalConstraintViolation(f"the count of {where} failed: {reason}")
                total += int(data)
        return total
    finally:
        for rfd, (pid, *_) in children.items():
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(rfd)
