"""One way to split a count across processes: a forked child per range.

ranges() cuts the items into parts of equal length, give or take one, and
forked_sum() counts two or more parts in a forked child each. The
bijection count splits its b blocks with them, the naive oracle its first
values; a child inherits the count, so nothing is pickled.
"""

from __future__ import annotations

import os
import select
from collections.abc import Callable

from .errors import InternalConstraintViolation


def ranges(items: range, threads: int) -> list[range]:
    """items cut into min(max(threads, 1), len(items)) contiguous parts.

    Part lengths differ by one at most; an empty range gives no part.

    >>> ranges(range(2, 11), 2)
    [range(2, 6), range(6, 11)]
    """
    k = min(max(threads, 1), len(items))
    return [items[len(items) * i // k : len(items) * (i + 1) // k] for i in range(k)]


def forked_sum(count: Callable[[range], int], parts: list[range], what: str) -> int:
    """The sum of count(part) over parts, in one os.fork() child each if two or more.

    One part, or none, is counted here. Otherwise each child writes its
    count in hex, which has no digit limit, or its error, to a pipe and
    leaves by os._exit. The pipes are polled, so whichever child ends
    first is reaped first, by its own pid: one that fails, exits nonzero,
    sends no count or dies by a signal raises InternalConstraintViolation
    naming `what` and its range as soon as it ends, while children forked
    before it may still be counting. Every child is reaped, killed first if
    still running, and every pipe closed before this returns or raises,
    also when a fork fails; children of the caller's own are left alone.
    """
    if len(parts) < 2:
        return sum(map(count, parts))
    children = {}  # read end -> (pid, part, chunks read), until reaped
    try:
        for part in parts:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                try:
                    try:
                        data = b"%x" % count(part)
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
                if code or not data or data.strip(b"0123456789abcdef"):
                    reason = data.decode(errors="replace") or "it sent no count"
                    if code:
                        reason = f"it died by signal {-code}" if code < 0 else f"it exited {code}"
                    where = f"{what} = {part.start}..{part.stop - 1} in child process {pid}"
                    raise InternalConstraintViolation(f"the count of {where} failed: {reason}")
                total += int(data, 16)
        return total
    finally:
        for rfd, (pid, *_) in children.items():
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(rfd)
