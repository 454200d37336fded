"""Run commands one at a time for run.py and measure each.

Usage: python3 -S spawner.py OUT ERR

Reads one JSON list (a command line) per stdin line. Runs it with stdin
from /dev/null, stdout into a pipe that this process drains into the file
OUT, and stderr into the file ERR. Then writes one line to stdout:
"wall_s cpu_s maxrss_kb exit_code", where cpu_s and maxrss_kb come from
wait4 and cover the child and the processes it waited for.

This is its own small process, started with -S and importing almost
nothing, because Linux starts a child's peak-RSS record at the peak of the
process that spawns it. Spawned from run.py, which holds the workload's
inputs and references, a small CLI call would report run.py's size.

The pipe is enlarged to 1 MiB and drained every DRAIN_EVERY_S while this
process waits on the child's pidfd, rather than blocking in read(). A
reader blocked in read() is woken by every write, and on a small virtual
machine those cross-CPU wake-ups stall the writer for a varying share of
its run; the child's exit still ends the timing at once.
"""

import fcntl
import json
import os
import select
import sys
import time

PIPE_BYTES = 1 << 20
DRAIN_EVERY_S = 0.01


def drain(fd: int, out) -> bool:
    """Copy what the pipe holds into `out`; True once the writer has closed it."""
    while True:
        try:
            chunk = os.read(fd, PIPE_BYTES)
        except BlockingIOError:
            return False
        if not chunk:
            return True
        out.write(chunk)


def main() -> None:
    out_path, err_path = sys.argv[1], sys.argv[2]
    for line in sys.stdin:
        argv = json.loads(line)
        read_end, write_end = os.pipe()
        try:
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except OSError:
            pass  # keep the default size where the system caps it lower
        os.set_blocking(read_end, False)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, write_end, 1),
            (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
            os.close(write_end)
            pidfd = os.pidfd_open(pid)
            while not select.select([pidfd], [], [], DRAIN_EVERY_S)[0]:
                drain(read_end, out)
            wall = time.perf_counter() - start
            os.close(pidfd)
            # Pool workers may outlive the child for a moment and hold the pipe.
            while not drain(read_end, out):
                select.select([read_end], [], [])
            _, status, usage = os.wait4(pid, 0)
        os.close(read_end)
        cpu = usage.ru_utime + usage.ru_stime
        print(wall, cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status), flush=True)


if __name__ == "__main__":
    main()
