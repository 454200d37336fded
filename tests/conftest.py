import contextlib
import math
import os
import signal
from functools import cache

import pytest

from permpat.oracle import brute_distribution, brute_noonan_set
from permpat.perms import PATTERN_321


@pytest.fixture(scope="session")
def naive_row():
    """naive_row(n): [a_0, ..., a_C(n,3)], a_k the n-permutations with exactly k 321s.

    Every k from one naive n! scan per n for the whole session, split over
    two forked children; each test that needs a naive count of 321
    occurrences reads it here.
    """
    return cache(lambda n: brute_distribution(n, PATTERN_321, math.comb(n, 3), threads=2))


@pytest.fixture(scope="session")
def naive_noonan_set():
    """naive_noonan_set(n): brute_noonan_set(n) as a tuple, one naive n! scan per n for the session.

    Each test that walks the naive one-321 permutations reads them here;
    the tests of brute_noonan_set itself call it.
    """
    return cache(lambda n: tuple(brute_noonan_set(n)))


@pytest.fixture
def forked(monkeypatch):
    """The pids os.fork returns to this process during the test, in order."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


@contextlib.contextmanager
def _fails_after(seconds, what):
    # SIGALRM turns a hang into a test failure instead of a stuck run.
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


@pytest.fixture
def fails_after():
    """fails_after(seconds, what): a context that fails the test if its body runs past `seconds`."""
    return _fails_after
