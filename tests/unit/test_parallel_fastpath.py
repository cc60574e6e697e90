"""When ``parallel_map`` forks a pool, and that the pool never outlives it.

Complements ``test_parallel_sweeps.py`` (bit-identity and error paths):
the only things that decide pooling are the worker count, the item count
and whether the platform has ``fork``; and whichever way the call ends,
no worker process is left behind.
"""

import multiprocessing
import os
import time

import pytest

from repro.workloads.parallel import ParallelMapError, parallel_map

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")


def _pid(_item):
    return os.getpid()


def _pid_after_pause(_item):
    time.sleep(0.2)  # long enough for the second worker to take the next item
    return os.getpid()


def _explode_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


class TestSerialFallback:
    @needs_fork
    def test_explicit_workers_always_pool(self):
        # Two trivial items: no size or cost heuristic keeps them in
        # process, and imap's chunks of one put each on its own worker.
        pids = parallel_map(_pid_after_pause, [0, 1], workers=2)
        assert len(set(pids)) == 2
        assert os.getpid() not in pids

    def test_no_start_method_forces_serial(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert set(parallel_map(_pid, range(8), workers=8)) == {os.getpid()}

    def test_single_point_forces_serial(self):
        assert parallel_map(_pid, ["only"], workers=8) == [os.getpid()]


@needs_fork
class TestPoolLifetime:
    def test_no_children_after_return(self):
        assert parallel_map(_pid, range(8), workers=2)
        assert multiprocessing.active_children() == []

    def test_no_children_after_error(self):
        with pytest.raises(ParallelMapError):
            parallel_map(_explode_on_three, range(40), workers=2)
        assert multiprocessing.active_children() == []
