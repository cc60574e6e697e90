"""parallel_map: identity with the serial sweep, in-process fallback, errors."""

import multiprocessing
import os
from functools import partial

import pytest

from repro.simkernel.trace import TraceLevel
from repro.workloads.parallel import ParallelMapError, parallel_map
from repro.workloads.sweeps import (
    full_grid,
    measure_point,
    scaling_grid,
    sweep_general,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")

GRID = scaling_grid([4, 6, 8]) + full_grid([5])


def _measure(point, **kwargs):
    """``measure_point`` as the one-argument function a pool maps."""
    n, p, q = point
    return measure_point(n, p, q, **kwargs)


def _measure_in(point):
    return os.getpid(), _measure(point)


class TestIdentityWithSerial:
    @needs_fork
    def test_points_bit_identical_to_serial(self):
        serial = sweep_general(GRID, seed=7)
        pooled = parallel_map(partial(_measure, seed=7), GRID, workers=2)
        assert pooled == serial.points

    @needs_fork
    def test_identical_under_counts_tracing(self):
        serial = sweep_general(GRID, seed=1, trace_level=TraceLevel.COUNTS)
        pooled = parallel_map(
            partial(_measure, seed=1, trace_level=TraceLevel.COUNTS),
            GRID, workers=2,
        )
        assert pooled == serial.points


class TestFallbacks:
    def test_single_worker_runs_serially(self):
        ran = parallel_map(_measure_in, GRID, workers=1)
        assert {pid for pid, _ in ran} == {os.getpid()}
        assert [point for _, point in ran] == sweep_general(GRID).points

    def test_single_point_grid_runs_serially(self):
        grid = [(5, 2, 1)]
        [(pid, point)] = parallel_map(_measure_in, grid, workers=4)
        assert pid == os.getpid()
        assert [point] == sweep_general(grid).points

    def test_serial_when_fork_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        ran = parallel_map(_measure_in, GRID[:3], workers=4)
        assert {pid for pid, _ in ran} == {os.getpid()}
        assert [point for _, point in ran] == sweep_general(GRID[:3]).points


def _square(x):
    return x * x


def _explode_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


class TestParallelMap:
    """The one fork-pool map shared by sweeps, campaigns and the explorer."""

    @needs_fork
    def test_preserves_input_order(self):
        items = list(range(37))
        assert parallel_map(_square, items, workers=3) == [
            x * x for x in items
        ]

    @needs_fork
    def test_worker_error_carries_item_and_traceback(self):
        with pytest.raises(ParallelMapError) as excinfo:
            parallel_map(_explode_on_three, [1, 2, 3, 4], workers=2)
        assert excinfo.value.item == 3
        assert "three is right out" in excinfo.value.worker_traceback

    def test_serial_fallback_wraps_errors_identically(self):
        with pytest.raises(ParallelMapError) as excinfo:
            parallel_map(_explode_on_three, [3], workers=1)
        assert excinfo.value.item == 3
        assert "three is right out" in excinfo.value.worker_traceback

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1], workers=0)
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], workers=-1)

    def test_empty_input(self):
        assert parallel_map(_square, []) == []
        assert parallel_map(_square, [], workers=2) == []


class TestProgressAndErrors:
    @needs_fork
    def test_worker_error_carries_point_and_traceback(self):
        bad_grid = [(4, 1, 0), (3, 9, 0)]  # p > n: invalid workload
        with pytest.raises(ParallelMapError) as excinfo:
            parallel_map(_measure, bad_grid, workers=2)
        assert excinfo.value.item == (3, 9, 0)
        assert "ValueError" in excinfo.value.worker_traceback
