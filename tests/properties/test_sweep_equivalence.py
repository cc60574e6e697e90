"""Property: sweep results are invariant to execution strategy.

Whatever the grid and seed, (a) ``parallel_map`` over ``measure_point``
must reproduce the serial sweep bit-for-bit, and (b) ``COUNTS`` tracing
must report the same ``(measured, model)`` pairs as ``FULL`` — the trace
level changes what is *remembered*, never what *happens*.
"""

import multiprocessing
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel.trace import TraceLevel
from repro.workloads.parallel import parallel_map
from repro.workloads.sweeps import measure_point, sweep_general

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _measure(point, seed):
    n, p, q = point
    return measure_point(n, p, q, seed=seed)


@st.composite
def grids(draw):
    """Small random grids of legal (N, P, Q) points (P >= 1, P+Q <= N)."""
    size = draw(st.integers(min_value=1, max_value=5))
    points = []
    for _ in range(size):
        n = draw(st.integers(min_value=2, max_value=8))
        p = draw(st.integers(min_value=1, max_value=n))
        q = draw(st.integers(min_value=0, max_value=n - p))
        points.append((n, p, q))
    return points


def count_pairs(result):
    return [(point.measured, point.model) for point in result.points]


class TestTraceLevelEquivalence:
    @given(grid=grids(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_full_and_counts_measure_identically(self, grid, seed):
        full = sweep_general(grid, seed=seed, trace_level=TraceLevel.FULL)
        counts = sweep_general(grid, seed=seed, trace_level=TraceLevel.COUNTS)
        assert count_pairs(full) == count_pairs(counts)
        # And both see reality agreeing with the paper's formula.
        assert not full.mismatches()
        assert not counts.mismatches()


@pytest.mark.skipif(not HAS_FORK, reason="platform lacks fork")
class TestParallelEquivalence:
    @given(
        grid=grids(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        workers=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_parallel_matches_serial_bitwise(self, grid, seed, workers):
        serial = sweep_general(grid, seed=seed)
        pooled = parallel_map(partial(_measure, seed=seed), grid, workers=workers)
        assert pooled == serial.points
