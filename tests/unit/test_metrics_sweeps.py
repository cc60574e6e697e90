"""Tests for the metrics extraction and sweep APIs."""

import pytest

from repro.analysis.metrics import (
    LatencySummary,
    resolution_timeline,
    traffic_breakdown,
)
from repro.core.messages import RESOLUTION_KINDS
from repro.workloads.generator import (
    example1_scenario,
    no_exception_case,
    single_exception_case,
)
from repro.workloads.sweeps import (
    full_grid,
    scaling_grid,
    sweep_general,
)


class TestResolutionTimeline:
    def test_phases_ordered(self):
        result = single_exception_case(4).run()
        timeline = resolution_timeline(result.runtime.trace, "A1")
        assert timeline.first_raise == 10.0
        assert timeline.first_commit > timeline.first_raise
        assert timeline.last_handler_done >= timeline.last_handler_start
        assert timeline.detection_to_commit > 0
        assert timeline.last_handler_done >= timeline.first_commit

    def test_no_exception_run_has_empty_timeline(self):
        result = no_exception_case(3).run()
        timeline = resolution_timeline(result.runtime.trace, "A1")
        assert timeline.first_raise is None
        assert timeline.first_commit is None
        assert timeline.detection_to_commit is None
        assert timeline.last_handler_done is None

    def test_filtered_by_action(self):
        result = single_exception_case(3).run()
        other = resolution_timeline(result.runtime.trace, "not-an-action")
        assert other.first_raise is None


class TestTrafficBreakdown:
    def test_kind_totals_match_network_counters(self):
        result = example1_scenario().run()
        breakdown = traffic_breakdown(
            result.runtime.trace, kinds=set(RESOLUTION_KINDS)
        )
        assert breakdown.total() == result.resolution_message_total()
        assert breakdown.by_kind["EXCEPTION"] == 4

    def test_by_sender_and_pair(self):
        result = example1_scenario().run()
        breakdown = traffic_breakdown(
            result.runtime.trace, kinds=set(RESOLUTION_KINDS)
        )
        # O2 resolves: 2 Exceptions + 1 ACK + 2 Commits = 5 sends.
        assert breakdown.by_sender["O2"] == 5
        assert breakdown.by_pair[("O2", "O3")] == 2  # EXCEPTION + COMMIT

    def test_action_filter(self):
        result = example1_scenario().run()
        nothing = traffic_breakdown(result.runtime.trace, action="missing")
        assert nothing.total() == 0


class TestLatencySummary:
    def test_summary_statistics(self):
        summary = LatencySummary.of([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary.count == 5
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        assert summary.p50 == 3.0
        assert summary.p95 == 100.0
        assert summary.mean == pytest.approx(22.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.of([])

class TestSweeps:
    def test_sweep_matches_model_everywhere(self):
        sweep = sweep_general([(3, 1, 0), (4, 2, 1), (5, 1, 3)])
        assert sweep.mismatches() == []
        assert all(p.commit_latency is not None for p in sweep.points)

    def test_rows_shape(self):
        sweep = sweep_general([(3, 1, 0)])
        (row,) = sweep.rows()
        assert row == (3, 1, 0, 6, 6, "OK")

    def test_fit_in_scaling_regime(self):
        sweep = sweep_general(scaling_grid([4, 8, 16]))
        fit = sweep.fit_in_n()
        assert 1.6 < fit.exponent < 2.4

    def test_full_grid_counts(self):
        grid = full_grid([3])
        # P=1: Q in 0..2 (3), P=2: Q in 0..1 (2), P=3: Q=0 (1) -> 6 points.
        assert len(grid) == 6
        assert (3, 3, 0) in grid

    def test_scaling_grid_defaults(self):
        assert scaling_grid([8]) == [(8, 4, 2)]
