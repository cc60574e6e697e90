"""Replay-determinism and reduction-soundness properties of the explorer.

The whole exploration machinery rests on one property: a schedule string
fully determines a run.  DFS pruning reuses digests across branches,
ddmin re-executes candidate schedules, and regression tests pin minimized
counterexamples — all of it is garbage if the same string can produce two
different executions.  So we check bit-identical replay serially, across
``parallel_map`` process-pool workers, and through the rw->ch conversion,
then check that partial-order reduction does not change the set of
reachable digests on a small cell.
"""

import pytest

from repro.explore import ScheduleSpec, explore_cell, replay_cell, run_digest
from repro.workloads.parallel import parallel_map

BASE_CELL = "paper:base:none:n3p1q1:s0"
CT_CELL = "paper:ct:none:n3p1q1:s0"

SCHEDULES = ["fifo", "rw:1", "rw:7", "ch:2=1", "ch:6=1", "rw:1902"]


class TestReplayDeterminism:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_same_schedule_is_bit_identical_serially(self, schedule):
        first = run_digest(CT_CELL, schedule)
        second = run_digest(CT_CELL, schedule)
        assert first.digest == second.digest
        assert first.trace_hash == second.trace_hash
        assert first.choice_points == second.choice_points

    def test_replay_is_bit_identical_across_pool_workers(self):
        items = [(CT_CELL, schedule) for schedule in SCHEDULES]
        serial = [replay_cell(item) for item in items]
        pooled = parallel_map(replay_cell, items, workers=4)
        assert [outcome.digest for outcome in pooled] == [
            outcome.digest for outcome in serial
        ]
        assert [outcome.trace_hash for outcome in pooled] == [
            outcome.trace_hash for outcome in serial
        ]

    @pytest.mark.parametrize("seed", [3, 11, 1902])
    def test_random_walk_converts_to_equivalent_explicit_schedule(self, seed):
        from repro.explore.engine import _run
        from repro.workloads.campaigns import parse_cell_id

        cell = parse_cell_id(CT_CELL)
        walk, controller, _ = _run(cell, ScheduleSpec.random_walk(seed))
        explicit = controller.recorded_spec()
        replay = run_digest(cell, explicit)
        assert replay.digest == walk.digest
        assert replay.trace_hash == walk.trace_hash


class TestReductionSoundness:
    def test_por_does_not_change_the_reachable_digest_set(self):
        # Exhaustive DFS with and without sleep sets / collapse must
        # agree on reachable outcomes (POR only skips *equivalent*
        # interleavings).  The mc cell's choice space is tiny enough to
        # enumerate without reduction.
        cell = "paper:mc:none:n3p1q1:s0"
        with_por = explore_cell(cell, mode="dfs", max_runs=4000, minimize=False)
        without = explore_cell(
            cell, mode="dfs", max_runs=4000, por=False, minimize=False
        )
        assert with_por.exhaustive and without.exhaustive
        assert with_por.digests == without.digests

    @pytest.mark.parametrize(
        "variant", ["base", "mc", "cd", "ct", "cr"]
    )
    def test_n3_fault_free_cells_are_order_invariant(self, variant):
        result = explore_cell(
            f"paper:{variant}:none:n3p1q1:s0",
            mode="dfs",
            max_runs=6000,
            minimize=False,
        )
        assert result.exhaustive, f"{variant}: DFS hit the run budget"
        assert result.ok, f"{variant}: {result.findings}"
