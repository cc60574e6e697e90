"""``explore_cell(workers=)``: pooled walks, seeded walks, loud budgets.

The randomized equivalence claim (pooled walks == in-process walks across
cells and worker counts) lives in
``tests/properties/test_explore_sharding_properties.py``; this module
pins the same behaviour on small fixed cells.
"""

import pytest

from repro.explore import engine
from repro.explore.engine import explore_cell

BASE_N2 = "paper:base:none:n2p1q1:s0"
CT_N2 = "paper:ct:none:n2p1q1:s0"
CT_N3 = "paper:ct:none:n3p1q1:s0"


class TestShardedDfs:
    def test_budget_exhaustion_is_loud(self):
        starved = explore_cell(CT_N3, mode="dfs", max_runs=3)
        assert starved.budget_exhausted is True
        assert starved.exhaustive is False

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            explore_cell(BASE_N2, mode="bfs")


class TestShardedRandom:
    def test_bit_identical_to_serial(self):
        serial = explore_cell(CT_N2, mode="random", schedules=10, seed=5)
        pooled = explore_cell(
            CT_N2, mode="random", schedules=10, seed=5, workers=2
        )
        assert pooled.digests == serial.digests
        assert pooled.findings == serial.findings
        assert pooled.schedules_run == serial.schedules_run

    def test_walk_i_runs_schedule_rw_seed_plus_i(self, monkeypatch):
        # Healthy walks of one cell share a digest, so read the schedules
        # the search hands to replay_cell rather than what comes back.
        ran = []
        replay = engine.replay_cell

        def recording_replay(item):
            ran.append(item[1])
            return replay(item)

        monkeypatch.setattr(engine, "replay_cell", recording_replay)
        result = explore_cell(
            CT_N2, mode="random", schedules=4, seed=3, workers=1
        )
        assert ran == ["rw:3", "rw:4", "rw:5", "rw:6"]
        assert result.schedules_run == 1 + 4

    def test_findings_are_the_serial_ones(self, monkeypatch):
        # Healthy protocols give the walks nothing to find, so plant an
        # order-sensitivity: a digest that also sees the trace hash.
        # (Forked workers inherit the patch.)
        real_digest = engine._digest

        def order_sensitive(cell, classification, obs):
            hashed = engine._trace_hash(obs.runtime)
            return real_digest(cell, classification, obs) + (hashed[0] < "8",)

        monkeypatch.setattr(engine, "_digest", order_sensitive)
        serial = explore_cell(CT_N2, mode="random", schedules=12, seed=3)
        assert serial.findings
        assert sum(f.occurrences for f in serial.findings) > len(serial.findings)
        assert all(f.minimized.startswith("ch:") for f in serial.findings)
        pooled = explore_cell(
            CT_N2, mode="random", schedules=12, seed=3, workers=2
        )
        assert pooled.findings == serial.findings
        assert pooled.digests == serial.digests
        assert pooled.schedules_run == serial.schedules_run
