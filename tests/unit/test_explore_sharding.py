"""``explore_cell(workers=, cache=)``: pooled walks, cached modes, loud budgets.

The randomized equivalence claims (pooled walks == in-process walks across
cells and worker counts, cache corruption) live in
``tests/properties/test_explore_sharding_properties.py``; this module
pins the same behaviour on small fixed cells.
"""

import pytest

from repro.explore import engine
from repro.explore.cache import DigestCache, context_token
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

    def test_findings_are_the_serial_ones(self, monkeypatch, tmp_path):
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
        with DigestCache(tmp_path / "c.jsonl", context="t") as cache:
            pooled = explore_cell(
                CT_N2, mode="random", schedules=12, seed=3, workers=2,
                cache=cache,
            )
            warm = explore_cell(
                CT_N2, mode="random", schedules=12, seed=3, cache=cache
            )
        assert warm.bounds["cache_hits"] == 12
        for other in (pooled, warm):
            assert other.findings == serial.findings
            assert other.digests == serial.digests
            assert other.schedules_run == serial.schedules_run


class TestCachedModes:
    def test_dfs_result_cache_round_trip(self, tmp_path):
        with DigestCache(tmp_path / "c.jsonl", context="t") as cache:
            cold = explore_cell(CT_N2, mode="dfs", max_runs=6000, cache=cache)
            warm = explore_cell(CT_N2, mode="dfs", max_runs=6000, cache=cache)
        assert "from_cache" not in cold.bounds
        assert warm.bounds["from_cache"] is True
        assert warm.digests == cold.digests
        assert warm.findings == cold.findings
        assert warm.exhaustive == cold.exhaustive
        assert warm.budget_exhausted == cold.budget_exhausted
        assert (warm.schedules_run, warm.pruned) == (
            cold.schedules_run, cold.pruned,
        )

    def test_dfs_cache_keys_include_bounds(self, tmp_path):
        # A different budget must not reuse the cached tree.
        with DigestCache(tmp_path / "c.jsonl", context="t") as cache:
            explore_cell(CT_N2, mode="dfs", max_runs=6000, cache=cache)
            other = explore_cell(CT_N2, mode="dfs", max_runs=5999, cache=cache)
        assert "from_cache" not in other.bounds

    def test_delay_result_cache_round_trip(self, tmp_path):
        with DigestCache(tmp_path / "c.jsonl", context="t") as cache:
            cold = explore_cell(
                CT_N2, mode="delay", bound=1, max_runs=2000, cache=cache
            )
            warm = explore_cell(
                CT_N2, mode="delay", bound=1, max_runs=2000, cache=cache
            )
        assert warm.bounds["from_cache"] is True
        assert warm.digests == cold.digests
        assert warm.exhaustive == cold.exhaustive

    def test_random_walk_cache_hits_per_seed(self, tmp_path):
        with DigestCache(tmp_path / "c.jsonl", context="t") as cache:
            cold = explore_cell(
                CT_N2, mode="random", schedules=6, seed=0, cache=cache
            )
            assert cold.bounds["cache_misses"] == 6
            warm = explore_cell(
                CT_N2, mode="random", schedules=6, seed=0, cache=cache
            )
        assert warm.bounds["cache_hits"] == 6
        assert warm.bounds["cache_misses"] == 0
        assert warm.digests == cold.digests
        assert warm.findings == cold.findings

    def test_partial_overlap_fills_only_the_gap(self, tmp_path):
        with DigestCache(tmp_path / "c.jsonl", context="t") as cache:
            explore_cell(
                CT_N2, mode="random", schedules=4, seed=0, cache=cache
            )
            shifted = explore_cell(
                CT_N2, mode="random", schedules=6, seed=2, cache=cache
            )
        # seeds 2,3 hit; 4..7 miss
        assert shifted.bounds["cache_hits"] == 2
        assert shifted.bounds["cache_misses"] == 4
        plain = explore_cell(CT_N2, mode="random", schedules=6, seed=2)
        assert shifted.digests == plain.digests
        assert shifted.findings == plain.findings


def test_context_token_of_repro_package_is_stable():
    import repro

    root = repro.__path__[0]
    assert context_token(root) == context_token(root)
