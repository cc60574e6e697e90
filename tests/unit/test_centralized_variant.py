"""Tests for the centralised resolution variant (Section 4.5 spectrum)."""

import pytest

from repro.analysis import centralized_messages as expected_centralized_messages
from repro.core.variants import run_action
from repro.net.latency import UniformLatency
from repro.workloads.generator import expected_general_messages


class TestMessageLinearity:
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (5, 2), (8, 4), (8, 8)])
    def test_exact_count(self, n, p):
        result = run_action("cd", n, p)
        assert result.messages() == expected_centralized_messages(n, p)
        assert result.all_handled()

    def test_linear_vs_quadratic(self):
        """Centralised is O(N); the decentralised algorithm is O(N²) in
        the concurrent-raisers regime.  For a single raiser the extra
        suspend/status round actually makes the coordinator marginally
        *more* expensive (3N-1 vs 3N-3) — the linearity pays off only
        when exceptions multiply."""
        assert expected_centralized_messages(8, 1) > expected_general_messages(8, 1, 0)
        for n in (4, 8, 16, 32):
            central = expected_centralized_messages(n, n)
            decentral = expected_general_messages(n, n, 0)
            assert central < decentral

    def test_count_latency_independent(self):
        for seed in range(4):
            result = run_action(
                "cd", 6, 3, latency=UniformLatency(0.2, 3.0), seed=seed
            )
            assert result.messages() == expected_centralized_messages(6, 3)


class TestSemantics:
    def test_agreement(self):
        result = run_action("cd", 7, 3)
        assert len(result.handled_exceptions()) == 1

    def test_single_raiser_keeps_its_exception(self):
        result = run_action("cd", 5, 1)
        assert result.handled_exceptions() == {"CD_0"}

    def test_exactly_one_commit_round(self):
        result = run_action("cd", 6, 4)
        commits = result.runtime.trace.by_category("coordinator.commit")
        assert len(commits) == 1
        assert commits[0].subject == "coord"

    def test_validation(self):
        with pytest.raises(ValueError):
            run_action("cd", 3, 0)
        with pytest.raises(ValueError):
            run_action("cd", 3, 4)


class TestSinglePointOfFailure:
    """The paper's implicit argument for decentralisation, measured."""

    def test_coordinator_crash_stalls_everyone(self):
        result = run_action(
            "cd", 4, 2, crashes=[("coord", 10.5)], until=300.0
        )
        assert not result.all_handled()
        assert not result.runtime.trace.by_category("coordinator.commit")

    def test_participant_crash_does_not_matter_here(self):
        """Conversely, the centralised variant shrugs off a *suspended
        participant* crash no better: the coordinator waits for its status
        forever.  Centralisation moves the liveness problem, it does not
        solve it."""
        result = run_action("cd", 4, 1, until=300.0, seed=1)
        assert result.all_handled()  # baseline: works without crashes
