"""Integration tests for the algorithm variants: the Section 4.5 multicast
flavour and the Section 4.4 k-resolver extension."""

import pytest

from repro.analysis import multicast_operations, resolver_group_messages
from repro.core.variants import VARIANTS, run_action
from repro.net.latency import UniformLatency

expected_multicast_operations = VARIANTS["mc"].expected
from repro.workloads.generator import expected_general_messages, general_case


class TestMulticastVariant:
    @pytest.mark.parametrize(
        "n,p,q",
        [(2, 1, 0), (3, 1, 0), (5, 1, 3), (6, 3, 2), (8, 2, 4), (4, 4, 0)],
    )
    def test_operation_count(self, n, p, q):
        result = run_action("mc", n, p, q)
        assert result.messages() == expected_multicast_operations(
            n, p, q
        )
        assert result.all_handled()

    def test_matches_analysis_module(self):
        assert expected_multicast_operations(7, 2, 3) == multicast_operations(
            7, 2, 3
        )

    def test_no_acks_anywhere(self):
        result = run_action("mc", 6, 2, 2)
        kinds = set(result.runtime.network.sent_by_kind)
        assert not any("ACK" in kind for kind in kinds)

    def test_consistent_handling(self):
        result = run_action("mc", 6, 3, 1)
        assert len(result.handled_exceptions()) == 1

    def test_single_resolver_commits(self):
        result = run_action("mc", 5, 3, 0)
        commits = result.runtime.trace.by_category("resolution.commit")
        assert len(commits) == 1
        assert commits[0].subject == "O0002"  # biggest raiser among O0..O2

    def test_crossover_with_unicast_algorithm(self):
        """Light workloads favour unicast; heavy ones favour multicast —
        the crossover sits near 2P + 2Q = N."""
        light = run_action("mc", 8, 1, 0)
        assert light.unicasts() > expected_general_messages(8, 1, 0)
        heavy = run_action("mc", 8, 6, 0)
        assert heavy.unicasts() < expected_general_messages(8, 6, 0)

    def test_robust_under_random_latency(self):
        for seed in range(5):
            result = run_action(
                "mc", 7, 3, 2, latency=UniformLatency(0.2, 3.0), seed=seed
            )
            assert result.all_handled()
            assert len(result.handled_exceptions()) == 1
            assert result.messages() == expected_multicast_operations(
                7, 3, 2
            )

    def test_abortion_signal_joins_resolution(self):
        from repro.exceptions.declarations import declare_exception

        # Run manually with an abort signal on the nested member.
        from repro.core.multicast_variant import MulticastParticipant
        from repro.exceptions import HandlerSet, ResolutionTree, UniversalException
        from repro.objects.naming import canonical_name
        from repro.objects.runtime import Runtime

        leaf = declare_exception("McLeaf")
        signal = declare_exception("McAbortSig")
        tree = ResolutionTree(
            UniversalException,
            {leaf: UniversalException, signal: UniversalException},
        )
        handlers = HandlerSet.completing_all(tree)
        names = tuple(canonical_name(i) for i in range(3))
        runtime = Runtime()
        runtime.membership.create("GA", list(names))
        participants = {}
        for index, name in enumerate(names):
            participants[name] = MulticastParticipant(
                name, "A1", "GA", names, tree, handlers,
                nested_depth=1 if index == 2 else 0,
                abort_signal=signal if index == 2 else None,
            )
            runtime.register(participants[name])
        runtime.sim.schedule(
            1.0, lambda: participants[names[0]].raise_exception(leaf)
        )
        runtime.run()
        handled = {p.handled.name() for p in participants.values()}
        # leaf and the abortion signal are siblings: resolve to the root.
        assert handled == {"UniversalException"}

    def test_invalid_workload_rejected(self):
        with pytest.raises(ValueError):
            run_action("mc", 3, 0)
        with pytest.raises(ValueError):
            run_action("mc", 3, 2, 2)


class TestResolverGroup:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_message_formula(self, k):
        result = general_case(6, p=3, q=1, resolver_group_size=k).run()
        assert result.resolution_message_total() == resolver_group_messages(
            6, 3, 1, k
        )
        assert result.all_finished()

    def test_k_capped_by_raiser_count(self):
        result = general_case(5, p=2, q=0, resolver_group_size=4).run()
        assert result.resolution_message_total() == resolver_group_messages(
            5, 2, 0, 4
        )

    def test_multiple_commits_sent(self):
        result = general_case(6, p=3, q=0, resolver_group_size=2).run()
        commits = result.commit_entries("A1")
        assert sorted(e.subject for e in commits) == ["O0001", "O0002"]

    def test_all_commits_agree(self):
        result = general_case(6, p=3, q=0, resolver_group_size=3).run()
        verdicts = {e.details["exception"] for e in result.commit_entries("A1")}
        assert len(verdicts) == 1

    def test_handlers_agree_despite_duplicates(self):
        for seed in range(5):
            result = general_case(
                7, p=4, q=1, resolver_group_size=3,
                latency=UniformLatency(0.2, 4.0), seed=seed,
            ).run()
            handlers = result.handlers_started("A1")
            assert len(handlers) == 7
            assert len(set(handlers.values())) == 1

    def test_constant_factor_claim(self):
        """Going from k=1 to k=2 adds exactly (N-1) messages — an additive
        constant per redundancy unit, as Section 4.4 claims."""
        for n in (4, 8, 12):
            base = general_case(n, p=2, q=1, resolver_group_size=1).run()
            redundant = general_case(n, p=2, q=1, resolver_group_size=2).run()
            assert (
                redundant.resolution_message_total()
                - base.resolution_message_total()
                == n - 1
            )
