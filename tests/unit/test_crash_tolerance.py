"""Tests for the heartbeat failure detector and crash-tolerant resolution."""

from dataclasses import replace

import pytest

from repro.analysis import crash_tolerant_messages as ct_expected_messages
from repro.core.state import PState
from repro.core.variants import run_action
from repro.net.detector import Heartbeater
from repro.net.failures import FailurePlan
from repro.objects import DistributedObject, Runtime
from repro.objects.runtime import runtime_hook
from tests.unit.test_reliable import queued_labels


class TestHeartbeater:
    def _world(self, names=("a", "b", "c"), **kwargs):
        rt = Runtime()
        objs = {}
        hbs = {}
        for name in names:
            obj = DistributedObject(name)
            rt.register(obj)
            objs[name] = obj
            hbs[name] = Heartbeater(obj, names, **kwargs)
        return rt, objs, hbs

    def test_no_suspicion_among_healthy_peers(self):
        rt, objs, hbs = self._world(interval=1.0, timeout=4.0)
        for hb in hbs.values():
            hb.start()
        rt.run(until=50.0)
        assert all(not hb.suspected for hb in hbs.values())

    def test_crashed_peer_suspected(self):
        rt, objs, hbs = self._world(interval=1.0, timeout=4.0)
        suspects = []
        hbs["a"].on_suspect = suspects.append
        for hb in hbs.values():
            hb.start()
        rt.sim.schedule(10.0, lambda: rt.crash_node("node:c"))
        rt.run(until=30.0)
        assert hbs["a"].is_suspected("c")
        assert hbs["b"].is_suspected("c")
        assert suspects == ["c"]
        assert hbs["a"].alive_peers() == ["b"]

    def test_timeout_must_exceed_interval(self):
        rt = Runtime()
        obj = DistributedObject("x")
        rt.register(obj)
        with pytest.raises(ValueError):
            Heartbeater(obj, ("x", "y"), interval=5.0, timeout=5.0)

    def test_stop_ends_monitoring(self):
        rt, objs, hbs = self._world(interval=1.0, timeout=4.0)
        for hb in hbs.values():
            hb.start()
        rt.run(until=5.0)
        for hb in hbs.values():
            hb.stop()
        rt.sim.schedule(1.0, lambda: rt.crash_node("node:c"))
        rt.run(until=40.0)
        assert not hbs["a"].suspected  # stopped before the crash window

    def test_start_is_idempotent(self):
        rt, objs, hbs = self._world(interval=1.0, timeout=4.0)
        hbs["a"].start()
        hbs["a"].start()
        rt.run(until=3.0)
        # One beat schedule, not two: at most ceil(3/1)+1 sends per peer.
        assert rt.network.sent_by_kind["HEARTBEAT"] <= 2 * 5


    def test_stop_start_does_not_double_heartbeats(self):
        # Regression: restarting a Heartbeater left the old beat/check
        # callbacks scheduled alongside the new ones — doubled heartbeat
        # traffic and timeout checks against a stale last-seen map.  The
        # generation token retires every callback from a previous start().
        rt, objs, hbs = self._world(names=("a", "b"), interval=1.0, timeout=4.0)
        for hb in hbs.values():
            hb.start()
        rt.run(until=5.0)
        baseline = rt.network.sent_by_kind["HEARTBEAT"]
        hbs["a"].stop()
        hbs["a"].start()
        rt.run(until=10.0)
        delta = rt.network.sent_by_kind["HEARTBEAT"] - baseline
        # 5 more seconds at interval 1.0 with 2 peers is ~11 sends; a
        # leaked duplicate schedule on "a" would push this past 15.
        assert delta <= 12
        assert not hbs["a"].suspected and not hbs["b"].suspected

    def test_one_tick_per_member_per_interval(self):
        rt, objs, hbs = self._world(interval=1.0, timeout=4.0)
        labels = queued_labels(rt.sim)
        for hb in hbs.values():
            hb.start()
        rt.run(until=4.5)  # ticks at t = 0 .. 4, each arming the next
        assert sorted(labels) == sorted(f"hb:{name}" for name in "abc" for _ in range(5))

    def test_no_check_timer_in_a_crash_tolerant_run(self):
        labels = []

        def hook(runtime):
            labels.append(queued_labels(runtime.sim))

        with runtime_hook(hook):
            run = run_action(
                "ct", 5, 2, 1, crashes=[("O0004", 10.5)], reliable=True,
                failure_plan=FailurePlan(drop_probability=0.1),
            )
        assert run.all_handled()
        (armed,) = labels
        assert armed.count("hb:O0000") >= 5
        assert not [label for label in armed if label.startswith("hbcheck:")]

    def test_stale_check_after_stop_never_suspects(self):
        # The stop()ed detector's already-scheduled _check must not fire
        # against frozen last-seen timestamps and "suspect" healthy peers.
        rt, objs, hbs = self._world(names=("a", "b"), interval=1.0, timeout=4.0)
        for hb in hbs.values():
            hb.start()
        rt.run(until=3.0)
        hbs["a"].stop()
        rt.run(until=20.0)
        assert not hbs["a"].suspected


class TestCrashTolerantResolution:
    def test_no_crash_agreement(self):
        result = run_action("ct", 5, 2)
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1

    def test_bystander_crash_tolerated(self):
        result = run_action("ct", 5, 2, crashes=[("O0004", 10.5)])
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1

    def test_resolver_crash_reelects(self):
        """The biggest raiser dies after raising — the base algorithm's
        deadlock case; here the next-biggest commits."""
        result = run_action("ct", 5, 5, crashes=[("O0004", 10.2)])
        assert result.all_handled()
        commits = result.runtime.trace.by_category("resolution.commit")
        live_commits = [e for e in commits if e.subject != "O0004"]
        assert len(live_commits) == 1
        assert live_commits[0].subject == "O0003"

    def test_multiple_crashes(self):
        result = run_action("ct", 6, 3, crashes=[("O0002", 10.3), ("O0005", 10.3)])
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1

    def test_crash_before_raise(self):
        result = run_action("ct", 4, 2, crashes=[("O0003", 5.0)])
        assert result.all_handled()

    def test_dead_raisers_exception_still_resolved(self):
        """A raiser that crashes after broadcasting still contributes its
        exception to the resolution (survivors saw it)."""
        result = run_action("ct", 4, 2, crashes=[("O0001", 10.4)])
        assert result.all_handled()
        # Both CT_0 and CT_1 were raised -> siblings resolve to the root.
        assert result.handled_exceptions() == {"UniversalException"}

    def test_sole_raiser_dies_survivor_takes_over(self):
        """If every raiser dies after broadcasting, the biggest surviving
        member resolves — the takeover rule."""
        result = run_action("ct", 4, 1, until=400.0, crashes=[("O0000", 10.2)])
        assert result.all_handled()
        takeovers = result.runtime.trace.by_category("ct.takeover")
        assert len(takeovers) == 1
        assert takeovers[0].subject == "O0003"  # biggest survivor

    def test_victim_crashing_before_raising_means_no_recovery(self):
        """Nothing was raised: survivors must NOT run handlers."""
        result = run_action("ct", 3, 1, until=300.0, crashes=[("O0000", 5.0)])
        assert not result.all_handled()
        assert result.handled_exceptions() == set()

    def test_validation(self):
        with pytest.raises(ValueError):
            run_action("ct", 3, 0)
        with pytest.raises(ValueError):
            run_action("ct", 3, 2, crashes=[("NOPE", 12.0)])

    def test_crashed_object_takes_no_decisions(self):
        result = run_action("ct", 5, 5, crashes=[("O0004", 10.2)])
        victim = result.participants["O0004"]
        assert victim.handled is None
        assert all(e.subject != "O0004"
                   for e in result.runtime.trace.by_category("resolution.handle"))

    @pytest.mark.parametrize("victim", ["O0001", "O0002"])  # resolver, nested
    def test_a_restart_forgets_every_volatile_field(self, victim):
        """A member that crashed after handling, with no WAL to replay,
        restarts holding exactly a fresh member's state: no protocol field
        survives the crash.  Only the restart flag and the rejoin
        announcement's S differ."""
        fresh = run_action("ct", 4, 2, 1, until=5.0).participants[victim]
        result = run_action("ct", 4, 2, 1, crashes=[(victim, 14.0)])
        member = result.participants[victim]
        # The runtime, node, detector and receive table are wiring, not
        # state; the activation count is the run's tally, kept on purpose.
        skip = {
            "runtime", "node", "detector", "_kind_handlers", "restarted",
            "activations",
        }

        def state(member) -> dict:
            fields = {k: v for k, v in vars(member).items() if k not in skip}
            fields["ctx"] = replace(member.ctx, state=PState.NORMAL)
            return fields

        assert member.handled is not None and state(member) != state(fresh)
        result.runtime.restart_node(f"node:{victim}")
        member.restart()
        assert member.restarted and member.ctx.state is PState.SUSPENDED
        assert state(member) == state(fresh)
        assert member.activations == 1 and fresh.activations == 0

    def test_all_raisers_crash_survivor_takes_over(self):
        """Every raiser dies after broadcasting: no raiser is left to
        resolve, so the biggest *surviving* member must take over."""
        result = run_action(
            "ct", 5, 2, until=400.0,
            crashes=[("O0000", 10.5), ("O0001", 10.5)],
        )
        assert result.all_handled()
        assert result.handled_exceptions() == {"UniversalException"}
        takeovers = result.runtime.trace.by_category("ct.takeover")
        assert [e.subject for e in takeovers] == ["O0004"]

    def test_crash_victim_evicted_from_membership_view(self):
        result = run_action("ct", 5, 2, crashes=[("O0004", 10.5)])
        view = result.final_view()
        assert "O0004" not in view
        assert view.version == 2

    def test_false_suspicion_preserves_agreement_and_coverage(self):
        """Latency far beyond the heartbeat timeout makes healthy members
        suspect each other.  Resolvers then commit early (waiving
        'suspects'), or a survivor takes over a live group — commits can
        conflict.  Merge-on-conflict plus full-group commit broadcast must
        still give every member the same verdict, and that verdict must
        cover every raised exception (here: always the root, since both
        CT_0 and CT_1 were raised)."""
        from repro.net.latency import UniformLatency

        suspects = 0
        for seed in range(8):
            result = run_action(
                "ct", 4, 2, seed=seed, latency=UniformLatency(0.5, 9.0),
                hb_interval=2.0, hb_timeout=6.5, until=400.0,
            )
            suspects += len(result.runtime.trace.by_category("detector.suspect"))
            assert result.all_handled(), f"seed {seed} stalled"
            assert result.handled_exceptions() == {"UniversalException"}, (
                f"seed {seed}: {result.handled_exceptions()}"
            )
        assert suspects > 0  # the sweep really exercised false suspicion


class TestFanOutPeerSets:
    """Which broadcast reaches whom once the view has shrunk: Exception and
    Commit go to the whole group (a falsely suspected member must still
    converge, a dead one just never receives), HaveNested / NestedCompleted
    and heartbeats to the unsuspected peers only, nothing to oneself."""

    def test_dead_member_still_gets_exception_and_commit_but_no_nested_news(self):
        # O0003 dies at t=1 and is suspected by everyone before the raise.
        n, p, q = 4, 1, 1
        result = run_action(
            "ct", n, p, q, crashes=[("O0003", 1.0)], raise_at=12.0
        )
        assert result.all_handled()
        sent = result.runtime.network.sent_by_kind
        assert sent["CT_EXCEPTION"] == p * (n - 1)
        assert sent["CT_COMMIT"] == n - 1
        assert sent["CT_HAVE_NESTED"] == q * (n - 2)
        assert sent["CT_NESTED_COMPLETED"] == q * (n - 2)
        assert sent["CT_ACK"] == p * (n - 2)
        sends = result.runtime.trace.by_category("msg.send")
        assert all(e.subject != e.details["dst"] for e in sends)
        suspected = max(
            e.time for e in result.runtime.trace.by_category("detector.suspect")
        )
        assert not [
            e for e in sends
            if e.details["dst"] == "O0003" and e.time > suspected
            and e.details["kind"] not in ("CT_EXCEPTION", "CT_COMMIT")
        ]


class TestNestedAbortion:
    """Section 4.4 increment: suspended members inside nested actions
    abort them before resolution proceeds (CT_HAVE_NESTED /
    CT_NESTED_COMPLETED)."""

    def test_fault_free_counts_match_formula(self):
        result = run_action("ct", 5, 2, 1, abort_duration=1.0)
        assert result.all_handled()
        assert result.messages() == ct_expected_messages(5, 2, 1)

    def test_abort_signal_joins_resolution(self):
        result = run_action("ct", 5, 2, 2, nested_signal=True, abort_duration=1.0)
        assert result.all_handled()
        assert result.handled_exceptions() == {"UniversalException"}
        assert result.messages() == ct_expected_messages(5, 2, 2)
        assert len(result.runtime.trace.by_category("abort.done")) == 2

    def test_a_nested_member_that_takes_over_resolves_its_own_signal(self):
        """The raiser dies after its raise, so the nested member, the one
        survivor, takes over: its verdict joins the raised leaf with its
        own abortion signal, the root, not the leaf alone."""
        result = run_action(
            "ct", 2, 1, 1, nested_signal=True, crashes=[("O0000", 10.2)]
        )
        (takeover,) = result.runtime.trace.by_category("ct.takeover")
        assert takeover.subject == "O0001"
        assert result.handled() == {"O0001": "UniversalException"}

    def test_commit_waits_for_live_nested_member(self):
        # With a slow abortion the resolver must not commit before the
        # nested member reports CT_NESTED_COMPLETED.
        result = run_action("ct", 5, 2, 1, abort_duration=5.0)
        assert result.all_handled()
        done = result.runtime.trace.by_category("abort.done")
        commits = result.runtime.trace.by_category("resolution.commit")
        assert len(done) == 1 and len(commits) == 1
        assert commits[0].time >= done[0].time

    def test_nested_member_crash_during_abortion_is_waived(self):
        """The tentpole case: the nested member dies *mid-abortion*, so
        its CT_NESTED_COMPLETED never arrives.  Suspicion must waive it
        or the resolver deadlocks waiting on a dead member."""
        result = run_action(
            "ct", 5, 2, 1, abort_duration=5.0, until=400.0,
            crashes=[("O0002", 13.0)],
        )
        assert result.all_handled()
        assert result.handled_exceptions() == {"UniversalException"}
        # The victim started aborting but never finished.
        starts = result.runtime.trace.by_category("abort.start")
        assert [e.subject for e in starts] == ["O0002"]
        assert result.runtime.trace.by_category("abort.done") == []
        assert "O0002" not in result.final_view()
