"""White-box tests of the resolution engine's state machine.

These drive :class:`ResolutionEngine` with hand-crafted messages to pin
down transitions and edge cases that whole-scenario tests reach only
probabilistically: state sequencing, straggler handling, duplicate and
conflicting commits, context replacement.
"""

import pytest

from repro.core.action import ActionRegistry, CAActionDef
from repro.core.algorithm import ResolutionProtocolError
from repro.core.manager import CAActionManager
from repro.core.messages import (
    KIND_ACK,
    KIND_COMMIT,
    KIND_DONE,
    KIND_EXCEPTION,
    KIND_HAVE_NESTED,
    KIND_NESTED_COMPLETED,
    AckMsg,
    CommitMsg,
    DoneMsg,
    ExceptionMsg,
    HaveNestedMsg,
    NestedCompletedMsg,
)
from repro.core.participant import (
    ActionUnavailableError,
    CAParticipant,
    ProtocolViolation,
)
from repro.core.state import PState
from repro.exceptions import (
    HandlerSet,
    ResolutionTree,
    UniversalException,
    declare_exception,
)
from repro.net.message import Message
from repro.objects.runtime import Runtime

ExcA = declare_exception("EngineExcA")
ExcB = declare_exception("EngineExcB")


def make_world(names=("O1", "O2", "O3"), nested=False, **top):
    tree = ResolutionTree(
        UniversalException,
        {ExcA: UniversalException, ExcB: UniversalException},
    )
    registry = ActionRegistry()
    registry.declare(CAActionDef("A1", tuple(names), tree, **top))
    if nested:
        registry.declare(
            CAActionDef("A2", (names[0],), ResolutionTree(UniversalException),
                        parent="A1")
        )
    manager = CAActionManager(registry)
    runtime = Runtime()
    participants = {}
    for name in names:
        handler_sets = {"A1": HandlerSet.completing_all(tree)}
        if nested:
            handler_sets["A2"] = HandlerSet.completing_all(
                ResolutionTree(UniversalException)
            )
        participant = CAParticipant(name, registry, manager, handler_sets)
        runtime.register(participant)
        participants[name] = participant
    return runtime, manager, participants


def deliver(participant, src, kind, payload):
    participant.receive(Message(src=src, dst=participant.name, kind=kind,
                                payload=payload))


def waits_on(participant):
    """The action whose exit line ``participant`` waits at, if any: the
    one record with its leave-requested flag up."""
    waiting = [r.action_name for r in participant.contexts._stack if r.leaving]
    assert len(waiting) <= 1, waiting
    return waiting[0] if waiting else None


class TestStateTransitions:
    def test_normal_until_involved(self):
        _, _, ps = make_world()
        p = ps["O1"]
        p.enter_action("A1")
        assert p.engine.state() is PState.NORMAL

    def test_raiser_goes_exceptional_then_ready(self):
        runtime, _, ps = make_world(names=("O1", "O2"))
        for p in ps.values():
            p.enter_action("A1")
        ps["O1"].raise_exception(ExcA)
        assert ps["O1"].engine.state() is PState.EXCEPTIONAL
        deliver(ps["O1"], "O2", KIND_ACK, AckMsg("A1", "O2", KIND_EXCEPTION))
        # All ACKs in, nothing nested: READY — and as the only raiser O1
        # resolves immediately, scheduling its own handler.
        ctx = ps["O1"].engine.ctx
        assert ctx.state is PState.READY
        assert ctx.commit is not None
        assert ctx.commit.sender == "O1"

    def test_informed_object_suspends(self):
        _, _, ps = make_world()
        p = ps["O3"]
        p.enter_action("A1")
        deliver(p, "O1", KIND_EXCEPTION, ExceptionMsg("A1", "O1", ExcA))
        assert p.engine.state() is PState.SUSPENDED
        assert p.engine.ctx.le == {"O1": ExcA}

    def test_suspended_never_ready(self):
        _, _, ps = make_world()
        p = ps["O3"]
        p.enter_action("A1")
        deliver(p, "O1", KIND_EXCEPTION, ExceptionMsg("A1", "O1", ExcA))
        deliver(p, "O2", KIND_EXCEPTION, ExceptionMsg("A1", "O2", ExcB))
        assert p.engine.state() is PState.SUSPENDED


class TestReadyConditions:
    def test_outstanding_ack_blocks_ready(self):
        _, _, ps = make_world()
        p = ps["O1"]
        p.enter_action("A1")
        p.raise_exception(ExcA)
        deliver(p, "O2", KIND_ACK, AckMsg("A1", "O2", KIND_EXCEPTION))
        assert p.engine.state() is PState.EXCEPTIONAL  # O3's ACK missing

    def test_outstanding_nested_completed_blocks_ready(self):
        _, _, ps = make_world()
        p = ps["O1"]
        p.enter_action("A1")
        p.raise_exception(ExcA)
        deliver(p, "O2", KIND_HAVE_NESTED, HaveNestedMsg("A1", "O2"))
        deliver(p, "O2", KIND_ACK, AckMsg("A1", "O2", KIND_EXCEPTION))
        deliver(p, "O3", KIND_ACK, AckMsg("A1", "O3", KIND_EXCEPTION))
        assert p.engine.state() is PState.EXCEPTIONAL  # O2 owes NestedCompleted
        deliver(
            p, "O2", KIND_NESTED_COMPLETED, NestedCompletedMsg("A1", "O2", None)
        )
        assert p.engine.ctx.state is PState.READY

    def test_nested_completed_with_signal_joins_raiser_set(self):
        _, _, ps = make_world()
        p = ps["O1"]
        p.enter_action("A1")
        p.raise_exception(ExcA)
        deliver(p, "O2", KIND_HAVE_NESTED, HaveNestedMsg("A1", "O2"))
        deliver(
            p, "O2", KIND_NESTED_COMPLETED, NestedCompletedMsg("A1", "O2", ExcB)
        )
        assert p.engine.ctx.le == {"O1": ExcA, "O2": ExcB}


class TestResolverElection:
    def test_not_biggest_waits_for_commit(self):
        _, _, ps = make_world(names=("O1", "O2"))
        p = ps["O1"]
        p.enter_action("A1")
        p.raise_exception(ExcA)
        deliver(p, "O2", KIND_EXCEPTION, ExceptionMsg("A1", "O2", ExcB))
        deliver(p, "O2", KIND_ACK, AckMsg("A1", "O2", KIND_EXCEPTION))
        ctx = p.engine.ctx
        assert ctx.state is PState.READY
        assert not ctx.sent_commit  # O2 > O1: O1 must not commit
        assert ctx.commit is None

    def test_biggest_resolves_and_lists_raisers(self):
        _, _, ps = make_world(names=("O1", "O2"))
        p = ps["O2"]
        p.enter_action("A1")
        p.raise_exception(ExcB)
        deliver(p, "O1", KIND_EXCEPTION, ExceptionMsg("A1", "O1", ExcA))
        deliver(p, "O1", KIND_ACK, AckMsg("A1", "O1", KIND_EXCEPTION))
        ctx = p.engine.ctx
        assert ctx.sent_commit
        assert ctx.commit.raisers == ("O1", "O2")
        assert ctx.commit.exception is UniversalException


class TestCommitHandling:
    def _suspended(self, ps):
        p = ps["O3"]
        p.enter_action("A1")
        deliver(p, "O1", KIND_EXCEPTION, ExceptionMsg("A1", "O1", ExcA))
        return p

    def test_commit_with_unseen_raiser_defers_handler(self):
        runtime, _, ps = make_world()
        p = self._suspended(ps)
        commit = CommitMsg("A1", "O2", UniversalException, raisers=("O1", "O2"))
        deliver(p, "O2", KIND_COMMIT, commit)
        assert not p.engine.ctx.handler_scheduled  # O2's Exception missing
        deliver(p, "O2", KIND_EXCEPTION, ExceptionMsg("A1", "O2", ExcB))
        assert p.engine.ctx.handler_scheduled

    def test_agreeing_duplicate_commit_tolerated(self):
        runtime, _, ps = make_world()
        p = self._suspended(ps)
        commit = CommitMsg("A1", "O2", ExcA, raisers=("O1",))
        deliver(p, "O2", KIND_COMMIT, commit)
        deliver(p, "O1", KIND_COMMIT, CommitMsg("A1", "O1", ExcA, ("O1",)))
        assert p.engine.ctx.handler_scheduled

    def test_conflicting_commit_rejected(self):
        runtime, _, ps = make_world()
        p = self._suspended(ps)
        deliver(p, "O2", KIND_COMMIT, CommitMsg("A1", "O2", ExcA, ("O1",)))
        with pytest.raises(ResolutionProtocolError, match="conflicting"):
            deliver(p, "O1", KIND_COMMIT, CommitMsg("A1", "O1", ExcB, ("O1",)))

    def test_post_handler_stragglers_are_drained(self):
        runtime, _, ps = make_world()
        p = self._suspended(ps)
        deliver(p, "O2", KIND_COMMIT, CommitMsg("A1", "O2", ExcA, ("O1",)))
        runtime.run()  # handler executes
        assert p.engine.ctx is None
        # Stragglers of every tolerated kind are absorbed silently.
        deliver(p, "O2", KIND_HAVE_NESTED, HaveNestedMsg("A1", "O2"))
        deliver(
            p, "O2", KIND_NESTED_COMPLETED, NestedCompletedMsg("A1", "O2", None)
        )
        deliver(p, "O2", KIND_ACK, AckMsg("A1", "O2", KIND_NESTED_COMPLETED))
        deliver(p, "O2", KIND_COMMIT, CommitMsg("A1", "O2", ExcA, ("O1",)))
        stragglers = runtime.trace.by_category("msg.straggler")
        assert len(stragglers) >= 3

    def test_post_handler_exception_buffers_for_next_incarnation(self):
        # An Exception arriving after this participant completed the
        # action belongs to the next backward-recovery incarnation (a
        # faster peer re-entered and raised again).  It must be buffered
        # for the retry, not treated as a protocol error — the race is
        # legal and fuzzing reproduces it (seed 4691).
        runtime, _, ps = make_world()
        p = self._suspended(ps)
        deliver(p, "O2", KIND_COMMIT, CommitMsg("A1", "O2", ExcA, ("O1",)))
        runtime.run()
        deliver(p, "O2", KIND_EXCEPTION, ExceptionMsg("A1", "O2", ExcB))
        buffered = runtime.trace.by_category("msg.next_incarnation")
        assert len(buffered) == 1
        assert [m.kind for m in p.pending["A1"]] == [KIND_EXCEPTION]

    def test_conflicting_late_commit_rejected(self):
        runtime, _, ps = make_world()
        p = self._suspended(ps)
        deliver(p, "O2", KIND_COMMIT, CommitMsg("A1", "O2", ExcA, ("O1",)))
        runtime.run()
        with pytest.raises(ResolutionProtocolError, match="conflicting late"):
            deliver(p, "O1", KIND_COMMIT, CommitMsg("A1", "O1", ExcB, ("O1",)))


class TestMisuseAndBookkeeping:
    def test_raise_after_resolution_rejected(self):
        runtime, _, ps = make_world()
        p = ps["O3"]
        p.enter_action("A1")
        deliver(p, "O1", KIND_EXCEPTION, ExceptionMsg("A1", "O1", ExcA))
        deliver(p, "O2", KIND_COMMIT, CommitMsg("A1", "O2", ExcA, ("O1",)))
        runtime.run()
        with pytest.raises(ResolutionProtocolError, match="raise after"):
            p.engine.local_raise("A1", ExcB)

    def test_duplicate_have_nested_deduped(self):
        _, _, ps = make_world()
        p = ps["O1"]
        p.enter_action("A1")
        p.raise_exception(ExcA)
        deliver(p, "O2", KIND_HAVE_NESTED, HaveNestedMsg("A1", "O2"))
        deliver(p, "O2", KIND_HAVE_NESTED, HaveNestedMsg("A1", "O2"))
        assert p.engine.ctx.lo == {"O2"}

    def test_ack_with_unknown_ref_ignored(self):
        _, _, ps = make_world()
        p = ps["O1"]
        p.enter_action("A1")
        p.raise_exception(ExcA)
        deliver(p, "O2", KIND_ACK, AckMsg("A1", "O2", KIND_NESTED_COMPLETED))
        assert p.engine.ctx.ack_awaited[KIND_EXCEPTION] == {"O2", "O3"}

    def test_forget_action_clears_context(self):
        _, _, ps = make_world()
        p = ps["O3"]
        p.enter_action("A1")
        deliver(p, "O1", KIND_EXCEPTION, ExceptionMsg("A1", "O1", ExcA))
        p.engine.forget_action("A1")
        assert p.engine.ctx is None
        assert p.engine.state() is PState.NORMAL

    def test_message_for_unentered_action_buffers(self):
        _, _, ps = make_world()
        p = ps["O3"]  # has not entered A1
        deliver(p, "O1", KIND_EXCEPTION, ExceptionMsg("A1", "O1", ExcA))
        assert p.engine.ctx is None
        assert len(p.pending["A1"]) == 1

    def test_entering_aborted_action_refused(self):
        _, manager, ps = make_world(nested=True)
        p = ps["O1"]
        p.enter_action("A1")
        manager.note_entered("A2", "O1", 0.0)
        manager.note_aborted("A2", 1.0)
        with pytest.raises(ActionUnavailableError):
            p.enter_action("A2")

    def test_leave_during_resolution_rejected(self):
        _, _, ps = make_world()
        p = ps["O3"]
        p.enter_action("A1")
        deliver(p, "O1", KIND_EXCEPTION, ExceptionMsg("A1", "O1", ExcA))
        with pytest.raises(ProtocolViolation, match="during resolution"):
            p.request_leave("A1")

    def test_handler_cancel_is_idempotent(self):
        _, _, ps = make_world()
        p = ps["O1"]
        p.cancel_handler("A1")  # nothing scheduled: no-op


class TestPendingCleanup:
    """``drop_pending_nested`` costs O(|pending|), not O(|descendants|): it
    runs once per HaveNested receipt, with nothing buffered almost always."""

    NESTED = 64

    def world(self, monkeypatch):
        tree = ResolutionTree(UniversalException)
        registry = ActionRegistry()
        registry.declare(CAActionDef("A1", ("O1", "O2"), tree))
        registry.declare(CAActionDef("B1", ("O1", "O2"), tree))
        for i in range(self.NESTED):
            registry.declare(CAActionDef(f"A1.N{i}", ("O1",), tree, parent="A1"))
        participant = CAParticipant(
            "O1", registry, CAActionManager(registry),
            {"A1": HandlerSet.completing_all(tree)},
        )
        runtime = Runtime()
        runtime.register(participant)
        calls = {"descendants": 0, "contains": 0}
        for name in calls:
            real = getattr(registry, name)

            def spy(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(registry, name, spy)
        return runtime, participant, calls

    def test_drops_nested_traffic_only_and_counts_it(self, monkeypatch):
        runtime, p, calls = self.world(monkeypatch)
        message = Message(src="O2", dst="O1", kind=KIND_EXCEPTION, payload=None)
        p.buffer_pending("A1.N7", message)
        p.buffer_pending("A1.N7", message)
        p.buffer_pending("A1.N63", message)
        p.buffer_pending("B1", message)
        assert p.drop_pending_nested("A1") == 3
        assert p.pending == {"B1": [message]}
        cleanup = [e for e in runtime.trace.entries if e.category == "pending.cleanup"]
        assert [(e.subject, e.details) for e in cleanup] == [
            ("O1", {"action": "A1", "dropped": 3})
        ]
        # One containment test per buffered action name; the 64-name
        # descendant list is never built or walked.
        assert calls == {"descendants": 0, "contains": 3}

    def test_empty_pending_walks_nothing(self, monkeypatch):
        runtime, p, calls = self.world(monkeypatch)
        assert p.drop_pending_nested("A1") == 0
        assert calls == {"descendants": 0, "contains": 0}
        assert not [e for e in runtime.trace.entries if e.category == "pending.cleanup"]


class TestExitBarrier:
    """The counted exit barrier: a ``DONE`` runs the barrier test only when
    the sender set it just grew has reached the size the action needs;
    every other way the barrier opens goes through ``request_leave``."""

    def leaving(self, monkeypatch, names=("O1", "O2", "O3"), **top):
        """O1 inside A1, its exits recorded and its barrier tests counted."""
        runtime, _, ps = make_world(names=names, **top)
        p = ps[names[0]]
        exits, tests = [], []
        p.on_action_exit = lambda action, outcome, exc: exits.append(outcome)
        real = p._check_barrier
        monkeypatch.setattr(
            p, "_check_barrier",
            lambda record: (tests.append(record.action_name), real(record)),
        )
        p.enter_action("A1")
        return runtime, p, exits, tests

    @staticmethod
    def done(p, sender, epoch=1):
        deliver(p, sender, KIND_DONE, DoneMsg("A1", sender, epoch))

    def test_opens_on_the_done_that_completes_the_set_and_tests_once(
        self, monkeypatch
    ):
        _, p, exits, tests = self.leaving(monkeypatch)
        p.request_leave("A1")
        self.done(p, "O2")
        assert exits == [] and tests == ["A1"]  # request_leave's own test
        self.done(p, "O3")
        assert exits == ["completed"] and tests == ["A1", "A1"]

    def test_stale_epoch_done_does_not_count(self, monkeypatch):
        _, p, exits, _ = self.leaving(monkeypatch)
        p.request_leave("A1")
        self.done(p, "O2", epoch=2)
        self.done(p, "O3", epoch=2)  # a full set, of another attempt
        self.done(p, "O2", epoch=1)
        assert exits == [] and waits_on(p) == "A1"
        assert p.contexts.active.done_from == {"O2"}
        self.done(p, "O3", epoch=1)
        assert exits == ["completed"]

    def test_same_senders_done_twice_counts_once(self, monkeypatch):
        _, p, exits, tests = self.leaving(monkeypatch)
        p.request_leave("A1")
        self.done(p, "O2")
        self.done(p, "O2")
        assert exits == [] and tests == ["A1"]
        self.done(p, "O3")
        assert exits == ["completed"]

    def test_last_done_during_resolution_leaves_the_exit_to_the_handler(
        self, monkeypatch
    ):
        runtime, p, exits, tests = self.leaving(monkeypatch)
        p.request_leave("A1")
        self.done(p, "O2")
        deliver(p, "O3", KIND_EXCEPTION, ExceptionMsg("A1", "O3", ExcA))
        deliver(p, "O3", KIND_COMMIT, CommitMsg("A1", "O3", ExcA, ("O3",)))
        assert p.engine.ctx is not None and p.engine.ctx.handler_scheduled
        self.done(p, "O3")  # completes the set while the context is live
        assert exits == [] and tests == ["A1", "A1"] and waits_on(p) == "A1"
        runtime.run()  # the handler completes and asks to leave again
        assert exits == ["completed"] and tests == ["A1", "A1", "A1"]

    def test_next_attempts_dones_before_own_retry(self, monkeypatch):
        verdicts = iter([False, True])
        _, p, exits, _ = self.leaving(
            monkeypatch, acceptance=lambda: next(verdicts), max_attempts=2
        )
        retries = []
        p.on_action_retry = lambda action, attempt: retries.append(attempt)
        p.request_leave("A1")
        self.done(p, "O2", epoch=1)
        self.done(p, "O2", epoch=2)  # O2 already finished its second attempt
        self.done(p, "O3", epoch=1)  # attempt 1's barrier: test fails, retry
        assert retries == [2] and exits == [] and waits_on(p) is None
        self.done(p, "O3", epoch=2)  # before this participant asked to leave
        assert exits == []
        p.request_leave("A1")
        assert exits == ["completed"]

    def test_single_participant_leaves_at_once(self, monkeypatch):
        runtime, p, exits, _ = self.leaving(monkeypatch, names=("O1",))
        p.request_leave("A1")
        assert exits == ["completed"]
        assert runtime.network.total_sent() == 0


class TestHeldDones:
    """A DONE that cannot be counted yet waits in ``pending`` and reaches
    ``_on_done`` again on entry; one for an entered action is counted on
    that action's record at once, wherever this participant sits.  O1 is
    driven by hand; A2, nested in A1, has O1 and O2 as members."""

    def world(self):
        tree = ResolutionTree(UniversalException, {ExcA: UniversalException})
        registry = ActionRegistry()
        registry.declare(CAActionDef("A1", ("O1", "O2", "O3"), tree))
        registry.declare(CAActionDef("A2", ("O1", "O2"), tree, parent="A1"))
        manager = CAActionManager(registry)
        runtime = Runtime()
        handlers = HandlerSet.completing_all(tree)
        for name in ("O1", "O2", "O3"):
            runtime.register(
                CAParticipant(name, registry, manager, {"A1": handlers, "A2": handlers})
            )
        p = runtime.objects["O1"]
        exits = []
        p.on_action_exit = lambda action, outcome, exc: exits.append(action)
        return runtime, p, exits

    def test_a_done_before_entry_counts_once_entered(self):
        _, p, exits = self.world()
        deliver(p, "O2", KIND_DONE, DoneMsg("A1", "O2", 1))  # O1 is belated
        assert [m.payload.sender for m in p.pending["A1"]] == ["O2"]
        p.enter_action("A1")
        assert p.pending == {} and p.contexts.active.done_from == {"O2"}
        p.request_leave("A1")
        assert exits == []
        deliver(p, "O3", KIND_DONE, DoneMsg("A1", "O3", 1))
        assert exits == ["A1"]

    def test_a_done_while_nested_counts_on_the_containing_record(self):
        _, p, exits = self.world()
        p.enter_action("A1")
        p.enter_action("A2")
        deliver(p, "O3", KIND_DONE, DoneMsg("A1", "O3", 1))  # O3 is not in A2
        assert p.pending == {} and p.contexts.find("A1").done_from == {"O3"}
        p.request_leave("A2")
        deliver(p, "O2", KIND_DONE, DoneMsg("A2", "O2", 1))
        deliver(p, "O2", KIND_DONE, DoneMsg("A1", "O2", 1))
        assert exits == ["A2"] and p.contexts.active.done_from == {"O2", "O3"}
        p.request_leave("A1")  # every DONE is in: no further one is needed
        assert exits == ["A2", "A1"]

    def test_a_held_done_of_a_nested_action_goes_with_its_cleanup(self):
        runtime, p, exits = self.world()
        p.enter_action("A1")
        deliver(p, "O2", KIND_DONE, DoneMsg("A2", "O2", 1))  # O1 is belated to A2
        assert [m.kind for m in p.pending["A2"]] == [KIND_DONE]
        deliver(p, "O2", KIND_HAVE_NESTED, HaveNestedMsg("A1", "O2"))
        assert p.pending == {}
        cleanup = [e.details for e in runtime.trace.entries if e.category == "pending.cleanup"]
        assert cleanup == [{"action": "A1", "dropped": 1}]


class TestOneExit:
    """Commit, abortion and signalled failure all leave through ``_leave``,
    which pops the action's ``SA_i`` record and all it held; a retry starts
    the record's next attempt in place.  O1 is driven by hand inside A2,
    nested in A1, whose first attempt fails its acceptance test: each test
    leaves A2 one way, lets A1 retry and enters A2 again, fresh."""

    def world(self, a2_handler=None):
        tree = ResolutionTree(
            UniversalException,
            {ExcA: UniversalException, ExcB: UniversalException},
        )
        verdicts = iter([False, True])
        registry = ActionRegistry()
        registry.declare(CAActionDef(
            "A1", ("O1", "O2", "O3"), tree,
            acceptance=lambda: next(verdicts), max_attempts=2,
        ))
        registry.declare(CAActionDef("A2", ("O1", "O2"), tree, parent="A1"))
        manager = CAActionManager(registry)
        runtime = Runtime()
        handlers = HandlerSet.completing_all(tree)
        in_a2 = handlers if a2_handler is None else handlers.with_override(ExcA, a2_handler)
        for name in ("O1", "O2", "O3"):
            runtime.register(
                CAParticipant(name, registry, manager, {"A1": handlers, "A2": in_a2})
            )
        p = runtime.objects["O1"]
        p.enter_action("A1")
        p.enter_action("A2")
        return runtime, p

    @staticmethod
    def resolve(runtime, p, action, raiser):
        """``raiser`` raised ExcA in ``action`` and committed it: O1's
        handler runs to its end."""
        deliver(p, raiser, KIND_EXCEPTION, ExceptionMsg(action, raiser, ExcA))
        deliver(p, raiser, KIND_COMMIT, CommitMsg(action, raiser, ExcA, (raiser,)))
        runtime.run()

    @staticmethod
    def assert_fresh(record, attempt=1):
        assert (record.attempt, record.done_sent, record.raised) == (attempt, False, [])
        assert record.handled is record.handler is record.committed is None

    def assert_left(self, p, action):
        from tests.properties.test_fuzz_scenarios import kept_after_leaving

        assert action not in p.contexts.names()
        assert kept_after_leaving(p) == []
        assert not [m for m in p.pending.get(action, ()) if m.kind == KIND_DONE]

    def retry_and_reenter(self, runtime, p):
        """O1 completes A1's first attempt, which fails: the record stays
        for attempt 2, and A2, entered again, starts at attempt 1."""
        if p.engine.ctx is None and waits_on(p) is None:
            p.request_leave("A1")
        for peer in ("O2", "O3"):
            deliver(p, peer, KIND_DONE, DoneMsg("A1", peer, 1))
        assert p.contexts.names() == ["A1"]
        self.assert_fresh(p.contexts.active, attempt=2)
        p.enter_action("A2")
        self.assert_fresh(p.contexts.active)
        sent = runtime.network.sent_by_kind
        before = sent["DONE"]
        p.request_leave("A2")
        assert p.contexts.active.done_sent and sent["DONE"] == before + 1  # to O2

    def test_commit(self):
        runtime, p = self.world()
        self.resolve(runtime, p, "A2", "O2")
        record = p.contexts.active
        assert record.committed.exception is ExcA and record.handled is ExcA
        assert record.done_sent and waits_on(p) == "A2"
        deliver(p, "O2", KIND_DONE, DoneMsg("A2", "O2", 1))
        self.assert_left(p, "A2")
        self.retry_and_reenter(runtime, p)

    def test_retry(self):
        runtime, p = self.world()
        p.request_leave("A2")
        deliver(p, "O2", KIND_DONE, DoneMsg("A2", "O2", 1))
        p.raise_exception(ExcA)
        for peer in ("O2", "O3"):
            deliver(p, peer, KIND_ACK, AckMsg("A1", peer, KIND_EXCEPTION))
        runtime.run()  # O1 resolved alone, ran its handler and asked to leave
        record = p.contexts.active
        assert record.raised == [ExcA] and record.committed.exception is ExcA
        assert record.handled is ExcA and record.done_sent
        self.retry_and_reenter(runtime, p)

    def test_abortion_after_the_handler_ran(self):
        """Fuzz world 1's path: O03 ran A2's handler and waited at A2's exit
        when A1's resolution aborted A2."""
        runtime, p = self.world()
        self.resolve(runtime, p, "A2", "O2")
        assert p.contexts.active.committed is not None and waits_on(p) == "A2"
        deliver(p, "O3", KIND_EXCEPTION, ExceptionMsg("A1", "O3", ExcA))
        runtime.run()  # the abortion handler of A2
        self.assert_left(p, "A2")
        assert runtime.trace.by_category("abort.done")
        self.resolve(runtime, p, "A1", "O3")
        self.retry_and_reenter(runtime, p)

    def test_signalled_failure(self):
        from repro.exceptions.handlers import Handler

        runtime, p = self.world(a2_handler=Handler.signalling(ExcB))
        self.resolve(runtime, p, "A2", "O2")
        self.assert_left(p, "A2")
        assert p.contexts.active.raised == [ExcB]  # signalled into A1
        for peer in ("O2", "O3"):
            deliver(p, peer, KIND_ACK, AckMsg("A1", peer, KIND_EXCEPTION))
        runtime.run()
        self.retry_and_reenter(runtime, p)
