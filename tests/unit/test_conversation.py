"""Unit tests: conversations and recovery blocks as CA actions.

A conversation (paper Section 2.2) is one transactional CA action whose
participants enter asynchronously, run an ``ActionBlock`` with
``alternates`` and leave together once the action's ``acceptance`` test
passes; a failed test rolls every participant's writes back through the
transaction.  A recovery block is the same action with one participant.
"""

import pytest

from repro.core.action import CAActionDef
from repro.core.manager import ActionStatus
from repro.exceptions import (
    ActionFailureException,
    HandlerSet,
    ResolutionTree,
    UniversalException,
    declare_exception,
)
from repro.transactions import AtomicObject
from repro.workloads import (
    ActionBlock,
    AtomicRead,
    AtomicWrite,
    Compute,
    ParticipantSpec,
    Raise,
    Scenario,
)

CRASH = declare_exception("AlternateCrash")
TREE = ResolutionTree(UniversalException, {CRASH: UniversalException})


def run_conversation(blocks, acceptance, max_attempts, objects, delays=None):
    """Run one transactional action ``"A1"`` with a participant per entry
    of ``blocks`` (name → steps-and-alternates ``ActionBlock``); one entry
    makes it a recovery block."""
    delays = delays or {}
    action = CAActionDef(
        "A1", tuple(blocks), TREE, transactional=True,
        acceptance=acceptance, max_attempts=max_attempts,
    )
    specs = [
        ParticipantSpec(
            name, [block], {"A1": HandlerSet.completing_all(TREE)},
            start_delay=delays.get(name, 0.0),
        )
        for name, block in blocks.items()
    ]
    return Scenario([action], specs, atomic_objects=objects).run()


class TestRecoveryPoint:
    """The recovery point is the action's transaction: its undo log holds
    every atomic object's state at the attempt's start."""

    def test_capture_and_restore_state(self):
        state = AtomicObject("state", {"x": 1, "y": [1, 2]})
        result = run_conversation(
            {
                "p": ActionBlock(
                    "A1",
                    [
                        AtomicWrite(state, "x", 99),
                        AtomicWrite(state, "y", [1, 2, 3]),
                        AtomicWrite(state, "z", "new"),
                    ],
                )
            },
            lambda: False, 1, [state],
        )
        assert result.status("A1") is ActionStatus.FAILED
        # Overwritten keys are restored and the created key is gone.
        assert state.snapshot() == {"x": 1, "y": [1, 2]}

    def test_deep_copy_isolation(self):
        entry = [1]
        state = AtomicObject("state", {"y": entry})
        result = run_conversation(
            {
                "p": ActionBlock(
                    "A1",
                    [AtomicWrite(state, "y", [1, 2]), AtomicWrite(state, "y", [1, 2, 3])],
                )
            },
            lambda: False, 1, [state],
        )
        assert result.status("A1") is ActionStatus.FAILED
        # Later writes in the attempt do not move the recovery point: the
        # value held at entry comes back, unchanged.
        assert state.get("y") is entry
        assert entry == [1]

    def test_restores_atomic_objects(self):
        a, b = AtomicObject("a", {"k": 1}), AtomicObject("b", {"k": 1})
        result = run_conversation(
            {
                "p1": ActionBlock("A1", [AtomicWrite(a, "k", 2)]),
                "p2": ActionBlock("A1", [AtomicWrite(b, "k", 2)]),
            },
            lambda: False, 1, [a, b],
        )
        assert result.status("A1") is ActionStatus.FAILED
        # One recovery point covers every participant's objects.
        assert (a.get("k"), b.get("k")) == (1, 1)
        assert (a.version, b.version) == (0, 0)


class TestAcceptanceTest:
    """``CAActionDef.acceptance`` is a plain predicate over the world,
    evaluated at the synchronized exit line."""

    def test_basic(self):
        for written, status in ((True, ActionStatus.COMPLETED), (False, ActionStatus.FAILED)):
            obj = AtomicObject("o", {"ok": False})
            result = run_conversation(
                {"p": ActionBlock("A1", [AtomicWrite(obj, "ok", written)])},
                lambda: obj.peek("ok", False), 1, [obj],
            )
            assert result.status("A1") is status

    def test_raising_predicate_is_failure(self):
        obj = AtomicObject("o")
        result = run_conversation(
            {"p": ActionBlock("A1", [Compute(1.0)])},
            lambda: obj.get("missing") > 0, 2, [obj],
        )
        # An error inside the check is itself an error: each attempt fails
        # its test, and the action signals failure once out of attempts.
        assert result.status("A1") is ActionStatus.FAILED
        assert result.manager.attempt_of("A1") == 2
        assert result.runners["p"].failure is ActionFailureException

    def test_always(self):
        obj = AtomicObject("o", {"v": 0})
        result = run_conversation(
            {"p": ActionBlock("A1", [AtomicWrite(obj, "v", -1)])},
            None, 3, [obj],
        )
        # No test is a test that always passes: one attempt, its writes kept.
        assert result.status("A1") is ActionStatus.COMPLETED
        assert result.manager.attempt_of("A1") == 1
        assert result.runtime.trace.by_category("action.retry") == []
        assert obj.get("v") == -1

    def test_requires(self):
        # Pass iff the key exists and its value checks out.
        for balance, status in (
            (5, ActionStatus.COMPLETED),
            (-1, ActionStatus.FAILED),
            (None, ActionStatus.FAILED),  # key never written
        ):
            obj = AtomicObject("acct")
            steps = [Compute(1.0)] if balance is None else [AtomicWrite(obj, "balance", balance)]
            result = run_conversation(
                {"p": ActionBlock("A1", steps)},
                lambda: "balance" in obj.snapshot() and obj.peek("balance") >= 0,
                1, [obj],
            )
            assert result.status("A1") is status


class TestRecoveryBlock:
    def test_primary_passes(self):
        obj = AtomicObject("o", {"v": 0})
        result = run_conversation(
            {"p": ActionBlock("A1", [AtomicWrite(obj, "v", 1)])},
            lambda: obj.peek("v") > 0, 2, [obj],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        assert result.manager.attempt_of("A1") == 1
        assert obj.get("v") == 1

    def test_falls_back_to_alternate(self):
        obj = AtomicObject("o", {"v": 0})
        result = run_conversation(
            {
                "p": ActionBlock(
                    "A1",
                    [AtomicWrite(obj, "v", -1)],  # fails the test
                    alternates=[[AtomicWrite(obj, "v", 7)]],
                )
            },
            lambda: obj.peek("v") > 0, 2, [obj],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        assert result.manager.attempt_of("A1") == 2
        assert obj.get("v") == 7

    def test_state_rolled_back_between_alternates(self):
        state = AtomicObject("state", {"initial": True, "junk": "clean", "v": 0})
        result = run_conversation(
            {
                "p": ActionBlock(
                    "A1",
                    [AtomicWrite(state, "junk", "leftover"), AtomicWrite(state, "v", -1)],
                    alternates=[[AtomicRead(state, "junk"), AtomicWrite(state, "v", 1)]],
                )
            },
            lambda: state.peek("v") > 0, 2, [state],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        # No junk leaked into the alternate.
        assert result.runners["p"].reads == ["clean"]
        assert state.snapshot() == {"initial": True, "junk": "clean", "v": 1}

    def test_exhaustion_restores_and_raises(self):
        state = AtomicObject("state", {"orig": True})
        result = run_conversation(
            {"p": ActionBlock("A1", [AtomicWrite(state, "v", 1)])},
            lambda: False, 2, [state],
        )
        assert result.status("A1") is ActionStatus.FAILED
        assert result.runners["p"].failure is ActionFailureException
        assert state.snapshot() == {"orig": True}

    def test_crashing_alternate_rolls_back(self):
        obj = AtomicObject("o", {"v": 0})
        result = run_conversation(
            {
                "p": ActionBlock(
                    "A1",
                    [AtomicWrite(obj, "v", 5), Raise(CRASH)],
                    alternates=[[AtomicWrite(obj, "v", 2)]],
                )
            },
            lambda: obj.peek("v") == 2, 2, [obj],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        # The raise was handled in attempt 1, whose write was rolled back
        # before the alternate ran.
        assert set(result.handlers_started("A1").values()) == {"AlternateCrash"}
        assert result.manager.attempt_of("A1") == 2
        assert obj.get("v") == 2
        assert obj.version == 1

    def test_empty_alternates_rejected(self):
        # A recovery block needs at least one alternate: one attempt.
        with pytest.raises(ValueError, match="at least one attempt"):
            CAActionDef("A1", ("p",), TREE, transactional=True, max_attempts=0)

    def test_restores_shared_objects_on_failure(self):
        obj = AtomicObject("o", {"k": 0})
        result = run_conversation(
            {"p": ActionBlock("A1", [AtomicWrite(obj, "k", 9)])},
            lambda: False, 1, [obj],
        )
        assert result.status("A1") is ActionStatus.FAILED
        assert obj.get("k") == 0
        assert obj.version == 0


class TestConversation:
    def test_all_pass_first_attempt(self):
        p1, p2 = AtomicObject("p1", {"v": 0}), AtomicObject("p2", {"v": 0})
        result = run_conversation(
            {
                "p1": ActionBlock("A1", [Compute(2.0), AtomicWrite(p1, "v", 1)]),
                "p2": ActionBlock("A1", [Compute(5.0), AtomicWrite(p2, "v", 2)]),
            },
            lambda: p1.peek("v") == 1 and p2.peek("v") == 2, 2, [p1, p2],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        assert result.manager.attempt_of("A1") == 1
        assert result.all_finished()

    def test_one_failure_rolls_back_everyone(self):
        p1, p2 = AtomicObject("p1", {"v": 0}), AtomicObject("p2", {"v": 0})
        result = run_conversation(
            {
                "p1": ActionBlock(
                    "A1",
                    [AtomicWrite(p1, "v", 1)],
                    alternates=[[AtomicRead(p1, "v"), AtomicWrite(p1, "v", 1)]],
                ),
                "p2": ActionBlock(
                    "A1",
                    [AtomicWrite(p2, "v", -2)],  # bad
                    alternates=[[AtomicWrite(p2, "v", 2)]],
                ),
            },
            lambda: p1.peek("v") == 1 and p2.peek("v") > 0, 2, [p1, p2],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        assert result.manager.attempt_of("A1") == 2
        # p1's part was right on attempt 1, yet it still rolled back and reran.
        assert result.runners["p1"].reads == [0]

    def test_exhaustion_fails_conversation(self):
        result = run_conversation(
            {
                "p1": ActionBlock("A1", [Compute(1.0)]),
                "p2": ActionBlock("A1", [Compute(2.0)]),
            },
            lambda: False, 2, [],
        )
        assert result.status("A1") is ActionStatus.FAILED
        for runner in result.runners.values():
            assert runner.failure is ActionFailureException
        assert result.all_finished()

    def test_shared_objects_rolled_back(self):
        acct = AtomicObject("acct", {"balance": 100})
        result = run_conversation(
            {
                "p1": ActionBlock(
                    "A1",
                    [AtomicWrite(acct, "balance", -50)],  # overdraw
                    alternates=[[AtomicWrite(acct, "balance", 80)]],
                ),
                "p2": ActionBlock("A1", [Compute(1.0)]),
            },
            lambda: acct.peek("balance") >= 0, 2, [acct],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        assert acct.get("balance") == 80
        assert acct.version == 1  # one top-level commit

    def test_asynchronous_entry_synchronous_exit(self):
        result = run_conversation(
            {
                "early": ActionBlock("A1", [Compute(1.0)]),
                "late": ActionBlock("A1", [Compute(1.0)]),
            },
            lambda: True, 1, [], delays={"late": 10.0},
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        trace = result.runtime.trace
        leaves = {e.subject: e.time for e in trace.by_category("action.leave_requested")}
        assert leaves == {"early": 1.0, "late": 11.0}
        # The acceptance test could only run once the late participant
        # reached the exit line, at 10 (entry) + 1 (its block) = 11; the
        # early one has waited there since 1.
        exits = {e.subject: e.time for e in trace.by_category("action.exit")}
        assert exits["late"] == 11.0 and exits["early"] > 11.0

    def test_crashing_alternate_triggers_rollback(self):
        p1, p2 = AtomicObject("p1", {"ok": 0}), AtomicObject("p2", {"v": 0})
        result = run_conversation(
            {
                "p1": ActionBlock(
                    "A1",
                    [Compute(1.0), Raise(CRASH)],
                    alternates=[[AtomicWrite(p1, "ok", 1)]],
                ),
                "p2": ActionBlock(
                    "A1", [AtomicWrite(p2, "v", 1), AtomicRead(p2, "v")]
                ),
            },
            lambda: p1.peek("ok") == 1, 2, [p1, p2],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        assert result.manager.attempt_of("A1") == 2
        # Both participants handled p1's raise, then both rolled back and
        # reran: p2 read its own write once per attempt.
        handlers = result.handlers_started("A1")
        assert set(handlers) >= {"p1", "p2"}
        assert result.runners["p2"].reads == [1, 1]
        assert p2.get("v") == 1 and p1.get("ok") == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="no participants"):
            CAActionDef("A1", (), TREE, transactional=True)
        with pytest.raises(ValueError, match="duplicate participants"):
            CAActionDef("A1", ("p", "p"), TREE, transactional=True)
        with pytest.raises(ValueError, match="at least one attempt"):
            CAActionDef("A1", ("p",), TREE, transactional=True, max_attempts=0)

    def test_test_log_records_every_evaluation(self):
        obj = AtomicObject("o", {"ok": 0})
        log = []

        def acceptance():
            log.append(obj.peek("ok") == 1)
            return log[-1]

        result = run_conversation(
            {
                "p1": ActionBlock(
                    "A1", [Compute(1.0)], alternates=[[AtomicWrite(obj, "ok", 1)]]
                ),
                "p2": ActionBlock("A1", [Compute(2.0)]),
            },
            acceptance, 3, [obj],
        )
        assert result.status("A1") is ActionStatus.COMPLETED
        # Consulted once per attempt, however many participants reach the line.
        assert log == [False, True]
