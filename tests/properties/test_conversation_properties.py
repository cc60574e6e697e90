"""Property-based tests: conversation-scheme invariants on CA actions.

The conversation contract (paper Section 2.2), as Figure 2(b) builds it
into a transactional CA action: failure anywhere is failure everywhere
(joint rollback), success requires the acceptance test to pass on an
attempt, the state after acceptance reflects the passing attempt's
alternates only, and nobody leaves before everybody reached the exit line.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.action import CAActionDef
from repro.core.manager import ActionStatus
from repro.exceptions import HandlerSet, ResolutionTree, UniversalException
from repro.transactions import AtomicObject
from repro.workloads import (
    ActionBlock,
    AtomicWrite,
    Compute,
    ParticipantSpec,
    Scenario,
)

TREE = ResolutionTree(UniversalException)


@st.composite
def conversation_plan(draw):
    """Random participants with per-attempt verdicts, durations and entries."""
    n_participants = draw(st.integers(min_value=1, max_value=4))
    n_attempts = draw(st.integers(min_value=1, max_value=4))
    # passes[p][k]: participant p's share of the verdict on attempt k + 1.
    passes = [
        [draw(st.booleans()) for _ in range(n_attempts)]
        for _ in range(n_participants)
    ]
    durations = [
        [draw(st.floats(min_value=0.1, max_value=5.0)) for _ in range(n_attempts)]
        for _ in range(n_participants)
    ]
    entries = [
        draw(st.floats(min_value=0.0, max_value=4.0)) for _ in range(n_participants)
    ]
    return passes, durations, entries


def run_plan(plan, write, acceptance, objects):
    """Run ``plan`` as one transactional action: participant ``i``'s
    attempt ``k`` computes for its drawn duration, then runs
    ``write(i, k)``'s steps."""
    passes, durations, entries = plan
    n_attempts = len(passes[0])
    names = tuple(f"p{i}" for i in range(len(passes)))
    action = CAActionDef(
        "conv", names, TREE, transactional=True,
        acceptance=acceptance, max_attempts=n_attempts,
    )
    bodies = [
        [[Compute(durations[i][k]), *write(i, k)] for k in range(n_attempts)]
        for i in range(len(names))
    ]
    specs = [
        ParticipantSpec(
            name,
            [ActionBlock("conv", bodies[i][0], alternates=bodies[i][1:])],
            {"conv": HandlerSet.completing_all(TREE)},
            start_delay=entries[i],
        )
        for i, name in enumerate(names)
    ]
    return Scenario([action], specs, atomic_objects=objects).run(max_events=100_000)


class TestConversationContract:
    @given(conversation_plan())
    @settings(max_examples=60, deadline=None)
    def test_accepts_exactly_at_first_all_pass_attempt(self, plan):
        passes = plan[0]
        n_attempts = len(passes[0])
        # Each participant records which attempt its state comes from.
        state = AtomicObject("state", {i: None for i in range(len(passes))})

        def acceptance():
            return all(
                script[state.peek(i)] for i, script in enumerate(passes)
            )

        result = run_plan(
            plan, lambda i, k: [AtomicWrite(state, i, k)], acceptance, [state]
        )
        all_pass_attempts = [
            k for k in range(n_attempts) if all(script[k] for script in passes)
        ]
        if all_pass_attempts:
            first = all_pass_attempts[0]
            assert result.status("conv") is ActionStatus.COMPLETED
            assert result.manager.attempt_of("conv") == first + 1
            # Every participant's state reflects exactly the passing attempt.
            assert set(state.snapshot().values()) == {first}
        else:
            assert result.status("conv") is ActionStatus.FAILED
        assert result.all_finished()

    @given(conversation_plan())
    @settings(max_examples=40, deadline=None)
    def test_failure_rolls_shared_state_back(self, plan):
        ledger = AtomicObject("ledger", {"x": 0})
        result = run_plan(
            plan,
            lambda i, k: [AtomicWrite(ledger, "x", 100 * i + k)],
            lambda: False,  # nobody ever passes
            [ledger],
        )
        assert result.status("conv") is ActionStatus.FAILED
        assert ledger.snapshot() == {"x": 0}
        assert ledger.version == 0

    @given(conversation_plan())
    @settings(max_examples=40, deadline=None)
    def test_exit_is_synchronized(self, plan):
        """In the final attempt nobody leaves before every participant has
        reached the exit line, however asynchronous the entries."""
        passes = plan[0]
        verdicts = iter([all(step) for step in zip(*passes)])
        result = run_plan(plan, lambda i, k: [], lambda: next(verdicts), [])
        entries = result.runtime.trace.entries
        final = result.manager.attempt_of("conv")
        leaves = [
            index for index, e in enumerate(entries)
            if e.category == "action.leave_requested"
            and e.details["attempt"] == final
        ]
        exits = [
            index for index, e in enumerate(entries) if e.category == "action.exit"
        ]
        assert len(leaves) == len(passes)
        assert len(exits) == len(passes)
        assert min(exits) > max(leaves)
