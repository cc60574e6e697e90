"""Property-based fuzzing of whole nested-scenario worlds.

Random action trees, random raisers at random levels, random abortion
signals, random timings — the paper's two guarantees (termination and
per-action handler agreement) must survive all of it.  This suite found
two real protocol races during development (the exit barrier firing during
an outer abortion, and belated entry into an aborted action), so it earns
its keep.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.manager import ActionStatus
from repro.core.messages import KIND_DONE
from repro.workloads.campaigns import FUZZ_FAULTS, CampaignCell, run_cell
from repro.workloads.fuzz import build_random_scenario, check_invariants

#: Per-action stores a participant may keep for an action it is not in:
#: its configuration, and traffic for what it has not reached yet (messages
#: for an action not entered, DONEs of an attempt not begun).  A DONE that
#: arrives after the participant left is dropped, so no ``pending`` list of
#: an action that has already ended holds a DONE (checked below).
NOT_PER_ENTRY = {"handler_sets", "abortion_handlers", "pending"}


def kept_after_leaving(participant) -> list[str]:
    """What ``participant`` still holds for actions off its stack: any
    dict or set of it or its engine keyed by an action name (or a tuple
    led by one), a resolution context; or a wait at the exit line of an
    action that is not its active one."""
    entered = set(participant.contexts.names())
    actions = set(participant.handler_sets) - entered
    kept = []
    for owner in (participant, participant.engine):
        for name, store in vars(owner).items():
            if name in NOT_PER_ENTRY or not isinstance(store, (dict, set)):
                continue
            for key in store:
                if (key[0] if isinstance(key, tuple) else key) in actions:
                    kept.append(f"{participant.name}.{name}[{key!r}]")
    ctx = participant.engine.ctx
    if ctx is not None and ctx.action in actions:
        kept.append(f"{participant.name}: context of {ctx.action}")
    for record in participant.contexts._stack[:-1]:
        if record.leaving:
            kept.append(f"{participant.name}: waits on {record.action_name}")
    return kept


class TestOneRecordPerEnteredAction:
    """Everything a base participant keeps about an entered action lives on
    that action's ``SA_i`` record, so leaving it — by commit, retry,
    abortion or signalled failure — leaves nothing behind."""

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        failing_attempts=st.sampled_from((0, 2)),
        random_latency=st.booleans(),
    )
    # The world that kept A2's Commit on O03 after its abortion.
    @example(seed=1, failing_attempts=0, random_latency=True)
    # Late DONEs were kept for O02's ABORTED A4, and O03's COMPLETED A2,
    # after each had left the action.
    @example(seed=66, failing_attempts=0, random_latency=True)
    @example(seed=62, failing_attempts=0, random_latency=True)
    @settings(max_examples=60, deadline=None)
    def test_nothing_outlives_its_record(self, seed, failing_attempts, random_latency):
        scenario, plan = build_random_scenario(
            seed, n_participants=4, failing_attempts=failing_attempts,
            random_latency=random_latency,
        )
        result = scenario.run(max_events=800_000)
        kept = [k for p in result.participants.values() for k in kept_after_leaving(p)]
        assert not kept, f"{plan.describe()}: {kept}"
        ended = {
            name for name, inst in result.manager.instances().items()
            if inst.status in (ActionStatus.ABORTED, ActionStatus.COMPLETED)
        }
        late = [
            f"{p.name}.pending[{action!r}]"
            for p in result.participants.values()
            for action, held in p.pending.items()
            if action in ended and any(m.kind == KIND_DONE for m in held)
        ]
        assert not late, f"{plan.describe()}: {late}"


#: The faulted worlds tier-1 runs: a fixed draw, so a failure is repeatable
#: from the cell id it prints.
FAULTED_DRAW_SEED = 20_261_015
FAULTED_WORLDS_PER_FAULT = 60


class TestFuzzedNestedScenarios:
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        n=st.integers(min_value=2, max_value=7),
        depth=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, seed, n, depth):
        scenario, plan = build_random_scenario(
            seed, n_participants=n, max_depth=depth
        )
        result = scenario.run(max_events=600_000)
        problems = check_invariants(result, plan)
        assert not problems, f"{plan.describe()}: {problems}"

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        raise_probability=st.floats(min_value=0.1, max_value=1.0),
        signal_probability=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_across_raise_densities(
        self, seed, raise_probability, signal_probability
    ):
        scenario, plan = build_random_scenario(
            seed,
            n_participants=5,
            max_depth=3,
            raise_probability=raise_probability,
            signal_probability=signal_probability,
        )
        result = scenario.run(max_events=600_000)
        problems = check_invariants(result, plan)
        assert not problems, f"{plan.describe()}: {problems}"

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=30, deadline=None)
    def test_constant_latency_worlds(self, seed):
        scenario, plan = build_random_scenario(
            seed, n_participants=4, max_depth=3, random_latency=False
        )
        result = scenario.run(max_events=600_000)
        problems = check_invariants(result, plan)
        assert not problems, f"{plan.describe()}: {problems}"

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        failing_attempts=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_backward_recovery_composition(self, seed, failing_attempts):
        """Figure 2(b) retries of the root action composed with random
        exceptions, abortion signals and nesting — per-incarnation handler
        agreement and termination must survive."""
        scenario, plan = build_random_scenario(
            seed,
            n_participants=4,
            max_depth=3,
            failing_attempts=failing_attempts,
        )
        result = scenario.run(max_events=800_000)
        problems = check_invariants(result, plan)
        assert not problems, f"{plan.describe()}: {problems}"
        root = plan.actions[0].name
        assert result.manager.attempt_of(root) == failing_attempts + 1

    def test_generator_is_deterministic(self):
        _, plan_a = build_random_scenario(777, n_participants=5, max_depth=3)
        _, plan_b = build_random_scenario(777, n_participants=5, max_depth=3)
        assert plan_a.describe() == plan_b.describe()

    def test_every_scenario_has_a_raiser(self):
        for seed in range(30):
            _, plan = build_random_scenario(
                seed, n_participants=3, raise_probability=0.0
            )
            assert plan.raisers  # the generator forces at least one


class TestFaultedFuzzWorlds:
    def test_no_bad_cell_under_any_fault(self):
        """300 random worlds across the fuzz fault axis (none, drop,
        corrupt, partition, crash) under the campaign oracles: a crash may
        stall a world that has no failure detector, nothing may be bad."""
        rng = random.Random(FAULTED_DRAW_SEED)
        cells = [
            CampaignCell(
                "fuzz", "base", fault, n=rng.choice((4, 5)),
                seed=rng.randrange(1 << 30),
            )
            for _ in range(FAULTED_WORLDS_PER_FAULT)
            for fault in FUZZ_FAULTS
        ]
        bad = [outcome.repro_line() for outcome in map(run_cell, cells) if outcome.bad]
        assert not bad, "\n".join(bad)
