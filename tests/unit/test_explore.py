"""Unit tests for the schedule-space exploration engine."""

import pytest

from repro.explore import ScheduleSpec, ddmin
from repro.explore.independence import (
    eligible_indices,
    event_meta,
    independent,
)
from repro.simkernel.events import EventQueue, TieBreakPolicy
from repro.simkernel.scheduler import (
    Simulator,
    current_scheduling_policy,
    scheduling_policy,
)


class TestScheduleSpec:
    def test_fifo_roundtrip(self):
        spec = ScheduleSpec.fifo()
        assert spec.encode() == "fifo"
        assert ScheduleSpec.parse("fifo") == spec

    def test_random_walk_roundtrip(self):
        spec = ScheduleSpec.random_walk(42)
        assert spec.encode() == "rw:42"
        assert ScheduleSpec.parse("rw:42") == spec

    def test_choices_roundtrip(self):
        spec = ScheduleSpec.from_choices([(6, 1), (14, 2)])
        assert spec.encode() == "ch:6=1,14=2"
        assert ScheduleSpec.parse("ch:6=1,14=2") == spec

    def test_choices_drop_fifo_defaults(self):
        # idx=0 deviations are no-ops and are normalised away.
        spec = ScheduleSpec.from_choices([(3, 0), (6, 1)])
        assert spec.choices == ((6, 1),)

    def test_choices_sorted(self):
        spec = ScheduleSpec.from_choices([(14, 2), (6, 1)])
        assert spec.encode() == "ch:6=1,14=2"

    @pytest.mark.parametrize(
        "text", ["", "bogus", "rw:", "rw:x", "ch:", "ch:1", "ch:a=b"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            ScheduleSpec.parse(text)


class TestDdmin:
    def test_minimises_to_failure_core(self):
        core = {3, 7}
        calls = []

        def failing(subset):
            calls.append(list(subset))
            return core <= set(subset)

        result = ddmin(list(range(10)), failing)
        assert sorted(result) == [3, 7]

    def test_single_item(self):
        assert ddmin([5], lambda s: 5 in s) == [5]

    def test_empty_passes_through(self):
        assert ddmin([], lambda s: True) == []

    def test_budget_returns_valid_superset(self):
        core = {2, 9}

        def failing(subset):
            return core <= set(subset)

        result = ddmin(list(range(12)), failing, budget=3)
        assert core <= set(result)


class TestIndependence:
    def test_deliveries_same_destination_are_dependent(self):
        a = event_meta("deliver:CT_ACK:O0001->O0000")
        b = event_meta("deliver:CT_HAVE_NESTED:O0002->O0000")
        assert not independent(a, b)

    def test_deliveries_distinct_destinations_are_independent(self):
        a = event_meta("deliver:CT_ACK:O0001->O0000")
        b = event_meta("deliver:CT_ACK:O0001->O0002")
        assert independent(a, b)

    def test_same_channel_is_always_dependent(self):
        a = event_meta("deliver:CT_ACK:O0001->O0000")
        b = event_meta("deliver:HEARTBEAT:O0001->O0000")
        assert not independent(a, b)

    def test_heartbeat_commutes_across_channels(self):
        hb = event_meta("deliver:HEARTBEAT:O0001->O0000")
        ack = event_meta("deliver:CT_ACK:O0002->O0000")
        assert independent(hb, ack)

    def test_unknown_label_is_dependent_with_everything(self):
        unknown = event_meta("mystery-event")
        local = event_meta("ct-abort:O0001")
        assert not independent(unknown, local)
        assert not independent(unknown, unknown)

    def test_beat_and_check_of_same_object_are_independent(self):
        # Beat and check are one ``hb:`` tick now, so there is no pair left
        # to swap.  ``hbcheck:`` is no label any more (unknown: dependent
        # with everything); ticks of two objects commute; a tick may suspect
        # and run the progress rule, so it is dependent with its object's
        # protocol deliveries.
        assert event_meta("hbcheck:O0001").touched is None
        assert independent(event_meta("hb:O0001"), event_meta("hb:O0002"))
        assert not independent(
            event_meta("hb:O0001"), event_meta("deliver:CT_ACK:O0002->O0001")
        )

    def test_crash_is_dependent_with_beat_and_protocol(self):
        crash = event_meta("crash:O0001")
        assert not independent(crash, event_meta("hb:O0001"))
        assert not independent(crash, event_meta("ct-abort:O0001"))

    def test_rto_touches_both_endpoints(self):
        rto = event_meta("rto:O0001->O0000:3")
        assert not independent(rto, event_meta("ct-abort:O0001"))
        assert not independent(rto, event_meta("deliver:CT_ACK:O0002->O0000"))

    def test_eligibility_enforces_per_channel_fifo(self):
        metas = [
            event_meta("deliver:CT_ACK:O0001->O0000"),
            event_meta("deliver:CT_HAVE_NESTED:O0001->O0000"),  # 2nd on chan
            event_meta("deliver:CT_ACK:O0002->O0000"),
            event_meta("hb:O0001"),
        ]
        assert eligible_indices(metas) == [0, 2, 3]


class _PickLast(TieBreakPolicy):
    def __init__(self):
        self.groups = []

    def choose(self, candidates):
        self.groups.append([event.label for event in candidates])
        return len(candidates) - 1


class TestTieBreakHook:
    def test_default_pop_is_fifo(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.push(0.0, lambda n=name: fired.append(n), label=name)
        order = []
        while len(queue):
            order.append(queue.pop().label)
        assert order == ["a", "b", "c"]

    def test_policy_reorders_same_time_group(self):
        queue = EventQueue()
        queue.tie_break = _PickLast()
        for name in "abc":
            queue.push(0.0, lambda: None, label=name)
        order = [queue.pop().label for _ in range(3)]
        assert order == ["c", "b", "a"]

    def test_policy_sees_only_minimal_time_group(self):
        queue = EventQueue()
        policy = _PickLast()
        queue.tie_break = policy
        queue.push(0.0, lambda: None, label="now1")
        queue.push(0.0, lambda: None, label="now2")
        queue.push(1.0, lambda: None, label="later")
        queue.pop()
        assert policy.groups == [["now1", "now2"]]

    def test_priorities_are_never_permuted(self):
        queue = EventQueue()
        policy = _PickLast()
        queue.tie_break = policy
        queue.push(0.0, lambda: None, priority=-1, label="delivery")
        queue.push(0.0, lambda: None, label="local")
        assert queue.pop().label == "delivery"
        assert policy.groups == []  # singleton groups never reach the policy

    def test_out_of_range_choice_falls_back_to_fifo(self):
        class Bad(TieBreakPolicy):
            def choose(self, candidates):
                return 99

        queue = EventQueue()
        queue.tie_break = Bad()
        queue.push(0.0, lambda: None, label="a")
        queue.push(0.0, lambda: None, label="b")
        assert queue.pop().label == "a"

    def test_fifo_policy_is_bit_identical_to_fast_path(self):
        def trace(policy):
            queue = EventQueue()
            queue.tie_break = policy
            fired = []
            for i in range(20):
                queue.push(
                    float(i % 3), lambda: None, priority=i % 2 - 1,
                    label=f"e{i}",
                )
            while len(queue):
                fired.append(queue.pop().label)
            return fired

        assert trace(None) == trace(TieBreakPolicy())


class TestSchedulingPolicyContext:
    def test_installed_policy_reaches_new_simulators(self):
        policy = TieBreakPolicy()
        assert current_scheduling_policy() is None
        with scheduling_policy(policy):
            assert current_scheduling_policy() is policy
            sim = Simulator()
            assert sim._queue.tie_break is policy
        assert current_scheduling_policy() is None
        assert Simulator()._queue.tie_break is None

    def test_nested_contexts_restore(self):
        outer, inner = TieBreakPolicy(), TieBreakPolicy()
        with scheduling_policy(outer):
            with scheduling_policy(inner):
                assert current_scheduling_policy() is inner
            assert current_scheduling_policy() is outer
