"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.simkernel import (
    EventQueue,
    RngRegistry,
    Simulator,
    TraceRecorder,
)
from repro.simkernel.events import PRIORITY_DELIVERY
from repro.simkernel.scheduler import SimulationError


class TestSimulatorClock:
    """``Simulator.now`` is the one monotonic virtual clock."""

    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start(self):
        assert Simulator(7.5).now == 7.5

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Simulator(-1.0)

    def test_advances(self):
        sim = Simulator()
        sim.advance_to(3.0)
        assert sim.now == 3.0

    def test_cannot_go_backwards(self):
        sim = Simulator(5.0)
        with pytest.raises(ValueError):
            sim.advance_to(4.0)
        assert sim.now == 5.0

    def test_advance_to_same_time_allowed(self):
        sim = Simulator(5.0)
        sim.advance_to(5.0)
        assert sim.now == 5.0


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(3.0, lambda: None, label="late")
        queue.push(1.0, lambda: None, label="early")
        queue.push(2.0, lambda: None, label="mid")
        labels = [queue.pop().label for _ in range(3)]
        assert labels == ["early", "mid", "late"]

    def test_ties_broken_by_priority_then_insertion(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, label="second")
        queue.push(1.0, lambda: None, priority=PRIORITY_DELIVERY, label="first")
        queue.push(1.0, lambda: None, label="third")
        labels = [queue.pop().label for _ in range(3)]
        assert labels == ["first", "second", "third"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None, label="gone")
        queue.push(2.0, lambda: None, label="kept")
        event.cancel()
        assert len(queue) == 1
        assert queue.pop().label == "kept"
        assert queue.pop() is None

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_empty_queue(self):
        queue = EventQueue()
        assert not queue
        assert queue.pop() is None
        assert queue.peek_time() is None


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 2.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        times = []

        def chain(n):
            times.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_event_budget_detects_livelock(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="budget"):
            sim.run(max_events=100)

    def test_cancelled_handle_not_run(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_deterministic_tie_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestRngRegistry:
    def test_streams_are_reproducible(self):
        a = RngRegistry(42).stream("x")
        b = RngRegistry(42).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        reg = RngRegistry(42)
        x = reg.stream("x")
        draws_before = [x.random() for _ in range(3)]
        reg2 = RngRegistry(42)
        reg2.stream("y").random()  # extra consumer must not perturb x
        x2 = reg2.stream("x")
        assert draws_before == [x2.random() for _ in range(3)]

    def test_different_names_differ(self):
        reg = RngRegistry(1)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_same_stream_object_returned(self):
        reg = RngRegistry(0)
        assert reg.stream("s") is reg.stream("s")

    def test_fork_is_deterministic(self):
        a = RngRegistry(7).fork("child").stream("s").random()
        b = RngRegistry(7).fork("child").stream("s").random()
        assert a == b

    def test_fork_differs_from_parent(self):
        reg = RngRegistry(7)
        assert reg.fork("child").seed != reg.seed


class TestTraceRecorder:
    def test_records_and_queries(self):
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "O1", dst="O2", kind="EXCEPTION")
        trace.record(2.0, "handler", "O2", exception="E")
        assert len(trace) == 2
        assert trace.by_category("msg")[0].subject == "O1"

    def test_category_prefix_match_is_component_wise(self):
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "a")
        trace.record(1.0, "msgother", "b")
        assert len(trace.by_category("msg")) == 1

    def test_dump_is_printable(self):
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "O1", kind="ACK")
        assert "msg.send" in trace.dump()
        assert "ACK" in trace.dump()
