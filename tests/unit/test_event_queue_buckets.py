"""The time-bucketed queue under the simulator's drain loop.

Entries that share ``(time, priority)`` sit in one list that
``Simulator.run`` walks in place, so the rules a per-event heap gave for
free have to be kept on purpose.  Each test fails if its rule is dropped:

1. a smaller key queued by a handler pre-empts the rest of the bucket;
2. same-key pushes made while draining run in the same pass, last;
3. compaction triggered inside a handler leaves the position in the
   bucket being drained alone — also when that bucket was pre-empted
   earlier in the same handler;
4. a run that stops mid-bucket (budget, ``until``, a raising handler)
   never re-executes a consumed entry, keeps the tail queued, reports the
   sizes a per-event heap would, and ``step``/``pop``/``peek_time``/``run``
   can follow in any order;
5. a run of raw deliveries, handed to the network in one call, stops where
   ``step()`` in a loop would: at the budget, after a raising handler, after
   a handler that queued a smaller key, and at an event in its bucket; its
   handlers see the queue length of a step.
"""

import pytest

from repro.net import ConstantLatency, Network
from repro.simkernel import Simulator
from repro.simkernel.events import PRIORITY_DELIVERY, EventQueue
from repro.simkernel.scheduler import SimulationError


def _noop():
    return None


def _sim_with(order, labels, at=1.0):
    sim = Simulator()
    for label in labels:
        sim.schedule_at(at, lambda label=label: order.append(label), label=label)
    return sim


def _cancel_enough_to_compact(sim):
    """Queue far-future timers and cancel them all: trips auto-compaction."""
    timers = [
        sim.schedule_at(99.0, _noop)
        for _ in range(4 * EventQueue.COMPACT_MIN_CANCELLED)
    ]
    for timer in timers:
        timer.cancel()
    # Proof that a compaction ran: the cancelled residue was reclaimed.
    assert sim._queue.heap_size - len(sim._queue) < EventQueue.COMPACT_MIN_CANCELLED


class TestPreemption:
    def test_smaller_key_from_a_handler_runs_before_the_rest_of_the_bucket(self):
        order = []
        sim = Simulator()

        def first():
            order.append("a")
            sim.schedule(0.0, lambda: order.append("delivery"), priority=PRIORITY_DELIVERY)

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("c"))
        sim.run(max_events=20)  # a lost trim would re-run "a" for ever
        assert order == ["a", "delivery", "b", "c"]
        assert sim.events_executed == 4
        assert sim.pending_events == 0 and sim._queue.heap_size == 0

    def test_zero_latency_delivery_preempts_local_work(self):
        """The real case: a raw network delivery queued from a priority-0 event."""
        order = []
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.0))
        net.register("src", order.append)
        net.register("dst", lambda message: order.append(message.kind))
        sim.schedule_at(1.0, lambda: net.send("src", "dst", "now"))
        sim.schedule_at(1.0, lambda: order.append("local"))
        sim.run(max_events=20)
        assert order == ["now", "local"]

    def test_preempting_from_the_last_entry_leaves_nothing_to_rerun(self):
        order = []
        sim = _sim_with(order, "a")
        sim.schedule_at(
            1.0,
            lambda: sim.schedule(0.0, lambda: order.append("d"), priority=PRIORITY_DELIVERY),
        )
        sim.run(max_events=20)
        assert order == ["a", "d"]
        assert sim.events_executed == 3
        assert sim._queue.peek_time() is None


class TestSameKeyPushesWhileDraining:
    def test_run_in_the_same_pass_after_everything_already_queued(self):
        order = []
        sim = Simulator()

        def first():
            order.append("a")
            sim.schedule(0.0, lambda: order.append("a2"))

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: order.append("b"))
        sim.schedule_at(2.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "a2", "c"]
        assert sim.events_executed == 4

    def test_same_key_push_chain_counts_against_the_budget(self):
        """A self-rescheduling zero-delay event is a livelock, not a hang."""
        sim = Simulator()

        def spin():
            sim.schedule(0.0, spin)

        sim.schedule_at(1.0, spin)
        with pytest.raises(SimulationError, match="likely livelock"):
            sim.run(max_events=50)
        assert sim.events_executed == 50
        assert sim.pending_events == 1


class TestCompactionInsideAHandler:
    def test_position_in_the_draining_bucket_does_not_shift(self):
        order = []
        sim = Simulator()
        # A cancelled entry *ahead of* the position: were the compaction to
        # drop it from the list being walked, "b" would be jumped over.
        sim.schedule_at(1.0, _noop).cancel()

        def first():
            order.append("a")
            _cancel_enough_to_compact(sim)

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.events_executed == 3
        assert sim.pending_events == 0 and sim._queue.heap_size == 0

    def test_nor_in_a_bucket_pre_empted_earlier_in_the_same_handler(self):
        order = []
        sim = Simulator()
        sim.schedule_at(1.0, _noop).cancel()

        def first():
            order.append("a")
            # Pre-empt first: the head bucket is now the delivery's, yet the
            # one being walked is still this one.
            sim.schedule(0.0, lambda: order.append("delivery"), priority=PRIORITY_DELIVERY)
            _cancel_enough_to_compact(sim)

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("c"))
        sim.run(max_events=20)
        assert order == ["a", "delivery", "b", "c"]
        assert sim.events_executed == 4
        assert sim.pending_events == 0 and sim._queue.heap_size == 0

    def test_sizes_stay_exact_when_the_draining_bucket_keeps_its_residue(self):
        """``heap_size`` is live + cancelled-still-queued, whoever compacts."""
        sim = Simulator()
        sizes = []

        def first():
            for timer in later + far:
                timer.cancel()
            sim._queue.compact()
            sizes.append((len(sim._queue), sim._queue.heap_size))

        sim.schedule_at(1.0, first)
        later = [sim.schedule_at(1.0, _noop) for _ in range(5)]
        survivor = sim.schedule_at(1.0, _noop)
        far = [sim.schedule_at(9.0, _noop) for _ in range(7)]
        sim.run()
        # Inside the handler: one live entry (the survivor) and the five
        # cancelled ones the compaction had to leave in the walked bucket;
        # the seven in another bucket are gone.
        assert sizes == [(1, 6)]
        assert not survivor.cancelled
        assert sim.events_executed == 2
        assert sim._queue.heap_size == 0


class TestStoppingMidBucket:
    def test_budget_exhausted_mid_bucket(self):
        order = []
        sim = _sim_with(order, "abcde")
        sim.schedule_at(2.0, lambda: order.append("f"))
        queue = sim._queue
        with pytest.raises(SimulationError, match="after 2 events"):
            sim.run(max_events=2)
        assert order == ["a", "b"]
        assert sim.events_executed == 2
        assert (len(queue), sim.pending_events, queue.heap_size) == (4, 4, 4)
        assert sim.now == 1.0
        # Anything may follow, in any order; nothing runs twice.
        assert sim.step() is True
        assert order == ["a", "b", "c"]
        assert queue.peek_time() == 1.0
        assert queue.pop().label == "d"  # removed, not executed
        sim.run()
        assert order == ["a", "b", "c", "e", "f"]
        assert sim.events_executed == 5
        assert (len(queue), queue.heap_size) == (0, 0)

    def test_budget_skips_cancelled_entries_then_stops_at_the_next_live_one(self):
        order = []
        sim = _sim_with(order, "a")
        sim.schedule_at(1.0, _noop).cancel()
        sim.schedule_at(1.0, lambda: order.append("b"))
        with pytest.raises(SimulationError):
            sim.run(max_events=1)
        # As a per-event heap: the cancelled entry was discarded on the way
        # to the live one that hit the budget.
        assert order == ["a"]
        assert (len(sim._queue), sim._queue.heap_size) == (1, 1)
        sim.run()
        assert order == ["a", "b"]
        assert (len(sim._queue), sim._queue.heap_size) == (0, 0)

    def test_budget_equal_to_the_queue_does_not_raise(self):
        order = []
        sim = _sim_with(order, "abc")
        sim.run(max_events=3)
        assert order == ["a", "b", "c"]

    def test_until_reached_between_buckets(self):
        order = []
        sim = _sim_with(order, "ab")
        sim.schedule_at(3.0, _noop).cancel()
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.schedule_at(3.0, lambda: order.append("d"))
        sim.run(until=2.0)
        assert order == ["a", "b"]
        assert sim.now == 2.0
        # The cancelled entry ahead of the first live one past ``until`` is
        # discarded, as a per-event heap would have.
        assert (sim.pending_events, sim._queue.heap_size) == (2, 2)
        assert sim._queue.peek_time() == 3.0
        sim.run()
        assert order == ["a", "b", "c", "d"]
        assert sim.now == 3.0
        assert sim._queue.heap_size == 0

    def test_handler_raises_mid_bucket(self):
        order = []
        sim = _sim_with(order, "a")

        def boom():
            raise ValueError("boom")

        sim.schedule_at(1.0, boom)
        sim.schedule_at(1.0, lambda: order.append("c"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert order == ["a"]
        assert sim.events_executed == 2  # the raising event was consumed
        assert (sim.pending_events, sim._queue.heap_size) == (1, 1)
        sim.run()
        assert order == ["a", "c"]
        assert sim.events_executed == 3

    def test_handler_raises_after_pre_empting(self):
        order = []
        sim = _sim_with(order, "a")

        def boom():
            sim.schedule(0.0, lambda: order.append("delivery"), priority=PRIORITY_DELIVERY)
            raise ValueError("boom")

        sim.schedule_at(1.0, boom)
        sim.schedule_at(1.0, lambda: order.append("c"))
        with pytest.raises(ValueError):
            sim.run()
        assert sim.pending_events == 2
        sim.run(max_events=20)
        assert order == ["a", "delivery", "c"]


class TestRawAndEventEntriesShareBuckets:
    def test_step_wraps_a_raw_delivery_and_keeps_bucket_order(self):
        sim = Simulator()
        net = Network(sim)
        got = []
        net.register("a", got.append)
        net.register("b", lambda message: got.append(message.kind))
        queue = sim._queue
        queue.push(1.0, lambda: got.append("event-1"), PRIORITY_DELIVERY)
        net.send("a", "b", "raw")  # raw entry, same (1.0, delivery) key
        queue.push(1.0, lambda: got.append("event-2"), PRIORITY_DELIVERY)
        assert queue.heap_size == 3
        assert sim.step() and got == ["event-1"]
        wrapped = queue.pop()
        assert (wrapped.time, wrapped.priority, wrapped.label) == (
            1.0, PRIORITY_DELIVERY, "deliver:raw:a->b"
        )
        wrapped.fire()
        sim.run()
        assert got == ["event-1", "raw", "event-2"]

    def test_network_built_mid_run_still_delivers(self):
        """The late-claimed ``message_sink`` fallback of the drain loop."""
        sim = Simulator()
        got = []

        def build_and_send():
            net = Network(sim)
            net.register("a", got.append)
            net.register("b", lambda message: got.append(message.kind))
            net.send("a", "b", "late")

        sim.schedule_at(1.0, build_and_send)
        sim.run()
        assert got == ["late"]

    def test_a_simulator_serves_one_network(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(RuntimeError):
            Network(sim)
        assert sim._queue.message_sink == net._deliver
        assert sim._queue.run_sink == net._deliver_run


# -- runs of raw deliveries ----------------------------------------------------
#
# The drain loop hands a run of consecutive raw entries to the network's
# run form in one call.  Each test queues one fan-out of four raw copies
# (a, b, c, d) at t=1 and a local event at t=2, drains it with ``run()``
# and, separately, with ``step()`` in a loop, and checks that both give the
# same handler order, ``events_executed`` and queued remainder.

COPIES = "abcd"


def _fan_out(script):
    """A simulator whose receivers log their name and then run
    ``script[name](sim, log)``, with the four copies and the later event
    queued."""
    sim = Simulator()
    net = Network(sim)
    log = []

    def receiver(name):
        def receive(message):
            log.append(name)
            if name in script:
                script[name](sim, log)
        return receive

    net.register("src", log.append)
    for name in COPIES:
        net.register(name, receiver(name))
    net.send_many("src", list(COPIES), "K")
    sim.schedule_at(2.0, lambda: log.append("later"), label="later")
    assert sim._queue.heap_size == len(COPIES) + 1
    return sim, log


def _remainder(sim):
    """What is still queued, in pop order: a delivery by its destination,
    an event by its label."""
    return [
        event.arg.dst if event.label.startswith("deliver:") else event.label
        for event in iter(sim._queue.pop, None)
    ]


def _by_step(sim, budget=None):
    """``step()`` in a loop, at most ``budget`` times."""
    steps = 0
    while budget is None or steps < budget:
        if not sim.step():
            break
        steps += 1


class TestRunsOfDeliveries:
    def test_budget_runs_out_at_the_second_copy(self):
        sim, log = _fan_out({})
        with pytest.raises(SimulationError, match="after 1 events"):
            sim.run(max_events=1)
        stepped, stepped_log = _fan_out({})
        _by_step(stepped, budget=1)
        assert log == stepped_log == ["a"]
        assert sim.events_executed == stepped.events_executed == 1
        assert sim.pending_events == stepped.pending_events == 4
        assert sim.now == stepped.now == 1.0
        assert _remainder(sim) == _remainder(stepped) == ["b", "c", "d", "later"]

    def test_budget_runs_out_mid_run_and_the_rest_follows(self):
        sim, log = _fan_out({})
        with pytest.raises(SimulationError):
            sim.run(max_events=2)
        sim.run()
        stepped, stepped_log = _fan_out({})
        _by_step(stepped)
        assert log == stepped_log == ["a", "b", "c", "d", "later"]
        assert sim.events_executed == stepped.events_executed == 5

    def test_second_copy_raises(self):
        def boom(sim, log):
            raise ValueError("boom")

        sim, log = _fan_out({"b": boom})
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        stepped, stepped_log = _fan_out({"b": boom})
        with pytest.raises(ValueError, match="boom"):
            _by_step(stepped)
        assert log == stepped_log == ["a", "b"]
        # The raising copy was consumed, the rest stay queued.
        assert sim.events_executed == stepped.events_executed == 2
        assert sim.pending_events == stepped.pending_events == 3
        assert _remainder(sim) == _remainder(stepped) == ["c", "d", "later"]

    def test_second_copy_queues_a_smaller_key(self):
        def urgent(sim, log):
            sim.schedule(
                0.0, lambda: log.append("urgent"), priority=PRIORITY_DELIVERY - 1
            )

        sim, log = _fan_out({"b": urgent})
        sim.run()
        stepped, stepped_log = _fan_out({"b": urgent})
        _by_step(stepped)
        assert log == stepped_log == ["a", "b", "urgent", "c", "d", "later"]
        assert sim.events_executed == stepped.events_executed == 6
        assert sim.pending_events == stepped.pending_events == 0
        assert sim._queue.heap_size == stepped._queue.heap_size == 0

    def test_handlers_read_the_queue_length_of_a_step(self):
        def length(sim, log):
            log.append(len(sim._queue))

        script = {name: length for name in COPIES}
        sim, log = _fan_out(script)
        sim.run()
        stepped, stepped_log = _fan_out(script)
        _by_step(stepped)
        assert log == stepped_log == ["a", 4, "b", 3, "c", 2, "d", 1, "later"]
        assert sim.events_executed == stepped.events_executed == 5

    def test_a_run_stops_at_an_event_in_its_bucket(self):
        def world():
            sim = Simulator()
            net = Network(sim)
            log = []
            net.register("src", log.append)
            for name in COPIES:
                net.register(name, lambda message: log.append(message.dst))
            # One bucket at (1.0, delivery): a, b, the event, c, d.
            net.send_many("src", ["a", "b"], "K")
            sim.schedule_at(1.0, lambda: log.append("event"), PRIORITY_DELIVERY, "event")
            net.send_many("src", ["c", "d"], "K")
            return sim, log

        sim, log = world()
        with pytest.raises(SimulationError, match="after 3 events"):
            sim.run(max_events=3)
        stepped, stepped_log = world()
        _by_step(stepped, budget=3)
        assert log == stepped_log == ["a", "b", "event"]
        assert _remainder(sim) == _remainder(stepped) == ["c", "d"]
        sim, log = world()
        sim.run()
        assert log == ["a", "b", "event", "c", "d"]
        assert sim.events_executed == 5
