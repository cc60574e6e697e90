"""Property: the optimized EventQueue is bit-identical to the seed heap.

The queue grew a fast path (one FIFO bucket per ``(time, priority)`` under
a heap of distinct keys, O(1) ``len`` via a live counter, lazy
cancellation with threshold compaction, batched insertion).  None of it
may change observable semantics: against a deliberately naive reference
model — a plain ``heapq`` of ``(time, priority, seq)`` keys with eager
cancelled-skip on pop — a randomized push/cancel/pop/batch workload must
produce the same pop order, the same ``len`` after every operation, and a
fully drained queue at the end, while compaction keeps the cancelled
residue bounded.  A second property drives the queue through the
simulator's drain loop, with most pushes sharing a key and the handlers
themselves pushing and cancelling; a third mixes a network's raw delivery
entries into the same buckets and checks that draining them a run at a time
equals draining them by ``step()``.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Message, Network
from repro.simkernel import Simulator
from repro.simkernel.events import PRIORITY_DELIVERY, PRIORITY_NORMAL, EventQueue
from repro.simkernel.scheduler import SimulationError


class ReferenceQueue:
    """The seed implementation, restated as simply as possible."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._cancelled = set()
        self._popped = set()

    def push(self, time, priority):
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, seq))
        return seq

    def cancel(self, seq):
        if seq not in self._popped:
            self._cancelled.add(seq)

    def pop(self):
        while self._heap:
            time, priority, seq = heapq.heappop(self._heap)
            if seq in self._cancelled:
                continue
            self._popped.add(seq)
            return (time, priority, seq)
        return None

    def __len__(self):
        return sum(
            1 for _, _, seq in self._heap if seq not in self._cancelled
        )


# Operations: ("push", time, priority) | ("batch", [times]) |
# ("cancel", index-into-pushed) | ("pop",).  Times are drawn from a tiny
# domain so (time, priority) ties are common — that is where ordering bugs
# live.
_TIMES = st.integers(min_value=0, max_value=7).map(float)
_PRIORITIES = st.sampled_from([PRIORITY_DELIVERY, PRIORITY_NORMAL, 1])
_OPS = st.one_of(
    st.tuples(st.just("push"), _TIMES, _PRIORITIES),
    st.tuples(st.just("batch"), st.lists(_TIMES, min_size=1, max_size=12)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("pop")),
)


def _key(event):
    return (event.time, event.priority, event.seq)


@given(ops=st.lists(_OPS, min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_churn_matches_reference(ops):
    queue = EventQueue()
    reference = ReferenceQueue()
    noop = lambda: None  # noqa: E731
    pushed = []  # (Event, ref seq), in push order — cancel targets

    for op in ops:
        if op[0] == "push":
            _, time, priority = op
            event = queue.push(time, noop, priority)
            ref_seq = reference.push(time, priority)
            assert event.seq == ref_seq
            pushed.append((event, ref_seq))
        elif op[0] == "batch":
            # A batch must be indistinguishable from the same loop of
            # single pushes (same seqs, same eventual pop order).
            events = queue.push_batch([(t, noop) for t in op[1]])
            for time, event in zip(op[1], events):
                ref_seq = reference.push(time, PRIORITY_NORMAL)
                assert event.seq == ref_seq
                pushed.append((event, ref_seq))
        elif op[0] == "cancel":
            if pushed:
                event, ref_seq = pushed[op[1] % len(pushed)]
                event.cancel()
                reference.cancel(ref_seq)
        else:  # pop
            popped = queue.pop()
            expected = reference.pop()
            if expected is None:
                assert popped is None
            else:
                assert popped is not None and _key(popped) == expected
        assert len(queue) == len(reference)
        assert bool(queue) == (len(reference) > 0)
        # Lazy cancellation must not let garbage accumulate: past the
        # compaction threshold, dead entries never exceed live ones.
        dead = queue.heap_size - len(queue)
        assert (
            dead <= max(len(queue), EventQueue.COMPACT_MIN_CANCELLED)
        ), f"compaction failed: {dead} dead vs {len(queue)} live"

    # Drain both to the floor: full residual order must agree too.
    while True:
        popped = queue.pop()
        expected = reference.pop()
        if expected is None:
            assert popped is None
            break
        assert popped is not None and _key(popped) == expected
    assert len(queue) == 0
    assert queue.pop() is None


# -- same-key churn through the drain loop ---------------------------------------
#
# Three times and two priorities: most pushes share a key, which is where a
# bucketed queue differs from a per-event heap.  A pushed event carries a
# script of pushes and cancels that it performs *while executing*; relative
# to the running event a scripted push lands on the same key, on a smaller
# one (same instant, delivery priority: it pre-empts the rest of the
# bucket) or on a later one.  The driver drains in ``run(max_events=k)``
# slices mixed with ``run(until=t)``, ``step()``, ``pop()`` and
# ``peek_time()``.

_FEW_TIMES = st.sampled_from([0.0, 1.0, 2.0])
_TWO_PRIORITIES = st.sampled_from([PRIORITY_DELIVERY, PRIORITY_NORMAL])
_CANCEL = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000))
_SCRIPT = st.lists(
    st.one_of(st.tuples(st.just("push"), _FEW_TIMES, _TWO_PRIORITIES), _CANCEL),
    max_size=4,
)
_DRIVER_OPS = st.one_of(
    st.tuples(st.just("push"), _FEW_TIMES, _TWO_PRIORITIES, _SCRIPT),
    _CANCEL,
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("until"), _FEW_TIMES),
    st.tuples(st.just("step")),
    st.tuples(st.just("pop")),
    st.tuples(st.just("peek")),
)


def _reference_peek(reference):
    live = [
        entry for entry in reference._heap if entry[2] not in reference._cancelled
    ]
    return min(live)[0] if live else None


@given(ops=st.lists(_DRIVER_OPS, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_same_key_churn_through_the_drain_loop(ops):
    sim = Simulator()
    queue = sim._queue
    reference = ReferenceQueue()
    pushed = []  # (Event, ref seq), in push order — cancel targets

    def push(time, priority, script=()):
        time = max(time, sim.now)  # the simulator refuses the past
        cell = []

        def handler():
            # Execution order IS the reference's pop order.
            assert reference.pop() == _key(cell[0])
            for op in script:
                apply(op)

        event = sim.schedule_at(time, handler, priority=priority)
        cell.append(event)
        ref_seq = reference.push(time, priority)
        assert event.seq == ref_seq
        pushed.append((event, ref_seq))

    def apply(op):
        if op[0] == "push":
            push(*op[1:])
        elif pushed:  # cancel
            event, ref_seq = pushed[op[1] % len(pushed)]
            event.cancel()
            reference.cancel(ref_seq)

    for op in ops:
        if op[0] in ("push", "cancel"):
            apply(op)
        elif op[0] == "run":
            try:
                sim.run(max_events=op[1])
            except SimulationError:
                pass  # budget exhausted mid-bucket: the tail must survive
        elif op[0] == "until":
            sim.run(until=op[1])
        elif op[0] == "step":
            idle = len(reference) == 0
            assert sim.step() is not idle
        elif op[0] == "pop":
            popped, expected = queue.pop(), reference.pop()
            assert (popped and _key(popped)) == expected
        else:  # peek
            assert queue.peek_time() == _reference_peek(reference)
        assert len(queue) == sim.pending_events == len(reference)
        assert queue.heap_size >= len(queue)

    sim.run()
    assert reference.pop() is None
    assert (len(queue), queue.heap_size) == (0, 0)
    assert queue.pop() is None and queue.peek_time() is None


# -- raw deliveries and events in one bucket ---------------------------------------
#
# Raw entries (a network's deliveries, which the drain loop hands over a run
# at a time) and events interleave in the same buckets.  Each entry carries
# a script it performs when it runs: queue more entries, raw or event, on
# the same key, a smaller one or a later one, and maybe raise.  The same
# operations drive two worlds, one drained by ``run()`` and one by
# ``step()`` in a loop; after every operation both have run the same
# entries in the same order, each seeing the same clock and ``len(queue)``,
# and agree on ``events_executed``, the live count and the clock.


class _Boom(Exception):
    pass


_ENTRY_KINDS = st.sampled_from(["raw", "event"])
_SPAWN = st.tuples(_ENTRY_KINDS, _FEW_TIMES, _TWO_PRIORITIES)
_ENTRY_SCRIPT = st.lists(st.one_of(_SPAWN, st.just(("raise",))), max_size=3)
_MIXED_OPS = st.one_of(
    st.tuples(st.just("push"), _ENTRY_KINDS, _FEW_TIMES, _TWO_PRIORITIES, _ENTRY_SCRIPT),
    _CANCEL,
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("until"), _FEW_TIMES),
)


class _MixedWorld:
    def __init__(self, by_runs: bool) -> None:
        self.by_runs = by_runs
        self.sim = Simulator()
        self.network = Network(self.sim)
        self.network.register("r", lambda message: self._execute(message.payload))
        self.log = []
        self.events = []  # cancel targets
        self.pushed = 0

    def push(self, kind, time, priority, script=()):
        time = max(time, self.sim.now)  # the simulator refuses the past
        entry = (self.pushed, tuple(script))
        self.pushed += 1
        if kind == "raw":
            message = Message("s", "r", "K", entry)
            self.sim._queue.push_raw(time, priority, (message,))
        else:
            self.events.append(
                self.sim.schedule_at(time, self._execute, priority, arg=entry)
            )

    def _execute(self, entry):
        ident, script = entry
        self.log.append((ident, self.sim.now, len(self.sim._queue)))
        for op in script:
            if op == ("raise",):
                raise _Boom(ident)
            self.push(*op)  # spawned entries carry no script

    def cancel(self, index):
        if self.events:
            self.events[index % len(self.events)].cancel()

    def drain(self, budget=None, until=None):
        """``run()``, or the same as ``step()`` in a loop; a raising handler
        ends either."""
        sim = self.sim
        try:
            if self.by_runs:
                try:
                    sim.run(until=until, max_events=budget)
                except SimulationError:
                    pass  # budget exhausted: the tail must survive
                return
            steps = 0
            while budget is None or steps < budget:
                next_time = sim._queue.peek_time()
                if next_time is None or (until is not None and next_time > until):
                    break
                steps += 1
                sim.step()
            if until is not None and until > sim.now:
                sim.advance_to(until)
        except _Boom:
            pass

    def state(self):
        sim = self.sim
        return self.log, sim.events_executed, sim.pending_events, sim.now


@given(ops=st.lists(_MIXED_OPS, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_runs_of_raw_entries_drain_like_steps(ops):
    worlds = [_MixedWorld(by_runs=True), _MixedWorld(by_runs=False)]
    for op in ops:
        for world in worlds:
            if op[0] == "push":
                world.push(*op[1:])
            elif op[0] == "cancel":
                world.cancel(op[1])
            elif op[0] == "run":
                world.drain(budget=op[1])
            else:
                world.drain(until=op[1])
        assert worlds[0].state() == worlds[1].state()
    for world in worlds:
        while world.sim.pending_events:
            world.drain()
    assert worlds[0].state() == worlds[1].state()
