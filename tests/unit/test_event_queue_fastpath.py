"""Fast-path behaviour of the event queue: O(1) sizing and compaction.

The queue tracks live events with a counter, so ``len``/``bool`` must not
scan whatever it stores them in, and cancelled entries must not accumulate
without bound (the old behaviour leaked cancelled timers for the whole run
in latency sweeps).
"""


from repro.simkernel.events import PRIORITY_DELIVERY, EventQueue


def _noop():
    return None


class TestConstantTimeSizing:
    def test_len_matches_live_counter_without_scanning(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(100)]
        # The counter IS the length: no O(heap) walk hides behind len().
        assert queue._live == 100
        assert len(queue) == 100
        for event in events[:40]:
            event.cancel()
        assert queue._live == 60
        assert len(queue) == 60
        assert bool(queue) is True

    def test_cancel_then_len_path(self):
        """Cancelling updates the length immediately, before any pop."""
        queue = EventQueue()
        handle = queue.push(1.0, _noop)
        other = queue.push(2.0, _noop)
        handle.cancel()
        assert len(queue) == 1
        assert queue.pop() is other
        assert len(queue) == 0
        assert not queue

    def test_double_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_counter(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        popped = queue.pop()
        assert popped is event
        event.cancel()  # already executed; must not decrement live count
        assert len(queue) == 1

    def test_len_is_constant_work_per_call(self):
        """Pin O(1): len()/bool() must not touch what the queue stores."""
        queue = EventQueue()
        for i in range(1000):
            queue.push(float(i % 10), _noop)

        class Exploding:
            def _explode(self, *args):
                raise AssertionError("len() touched the queue's containers")

            __iter__ = __len__ = __bool__ = __getitem__ = __contains__ = _explode

        # Whatever containers the queue holds, by type rather than by name.
        swapped = [
            name for name, value in vars(queue).items()
            if isinstance(value, (dict, list))
        ]
        assert swapped
        for name in swapped:
            setattr(queue, name, Exploding())
        assert len(queue) == 1000
        assert bool(queue) is True
        assert queue.heap_size == 1000


class TestCompaction:
    def test_cancelled_entries_are_compacted_away(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(1000)]
        for event in events[:900]:
            event.cancel()
        assert len(queue) == 100
        # The heap must have compacted down: cancelled residue is bounded by
        # the compaction invariant (under the minimum threshold, or at most
        # half the physical heap), never the 900 entries it used to keep.
        residue = queue.heap_size - len(queue)
        assert (
            residue < EventQueue.COMPACT_MIN_CANCELLED
            or residue * 2 <= queue.heap_size
        )
        assert queue.heap_size <= 2 * len(queue) + EventQueue.COMPACT_MIN_CANCELLED

    def test_small_queues_do_not_churn(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        # Below COMPACT_MIN_CANCELLED nothing is rebuilt.
        assert queue.heap_size == 10
        assert len(queue) == 1

    def test_order_preserved_across_compaction(self):
        queue = EventQueue()
        events = [
            queue.push(float(i % 7), _noop, label=str(i)) for i in range(500)
        ]
        for i, event in enumerate(events):
            if i % 5:
                event.cancel()
        popped = []
        while queue:
            popped.append(queue.pop())
        survivors = [e for i, e in enumerate(events) if i % 5 == 0]
        assert popped == sorted(survivors, key=lambda e: (e.time, e.priority, e.seq))

    def test_explicit_compact_is_safe_when_clean(self):
        queue = EventQueue()
        queue.push(1.0, _noop)
        queue.compact()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled_and_updates_bookkeeping(self):
        queue = EventQueue()
        first = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        first.cancel()
        assert queue.peek_time() == 2.0
        assert queue._cancelled_in_heap == 0


class TestOrderingSemantics:
    def test_delivery_priority_beats_normal_at_equal_time(self):
        queue = EventQueue()
        normal = queue.push(5.0, _noop)
        delivery = queue.push(5.0, _noop, priority=PRIORITY_DELIVERY)
        assert queue.pop() is delivery
        assert queue.pop() is normal

    def test_insertion_order_breaks_exact_ties(self):
        queue = EventQueue()
        events = [queue.push(1.0, _noop) for _ in range(20)]
        assert [queue.pop() for _ in range(20)] == events

    def test_event_comparison_still_works(self):
        """Event keeps its (time, priority, seq) ordering for external users."""
        queue = EventQueue()
        early = queue.push(1.0, _noop)
        late = queue.push(2.0, _noop)
        assert early < late
        assert not late < early

    def test_pop_on_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_many_cancel_pop_interleavings_keep_counter_exact(self):
        queue = EventQueue()
        events = [queue.push(float(i % 13), _noop) for i in range(300)]
        expected_live = 300
        popped_events = set()
        for i, event in enumerate(events):
            if i % 3 == 0:
                # Cancelling an already-popped (or already-cancelled) event
                # must not change the live count.
                if id(event) not in popped_events and not event.cancelled:
                    expected_live -= 1
                event.cancel()
            if i % 7 == 0:
                popped = queue.pop()
                if popped is not None:
                    popped_events.add(id(popped))
                    expected_live -= 1
            assert len(queue) == expected_live
        while queue.pop() is not None:
            expected_live -= 1
        assert expected_live == 0
        assert len(queue) == 0
