"""Events and the event queue.

Events are ordered by ``(time, priority, seq)``.  The sequence number is
assigned by the queue at insertion and guarantees a *deterministic* total
order even when many events share a timestamp — essential for reproducible
distributed-system runs.

Performance notes (the simulator's innermost loop lives here):

* The queue is *time-bucketed*: one list per distinct ``(time, priority)``
  key holding that key's entries in insertion order, plus a heap of the
  distinct keys.  FIFO within a list *is* the ``seq`` order, so nothing is
  sifted or compared per event — a broadcast round of N−1 copies that all
  land at one instant costs one heap push, not N−1 (measured on
  ``general_case(256, 128, 64)``: 181,055 events under 11 keys).
* ``Event`` is a ``__slots__`` class; no per-event ``__dict__``.
* The queue tracks live (non-cancelled) events with a counter, making
  ``__len__``/``__bool__`` O(1) instead of an O(queue) scan.
* Cancelled entries normally wait in their bucket until reached; when they
  outnumber live ones past a threshold the buckets are compacted in place,
  bounding memory in long runs with heavy timer cancellation (e.g. the
  reliable-delivery ACK timers of latency sweeps).

Tie-breaking policy
-------------------

The total order at equal ``(time, priority)`` is an explicit, documented
policy, not an accident of insertion:

* **Default (FIFO)**: events that share ``(time, priority)`` run in
  insertion order (ascending ``seq``) — the order of their bucket.  This is
  the deterministic behaviour every sweep and benchmark relies on,
  bit-identical whether or not a tie-break policy object is installed.
  Keys are equal when their floats compare equal, nothing looser.
* **Explorer-controlled**: a :class:`TieBreakPolicy` assigned to
  :attr:`EventQueue.tie_break` is consulted whenever more than one live
  event shares the minimal ``(time, priority)`` key — the *choice group*,
  i.e. the live entries of the head bucket.  The policy picks which group
  member runs next; the rest keep their places in the bucket, so declining
  to deviate reproduces FIFO exactly.  :mod:`repro.explore` uses this hook
  to enumerate message-delivery and same-timestamp event interleavings.

Events with *different* priorities are never permuted (deliveries keep
running before local work at equal times), so a policy cannot express
schedules the simulator's semantics forbid.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Sequence

#: Default event priority.  Lower priorities run first at equal times.
PRIORITY_NORMAL = 0
#: Priority used for message deliveries so that, at equal times, deliveries
#: happen before locally scheduled work (mirrors "process messages having
#: arrived" in the paper's algorithm).
PRIORITY_DELIVERY = -1


class Event:
    """A scheduled occurrence in virtual time.

    Attributes:
        time: virtual time at which the event fires.
        priority: tie-break rank at equal times (lower runs first).
        seq: insertion sequence number; final deterministic tie-break.
        action: callable run when the event fires.  Called with no
            arguments unless ``arg`` is set.
        arg: optional single argument passed to ``action``.  The network's
            delivery fast path stores the message here instead of closing
            over it — one slot write instead of a closure allocation per
            message.
        label: human-readable tag used in traces and debugging.
        cancelled: a cancelled event stays queued but is skipped.
    """

    __slots__ = (
        "time", "priority", "seq", "action", "arg", "label", "cancelled", "_queue"
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[..., Any],
        label: str = "",
        cancelled: bool = False,
        arg: Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.arg = arg
        self.label = label
        self.cancelled = cancelled
        self._queue: "EventQueue | None" = None

    def fire(self) -> Any:
        """Invoke the action (with ``arg`` when one was attached)."""
        if self.arg is None:
            return self.action()
        return self.action(self.arg)

    def cancel(self) -> None:
        """Mark this event so the simulator will skip it, and drop its
        callback: a timer whose ``arg`` points back at its holder (an ARQ
        frame's ``timer``) would otherwise stay a reference cycle."""
        if self.cancelled:
            return
        self.cancelled = True
        self.action = self.arg = None
        queue = self._queue
        if queue is not None:
            queue._note_cancel()

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (
            f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, "
            f"label={self.label!r}{state})"
        )


class TieBreakPolicy:
    """Chooses which of several same-``(time, priority)`` events runs next.

    ``choose`` receives the live *choice group* sorted by insertion order
    (index 0 = the FIFO default) and returns the index to run; out-of-range
    answers fall back to 0.  ``on_execute`` observes *every* event the
    queue hands to the simulator (group of one included), in execution
    order — schedule recorders and partial-order reductions hook here.
    """

    def choose(self, candidates: Sequence[Event]) -> int:  # pragma: no cover
        return 0

    def on_execute(self, event: Event) -> None:  # pragma: no cover
        pass


class EventQueue:
    """A priority queue of :class:`Event` with deterministic ordering.

    Same-key ordering is governed by the tie-break policy documented in
    the module docstring: FIFO by insertion sequence unless a
    :class:`TieBreakPolicy` is installed on :attr:`tie_break`.
    """

    #: Compact only once at least this many cancelled entries are still
    #: queued (avoids churn on small queues where an O(n) sweep per cancel
    #: would dominate).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        # One FIFO list per distinct (time, priority) key, and a heap of
        # those keys.  The dict key and the heap entry are the *same* tuple
        # object: the drain loop detects a smaller key by identity.
        self._buckets: dict[tuple[float, int], list[Any]] = {}
        self._keys: list[tuple[float, int]] = []
        #: The bucket ``Simulator._run_fast`` is iterating, if any;
        #: :meth:`compact` must not shift entries under that iteration.
        self._draining: list[Any] | None = None
        self._seq = 0
        self._live = 0
        self._cancelled_in_heap = 0
        #: Optional :class:`TieBreakPolicy`; ``None`` keeps the FIFO fast
        #: path (bit-identical to the policy-free queue of earlier PRs).
        self.tie_break: TieBreakPolicy | None = None
        #: Delivery sink for *raw* entries.  The network claims this
        #: (first come, first served) and may then queue plain payloads
        #: instead of :class:`Event` objects (:meth:`push_raw`); ``step()``
        #: and the controlled loop call ``message_sink(payload)`` for those.
        #: Raw entries are uncancellable by construction (deliveries never
        #: cancel) and skip one Event allocation per message.
        self.message_sink: Callable[[Any], None] | None = None
        #: The same sink's run form, claimed with it, for the FIFO drain
        #: loop: ``run_sink(bucket, index, budget)`` delivers the raw
        #: entries from ``bucket[index]`` on, exactly as ``message_sink``
        #: would one by one, taking each off the live count before its
        #: handler.  It stops before the first :class:`Event`, once
        #: ``budget`` entries are delivered, or after a handler that queued
        #: a smaller key, and returns how many it consumed; if a handler
        #: raises, that count (the raising entry included) is left in
        #: :attr:`run_consumed` first.
        self.run_sink: Callable[[list[Any], int, float], int] | None = None
        self.run_consumed = 0
        #: ``payload -> label``, claimed with the sinks: the label of a
        #: raw entry wherever it is wrapped, so ``step()`` and the
        #: tie-break policy see the label a scheduled delivery would carry.
        self._message_label: Callable[[Any], str] | None = None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Queued entries, including not-yet-removed cancelled ones."""
        return self._live + self._cancelled_in_heap

    def push(
        self,
        time: float,
        action: Callable[..., Any],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
        arg: Any = None,
    ) -> Event:
        """Insert an event and return it (so callers may cancel it)."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, action, label, False, arg)
        event._queue = self
        key = (time, priority)
        try:
            bucket = self._buckets[key]
        except KeyError:
            self._buckets[key] = bucket = []
            heappush(self._keys, key)
        bucket.append(event)
        self._live += 1
        return event

    def push_batch(
        self,
        items: Sequence[tuple[float, Callable[..., Any]]],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> list[Event]:
        """Insert many ``(time, action)`` timers; same as a loop of
        :meth:`push` calls in ``items`` order."""
        return [self.push(time, action, priority, label) for time, action in items]

    def push_raw(self, time: float, priority: int, payloads: Sequence[Any]) -> None:
        """Queue ``payloads`` for :attr:`message_sink` under one key, in order.

        The network's delivery path: one list extension per send or per
        whole broadcast, no :class:`Event` and no sequence number (the
        position in the bucket is the order).
        """
        key = (time, priority)
        try:
            bucket = self._buckets[key]
        except KeyError:
            self._buckets[key] = bucket = []
            heappush(self._keys, key)
        bucket += payloads
        self._live += len(payloads)

    def _wrap_raw(self, key: tuple[float, int], payload: Any) -> Event:
        """Materialize an :class:`Event` for a raw delivery entry, labelled
        by the network.

        Only the non-fast paths (``step()``, controlled pops) see raw
        entries as events; the fast drain loop hands them to
        :attr:`run_sink` a run at a time.
        """
        seq = self._seq
        self._seq = seq + 1
        return Event(
            key[0], key[1], seq, self.message_sink, self._message_label(payload),
            False, payload,
        )

    def _head(self) -> tuple[tuple[float, int], list[Any]] | None:
        """The key and bucket of the next live entry, now at ``bucket[0]``.

        Cancelled entries and exhausted buckets ahead of it are discarded.
        """
        keys = self._keys
        while keys:
            key = keys[0]
            bucket = self._buckets[key]
            dead = 0
            for payload in bucket:
                if payload.__class__ is not Event or not payload.cancelled:
                    if dead:
                        del bucket[:dead]
                        self._cancelled_in_heap -= dead
                    return key, bucket
                dead += 1
            self._cancelled_in_heap -= dead
            heappop(keys)
            del self._buckets[key]
        return None

    def pop(self) -> Event | None:
        """Remove and return the next live event, or ``None`` if empty."""
        head = self._head()
        if head is None:
            return None
        key, bucket = head
        policy = self.tie_break
        index = 0 if policy is None else self._choose(policy, key, bucket)
        event = bucket.pop(index)
        if not bucket:
            heappop(self._keys)
            del self._buckets[key]
        self._live -= 1
        if event.__class__ is not Event:
            event = self._wrap_raw(key, event)
        # Detach so a late cancel() of an already-executed event cannot
        # corrupt the live counter.
        event._queue = None
        if policy is not None:
            policy.on_execute(event)
        return event

    def _choose(
        self, policy: TieBreakPolicy, key: tuple[float, int], bucket: list[Any]
    ) -> int:
        """Index in the head ``bucket`` of the entry ``policy`` runs next.

        The choice group is the bucket's live entries in insertion order;
        cancelled ones are dropped first, and the unchosen keep their
        places, so the FIFO order among them is preserved for later groups.
        """
        group = []
        for payload in bucket:
            if payload.__class__ is not Event:
                payload = self._wrap_raw(key, payload)
            elif payload.cancelled:
                continue
            group.append(payload)
        self._cancelled_in_heap -= len(bucket) - len(group)
        bucket[:] = group
        if len(group) == 1:
            return 0
        index = policy.choose(group)
        return index if 0 <= index < len(group) else 0

    def peek_time(self) -> float | None:
        """Time of the next live event without removing it."""
        head = self._head()
        return None if head is None else head[0][0]

    # -- cancellation bookkeeping ---------------------------------------------

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for an event still queued."""
        self._live = live = self._live - 1
        self._cancelled_in_heap = cancelled = self._cancelled_in_heap + 1
        if cancelled > live and cancelled >= self.COMPACT_MIN_CANCELLED:
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries, emptied buckets and their keys.

        O(queued) — called automatically once cancelled entries outnumber
        live ones in a sufficiently large queue, so the amortized cost per
        cancellation is O(1).  Everything is edited in place (the
        simulator's drain loop holds these containers across events), and
        the bucket being drained is left alone: its cancelled entries stay
        counted and are skipped when reached.
        """
        if not self._cancelled_in_heap:
            return
        buckets = self._buckets
        draining = self._draining
        emptied = []
        for key, bucket in buckets.items():
            if bucket is draining:
                continue
            kept = [
                payload for payload in bucket
                if payload.__class__ is not Event or not payload.cancelled
            ]
            if len(kept) != len(bucket):
                self._cancelled_in_heap -= len(bucket) - len(kept)
                if kept:
                    bucket[:] = kept
                else:
                    emptied.append(key)
        if emptied:
            for key in emptied:
                del buckets[key]
            self._keys[:] = buckets
            heapify(self._keys)

    def discard(self) -> None:
        """Drop every queued entry and both forms of the delivery sink: the
        run is over.

        Each queued event loses its callback and its queue link as well,
        so a handle still held elsewhere (a behaviour's next step, an ARQ
        frame's timer) no longer closes a cycle back into the run.
        """
        for bucket in self._buckets.values():
            for entry in bucket:
                if entry.__class__ is Event:
                    entry.action = entry.arg = entry._queue = None
        self._buckets = {}
        self._keys = []
        self._live = self._cancelled_in_heap = 0
        self.message_sink = self.run_sink = None
