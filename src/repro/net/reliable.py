"""Reliable point-to-point delivery over lossy channels.

The resolution algorithm assumes "the general support provided by the
underlying system, including FIFO message sending/receiving between
objects" (Section 4.2), and Section 4.5 asks implementations "to support
reliable message passing".  :class:`ReliableNetwork` provides that support
over the lossy base network: per-pair sequence numbers, positive
acknowledgements, timer-driven retransmission, duplicate suppression and
in-order delivery.

It is two hooks on the base network's one send and delivery rule:

* ``_frame`` wraps each copy of a sequenced kind, in ``send`` and in the
  batched ``send_many`` alike, in a slotted :class:`_Frame`: the wire
  payload *and* the pending entry.  On the simulator its retransmission
  timer is one event pushed straight onto the queue, the frame its arg.
* ``_receive``, the receive step, sees what reached a live endpoint.  The
  ``T_ACK`` (its payload the bare seq) settles a frame and cancels its
  timer; checksum and dead-letter drops, duplicates and out-of-order
  frames are consumed; an in-order frame is unwrapped in place and goes
  up in the wire message itself, the frames it frees after it.

Two kinds travel unsequenced, as plain datagrams (``UNSEQUENCED_KINDS``):
the transport's own ``T_ACK`` and the failure detector's ``HEARTBEAT``.  A
beat is a liveness probe, so its loss is the signal the detector
measures: sending it reliably would cost a frame, a pending entry, a
retransmission timer and a transport ACK per beat, buy nothing, and hold
back the protocol frames queued behind a lost beat on the same pair.  A
corrupted datagram is checksum-dropped like a corrupted frame.

Accounting: ``sent_by_kind`` keeps counting *logical* sends (one per
``send`` call or fan-out copy) so the paper's complexity formulas remain checkable;
retransmissions and transport ACKs are tallied separately
(``retransmissions``, ``transport_acks``) — they are the price of the
fault model, not of the algorithm.

Retry exhaustion (a permanently dead destination) does not raise out of
the scheduler: the frame is *dead-lettered* — a ``msg.dead_letter`` trace
event is recorded, ``dead_letters`` incremented and the optional
``on_delivery_failure`` callback invoked with the frame — so one
unreachable peer fails one send, not the whole simulation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net.detector import KIND_HEARTBEAT
from repro.net.failures import FailureInjector
from repro.net.message import Message
from repro.net.network import Network
from repro.simkernel.events import PRIORITY_DELIVERY, PRIORITY_NORMAL

KIND_TRANSPORT_ACK = "T_ACK"
UNSEQUENCED_KINDS = frozenset((KIND_TRANSPORT_ACK, KIND_HEARTBEAT))


class _Frame:
    """One sequenced send: the wire payload and its own pending entry, whose
    ``timer`` the ACK cancels so no ghost ``rto:`` event outlives it."""

    __slots__ = ("seq", "kind", "inner", "src", "dst", "retries", "timer")

    def __init__(self, seq: int, kind: str, inner: Any, src: str, dst: str) -> None:
        self.seq = seq
        self.kind = kind
        self.inner = inner
        self.src = src
        self.dst = dst
        self.retries = 0
        self.timer: Any = None

    @property
    def action(self):
        """Expose the wrapped payload's action for per-action tracing."""
        return getattr(self.inner, "action", None)


class ReliableNetwork(Network):
    """A :class:`Network` with ARQ-style reliable, in-order delivery.

    Messages sent through :meth:`send`, bar ``UNSEQUENCED_KINDS``, are
    guaranteed to reach a live receiver exactly once and in per-pair FIFO
    order, even when the failure plan drops frames.  Liveness requires the
    destination to stay up; ``max_retries`` bounds the wait for a dead one,
    after which the frame is dead-lettered (see module docstring).

    The receive step runs after the crash check: a frame or ``T_ACK`` that
    reaches a crashed endpoint is lost (``msg.lost``) with no sequence
    number consumed and nothing acknowledged or settled, so a
    retransmission delivers it once the endpoint is back up.
    """

    provides_reliable_delivery = True

    def __init__(
        self,
        *args,
        ack_timeout: float = 5.0,
        max_retries: int = 60,
        on_delivery_failure: Optional[Callable[[_Frame], None]] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        self.on_delivery_failure = on_delivery_failure
        self._next_seq: dict[tuple[str, str], int] = {}
        self._expected: dict[tuple[str, str], int] = {}
        #: Out-of-order arrivals by pair; a pair leaves once drained empty.
        self._reorder: dict[tuple[str, str], dict[int, Message]] = {}
        self._pending: dict[tuple[str, str, int], _Frame] = {}
        #: Tombstones for dead-lettered frames.  A retransmission already
        #: in flight when the retry budget runs out (channel FIFO can
        #: push its arrival past the final timer) must NOT resurrect the
        #: frame after ``on_delivery_failure`` reported it lost.
        self._dead: set[tuple[str, str, int]] = set()
        self._released: list[Message] = []
        self.retransmissions = 0
        self.transport_acks = 0
        self.duplicates_dropped = 0
        self.dead_letters = 0

    # -- sending ------------------------------------------------------------------

    _unframed = UNSEQUENCED_KINDS

    def _frame(self, src: str, dst: str, kind: str, payload: object) -> _Frame:
        """One copy's wire payload: its frame, ``_pending`` entry and timer."""
        pair = (src, dst)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        frame = _Frame(seq, kind, payload, src, dst)
        self._pending[(src, dst, seq)] = frame
        # Simulator.schedule's timer, pushed without its validation.
        queue = self._sim_queue
        if queue is not None:
            frame.timer = queue.push(
                self.sim.now + self.ack_timeout, self._maybe_retransmit,
                PRIORITY_NORMAL, f"rto:{src}->{dst}:{seq}", frame,
            )
        else:
            self._arm_foreign_timer(frame)
        return frame

    def _arm_foreign_timer(self, frame: _Frame) -> None:
        frame.timer = self.sim.schedule(
            self.ack_timeout, self._maybe_retransmit,
            label=f"rto:{frame.src}->{frame.dst}:{frame.seq}", arg=frame,
        )

    def _maybe_retransmit(self, frame: _Frame) -> None:
        src, dst, seq = frame.src, frame.dst, frame.seq
        key = (src, dst, seq)
        if key not in self._pending:
            return  # acknowledged in the meantime
        now = self.sim.now
        if frame.retries >= self.max_retries:
            # Retry budget exhausted: dead-letter the frame instead of
            # raising out of the scheduler (which would abort the whole
            # simulation for one unreachable destination).
            del self._pending[key]
            self._dead.add(key)
            self.dead_letters += 1
            self.trace.record(now, "msg.dead_letter", src, dst=dst, kind=frame.kind,
                              seq=seq, retries=frame.retries)
            if self.on_delivery_failure is not None:
                self.on_delivery_failure(frame)
            # Resynchronize the receive window past the dead frame, or every
            # later frame on the pair buffers forever behind a seq that will
            # never arrive (its loss was just reported; FIFO holds for the rest).
            pair = (src, dst)
            if self._expected.get(pair, 0) == seq:
                self._expected[pair] = seq + 1
                if pair in self._reorder:
                    self._release(pair)
                    if self._released:  # unwrapped: _deliver hands them all up
                        self._deliver(self._released.pop(0))
            return
        frame.retries += 1
        self.retransmissions += 1
        # Re-wire directly (bypassing send() so the logical count stays put).
        queue = self._sim_queue
        message = Message(src, dst, frame.kind, frame)
        fate = self.injector.decide(src, dst, now)
        delay = self._uniform_delay
        if delay is not None:
            # As in Network.send: no channel, its FIFO clamp cannot fire.
            deliver_at = now + delay
            message.send_time = now
            message.deliver_time = deliver_at
        else:
            deliver_at = self._channel(src, dst).stamp(message, now)
        self.trace.record(now, "msg.retransmit", src, dst=dst, kind=frame.kind, seq=seq)
        if fate != FailureInjector.DROP:
            if fate == FailureInjector.CORRUPT:
                message.corrupted = True
            # Queued raw like a first send; foreign kernels and wire
            # diversion keep the scheduled delivery.
            if queue is not None and self.deliver_via is None:
                queue.push_raw(deliver_at, PRIORITY_DELIVERY, (message,))
            else:
                self._schedule_delivery(message, deliver_at)
        if queue is not None:
            frame.timer = queue.push(
                now + self.ack_timeout, self._maybe_retransmit,
                PRIORITY_NORMAL, f"rto:{src}->{dst}:{seq}", frame,
            )
        else:
            self._arm_foreign_timer(frame)

    # -- receiving -----------------------------------------------------------------

    def _receive(self, message: Message) -> Optional[Message]:
        """The ARQ receive step (``Network._receive``): ``message`` reached a
        live endpoint; return it to hand up, or ``None`` once consumed."""
        kind = message.kind
        if kind in UNSEQUENCED_KINDS:
            if message.corrupted:
                # Checksum failure on a datagram: its fields are untrusted.
                # A corrupted ACK must NOT cancel retransmission (the timer
                # re-sends the frame and the receiver re-acknowledges), and
                # a corrupted beat must not count as a sign of life.
                self.trace.record(self.sim.now, "msg.checksum_drop", message.dst,
                                  src=message.src, kind=kind)
                return None
            if kind != KIND_TRANSPORT_ACK:
                return message
            settled = self._pending.pop((message.dst, message.src, message.payload), None)
            if settled is not None:
                settled.timer.cancel()
            return None
        frame = message.payload
        if frame.__class__ is not _Frame:
            return message  # unwrapped already: released after a dead letter
        src, dst, seq = message.src, message.dst, frame.seq
        if (src, dst, seq) in self._dead:
            # Dead-lettered while this retransmission was in flight (FIFO
            # clamping can delay it past the final retry timer): the sender
            # already reported it lost, so drop it, unacked, not resurrect it.
            self.trace.record(self.sim.now, "msg.dead_letter_drop", dst,
                              src=src, kind=frame.kind, seq=seq)
            return None
        if message.corrupted:
            # Checksum failure: a corrupted frame is discarded unacked and
            # recovered by retransmission — transient channel errors never
            # reach the algorithm (the paper's non-fail-stop hardware
            # faults, Section 2, made harmless by the transport).
            self.trace.record(self.sim.now, "msg.checksum_drop", dst, src=src, seq=seq)
            return None
        # Always (re-)acknowledge; ACK loss is covered by retransmission.  The
        # class's send: a wrapper on the instance sees upper-layer sends only.
        self.transport_acks += 1
        Network.send(self, dst, src, KIND_TRANSPORT_ACK, seq)
        pair = (src, dst)
        expected = self._expected.get(pair, 0)
        if seq < expected:
            self.duplicates_dropped += 1
            self.trace.record(self.sim.now, "msg.duplicate", dst, src=src, seq=seq)
            return None
        if seq > expected:
            self._reorder.setdefault(pair, {})[seq] = message
            return None
        # In order: unwrap in place (a transmission is delivered at most once).
        self._expected[pair] = seq + 1
        message.payload = frame.inner
        message.deliver_time = self.sim.now
        if pair in self._reorder:
            self._release(pair)
        return message

    def _release(self, pair: tuple[str, str]) -> None:
        """Move the buffered frames that now continue ``pair``'s window to
        ``_released``, unwrapped: they go up after the one that closed the gap."""
        buffered = self._reorder[pair]
        expected = self._expected[pair]
        while expected in buffered:
            message = buffered.pop(expected)
            message.payload = message.payload.inner
            message.deliver_time = self.sim.now
            self._released.append(message)
            expected += 1
        self._expected[pair] = expected
        if not buffered:
            del self._reorder[pair]
