"""Reliable point-to-point delivery over lossy channels.

The resolution algorithm assumes "the general support provided by the
underlying system, including FIFO message sending/receiving between
objects" (Section 4.2), and Section 4.5 asks implementations "to support
reliable message passing".  :class:`ReliableNetwork` provides that support
over the lossy base network: per-pair sequence numbers, positive
acknowledgements, timer-driven retransmission, duplicate suppression and
in-order delivery.

Two kinds travel unsequenced, as plain datagrams (``UNSEQUENCED_KINDS``):
the transport's own ``T_ACK`` and the failure detector's ``HEARTBEAT``.  A
beat is a liveness probe, so its loss is the signal the detector
measures: sending it reliably would cost a frame, a pending entry, a
retransmission timer and a transport ACK per beat, buy nothing, and hold
back the protocol frames queued behind a lost beat on the same pair.  A
corrupted datagram is checksum-dropped like a corrupted frame.

Accounting: ``sent_by_kind`` keeps counting *logical* sends (one per
``send`` call) so the paper's complexity formulas remain checkable;
retransmissions and transport ACKs are tallied separately
(``retransmissions``, ``transport_acks``) — they are the price of the
fault model, not of the algorithm.

Retry exhaustion (a permanently dead destination) does not raise out of
the scheduler: the frame is *dead-lettered* — a ``msg.dead_letter`` trace
event is recorded, ``dead_letters`` incremented and the optional
``on_delivery_failure`` callback invoked — so one unreachable peer fails
one send, not the whole simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.net.detector import KIND_HEARTBEAT
from repro.net.failures import FailureInjector
from repro.net.message import Message
from repro.net.network import Network

KIND_TRANSPORT_ACK = "T_ACK"
UNSEQUENCED_KINDS = frozenset((KIND_TRANSPORT_ACK, KIND_HEARTBEAT))


@dataclass
class _Frame:
    """Transport envelope: a sequenced user payload."""

    seq: int
    kind: str
    inner: Any

    @property
    def action(self):
        """Expose the wrapped payload's action for per-action tracing."""
        return getattr(self.inner, "action", None)


@dataclass
class _AckFrame:
    seq: int


@dataclass
class _PendingSend:
    frame: _Frame
    src: str
    dst: str
    retries: int = 0
    #: The armed retransmission timer, cancelled on ACK and on
    #: dead-letter so settled frames leave no ghost ``rto:`` events in
    #: the schedule space.
    timer: Any = None


class ReliableDeliveryError(RuntimeError):
    """A frame could not be delivered within the retry budget.

    Kept for API compatibility: exhaustion no longer raises (it
    dead-letters the frame instead), but callers may still use this class
    in their own ``on_delivery_failure`` handling.
    """


class ReliableNetwork(Network):
    """A :class:`Network` with ARQ-style reliable, in-order delivery.

    Messages sent through :meth:`send`, bar ``UNSEQUENCED_KINDS``, are
    guaranteed to reach a live receiver exactly once and in per-pair FIFO
    order, even when the failure plan drops frames.  Liveness requires the
    destination to stay up; ``max_retries`` bounds the wait for a dead one,
    after which the frame is dead-lettered (see module docstring).
    """

    #: Upper layers (e.g. :class:`~repro.net.multicast.ReliableMulticast`)
    #: check this to avoid stacking their own retransmission on top of ARQ.
    provides_reliable_delivery = True

    def __init__(
        self,
        *args,
        ack_timeout: float = 5.0,
        max_retries: int = 60,
        on_delivery_failure: Optional[Callable[["_PendingSend"], None]] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        self.on_delivery_failure = on_delivery_failure
        self._next_seq: dict[tuple[str, str], int] = {}
        self._expected: dict[tuple[str, str], int] = {}
        self._reorder: dict[tuple[str, str], dict[int, Message]] = {}
        self._pending: dict[tuple[str, str, int], _PendingSend] = {}
        #: Tombstones for dead-lettered frames.  A retransmission already
        #: in flight when the retry budget runs out (channel FIFO can
        #: push its arrival past the final timer) must NOT resurrect the
        #: frame after ``on_delivery_failure`` reported it lost.
        self._dead: set[tuple[str, str, int]] = set()
        self.retransmissions = 0
        self.transport_acks = 0
        self.duplicates_dropped = 0
        self.dead_letters = 0

    # -- sending ------------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: object = None) -> Message:
        if kind in UNSEQUENCED_KINDS:
            return super().send(src, dst, kind, payload)
        pair = (src, dst)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        frame = _Frame(seq, kind, payload)
        pending = _PendingSend(frame, src, dst)
        self._pending[(src, dst, seq)] = pending
        message = super().send(src, dst, kind, frame)
        self._arm_timer(pending)
        return message

    def _arm_timer(self, pending: _PendingSend) -> None:
        pending.timer = self.sim.schedule(
            self.ack_timeout,
            lambda: self._maybe_retransmit(pending),
            label=f"rto:{pending.src}->{pending.dst}:{pending.frame.seq}",
        )

    def _maybe_retransmit(self, pending: _PendingSend) -> None:
        key = (pending.src, pending.dst, pending.frame.seq)
        if key not in self._pending:
            return  # acknowledged in the meantime
        if pending.retries >= self.max_retries:
            # Retry budget exhausted: dead-letter the frame instead of
            # raising out of the scheduler (which would abort the whole
            # simulation for one unreachable destination).
            del self._pending[key]
            self._dead.add(key)
            self.dead_letters += 1
            self.trace.record(
                self.sim.now, "msg.dead_letter", pending.src,
                dst=pending.dst, kind=pending.frame.kind,
                seq=pending.frame.seq, retries=pending.retries,
            )
            if self.on_delivery_failure is not None:
                self.on_delivery_failure(pending)
            # Resynchronize the receive window past the dead frame:
            # without this every later frame on the channel would buffer
            # in ``_reorder`` forever, head-of-line blocked on a seq that
            # will never arrive.  (Loss of the frame was just reported
            # via on_delivery_failure; skipping it preserves FIFO for
            # the survivors.)
            pair = (pending.src, pending.dst)
            seq = pending.frame.seq
            if self._expected.get(pair, 0) == seq:
                self._expected[pair] = seq + 1
                buffered = self._reorder.get(pair, {})
                successor = buffered.pop(seq + 1, None)
                if successor is not None:
                    self._deliver_in_order(pair, successor)
            return
        pending.retries += 1
        self.retransmissions += 1
        # Re-wire directly (bypassing send() so the logical count stays put).
        message = Message(
            src=pending.src, dst=pending.dst, kind=pending.frame.kind,
            payload=pending.frame,
        )
        now = self.sim.now
        fate = self.injector.decide(pending.src, pending.dst, now)
        deliver_at = self._channel(pending.src, pending.dst).stamp(message, now)
        self.trace.record(
            now, "msg.retransmit", pending.src, dst=pending.dst,
            kind=pending.frame.kind, seq=pending.frame.seq,
        )
        if fate != FailureInjector.DROP:
            if fate == FailureInjector.CORRUPT:
                message.corrupted = True
            self._schedule_delivery(message, deliver_at)
        self._arm_timer(pending)

    # -- receiving -----------------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        kind = message.kind
        if kind in UNSEQUENCED_KINDS:
            if message.corrupted:
                # Checksum failure on a datagram: its fields are untrusted.
                # A corrupted ACK must NOT cancel retransmission (the timer
                # re-sends the frame and the receiver re-acknowledges), and
                # a corrupted beat must not count as a sign of life.
                self.trace.record(
                    self.sim.now, "msg.checksum_drop", message.dst,
                    src=message.src, kind=kind,
                )
                return
            if kind != KIND_TRANSPORT_ACK:
                super()._deliver(message)
                return
            ack: _AckFrame = message.payload
            settled = self._pending.pop((message.dst, message.src, ack.seq), None)
            if settled is not None and settled.timer is not None:
                settled.timer.cancel()
            return
        if not isinstance(message.payload, _Frame):
            super()._deliver(message)
            return
        frame: _Frame = message.payload
        pair = (message.src, message.dst)
        if (message.src, message.dst, frame.seq) in self._dead:
            # The frame was dead-lettered while this retransmission was in
            # flight (channel FIFO clamping can delay a redelivery past the
            # final retry timer).  The sender's on_delivery_failure already
            # reported it lost; delivering now would resurrect a message
            # the upper layer has written off — drop it, unacked.
            self.trace.record(
                self.sim.now, "msg.dead_letter_drop", message.dst,
                src=message.src, kind=frame.kind, seq=frame.seq,
            )
            return
        if message.corrupted:
            # Checksum failure: a corrupted frame is discarded unacked and
            # recovered by retransmission — transient channel errors never
            # reach the algorithm (the paper's non-fail-stop hardware
            # faults, Section 2, made harmless by the transport).
            self.trace.record(
                self.sim.now, "msg.checksum_drop", message.dst,
                src=message.src, seq=frame.seq,
            )
            return
        # Always (re-)acknowledge; ACK loss is covered by retransmission.
        self.transport_acks += 1
        super().send(
            message.dst, message.src, KIND_TRANSPORT_ACK, _AckFrame(frame.seq)
        )
        expected = self._expected.get(pair, 0)
        if frame.seq < expected:
            self.duplicates_dropped += 1
            self.trace.record(
                self.sim.now, "msg.duplicate", message.dst,
                src=message.src, seq=frame.seq,
            )
            return
        if frame.seq > expected:
            self._reorder.setdefault(pair, {})[frame.seq] = message
            return
        self._deliver_in_order(pair, message)

    def _deliver_in_order(self, pair: tuple[str, str], message: Message) -> None:
        frame: _Frame = message.payload
        while True:
            unwrapped = Message(
                src=message.src, dst=message.dst, kind=frame.kind,
                payload=frame.inner, msg_id=message.msg_id,
                send_time=message.send_time, deliver_time=self.sim.now,
                corrupted=message.corrupted,
            )
            self._expected[pair] = frame.seq + 1
            super()._deliver(unwrapped)
            buffered = self._reorder.get(pair, {})
            next_message = buffered.pop(self._expected[pair], None)
            if next_message is None:
                return
            message = next_message
            frame = message.payload
