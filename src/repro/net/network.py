"""The network hub: endpoints, routing, delivery, counting.

Endpoints (distributed objects, action coordinators, transaction managers)
register a name plus a receive callback.  :meth:`Network.send` stamps the
message on the per-pair FIFO channel, lets the failure injector decide its
fate, and schedules delivery on the simulator.  Every send is counted by
message kind — the paper's unit of complexity.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from itertools import islice
from typing import Callable

from repro.net.channel import Channel
from repro.net.failures import FailureInjector
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net import message as _message_mod
from repro.net.message import Message
from repro.simkernel.events import PRIORITY_DELIVERY, Event
from repro.simkernel.rng import RngRegistry
from repro.simkernel.scheduler import Simulator
from repro.simkernel.trace import SEND_SHAPE, TraceRecorder

Receiver = Callable[[Message], None]

#: Shared stand-in stream for channels whose latency model is deterministic
#: (it is never actually sampled).
_NULL_RNG = random.Random(0)

# Field-name shapes for flat (tuple) trace records: the hot path appends
# ``(shape, v1, v2, ...)`` instead of building a details dict per record;
# the recorder zips shape and values into the dict lazily, only if the
# entries are ever read (see TraceRecorder.entries).  The send shape is the
# recorder's own marker tuple: for those records the payload object itself
# is stored and the ``action`` detail extracted at materialization.
_SEND_FIELDS = SEND_SHAPE
_DROP_FIELDS = ("dst", "kind", "id")
_LOST_FIELDS = ("kind", "id")
_RECV_FIELDS = ("src", "kind", "id")


def _delivery_label(message: Message) -> str:
    """A delivery event's label, ``deliver:<kind>:<src>-><dst>``: the
    explorer reads channel and receiver from it
    (:mod:`repro.explore.independence`)."""
    return f"deliver:{message.kind}:{message.src}->{message.dst}"


class UnknownEndpointError(KeyError):
    """Sent to an endpoint name that was never registered."""


class Network:
    """Message transport between named endpoints over FIFO channels."""

    #: True on transports that repair loss themselves (ARQ); upper layers
    #: (e.g. :class:`~repro.net.multicast.ReliableMulticast`) read it to
    #: avoid stacking their own retransmission on top.
    provides_reliable_delivery = False

    # A transport's two hooks (ReliableNetwork's ARQ); None here.
    #: ``(src, dst, kind, payload) -> wire payload``, run by ``send`` and
    #: ``send_many`` on each copy of a kind outside ``_unframed``.
    _frame = None
    _unframed: frozenset[str] = frozenset()
    #: ``message -> message | None``, run on a message that reached a live
    #: endpoint before it is counted: what to hand up, or None if consumed.
    _receive = None
    #: What the receive step released to go up next, in order.
    _released: list[Message] | tuple = ()

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        rng: RngRegistry | None = None,
        injector: FailureInjector | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.default_latency = latency if latency is not None else ConstantLatency(1.0)
        self.rng = rng if rng is not None else RngRegistry(0)
        self.injector = injector if injector is not None else FailureInjector(
            rng=partial(self.rng.stream, "net.failures")
        )
        self.trace = trace if trace is not None else TraceRecorder()
        #: Wire diversion hook ``(message, deliver_at) -> None``: when set,
        #: delivery is handed to it instead of a kernel timer — the TCP
        #: transport uses this to push every frame through a real socket.
        #: Injection, latency stamping and counting all happen *before*
        #: this point, so the fault model is transport-independent.
        self.deliver_via: Callable[[Message, float], None] | None = None
        self._receivers: dict[str, Receiver] = {}
        self._channels: dict[tuple[str, str], Channel] = {}
        #: src -> dst -> Channel mirror of ``_channels``: the hot path does
        #: two plain dict gets on interned endpoint names instead of
        #: building (and hashing) a key tuple per send.
        self._channels_by_src: dict[str, dict[str, Channel]] = {}
        self._latency_overrides: dict[tuple[str, str], LatencyModel] = {}
        #: Network-wide fixed delay when the default model is constant and
        #: no per-pair override exists: the send path then needs no channel
        #: at all — constant delay plus a monotonic clock makes the FIFO
        #: clamp provably a no-op, so neither the per-pair ``Channel``
        #: objects (O(N²) of them) nor their dict lookups are built.
        #: Cleared by :meth:`set_pair_latency`.
        self._uniform_delay = (
            self.default_latency.delay
            if self.default_latency.__class__ is ConstantLatency
            else None
        )
        self.sent_by_kind: Counter[str] = Counter()
        self.delivered_by_kind: Counter[str] = Counter()
        # Kernel shortcut for the deterministic Simulator: direct access to
        # its event queue lets the send path skip the schedule_at wrapper
        # (validation and the returned Event).  Foreign kernels (e.g. the
        # asyncio backend) leave it None and take the generic path.
        self._sim_queue = getattr(sim, "_queue", None)
        #: dst -> the object's live kind-handler dict, for receivers that
        #: are the stock ``DistributedObject.receive`` bound method: the
        #: delivery path then dispatches to the kind handler directly,
        #: skipping the ``receive`` frame.  ``None`` for custom receivers.
        self._targets: dict[str, tuple[Receiver, dict[str, Receiver] | None]] = {}
        # Claim the queue's raw-delivery sink, in both forms, and its
        # labeller: sends queue the message itself (push_raw), the drain
        # loop hands each run of them to _deliver_run, and a controlled
        # pop labels each one it wraps.  A simulator serves one network.
        queue = self._sim_queue
        if queue is not None:
            if queue.message_sink is not None:
                raise RuntimeError("this simulator already serves a network")
            queue.message_sink = self._deliver
            queue.run_sink = self._deliver_run
            queue._message_label = _delivery_label

    # -- endpoint management -------------------------------------------------

    def register(self, name: str, receiver: Receiver) -> None:
        """Attach ``receiver`` to endpoint ``name`` (replacing any prior)."""
        self._receivers[name] = receiver
        # Alias the object's kind-handler table when the receiver is the
        # un-overridden DistributedObject.receive: handlers registered
        # later via on_kind land in the same (live) dict.  Anything else —
        # plain callables, overridden receive — keeps the generic path.
        kind_map = None
        owner = getattr(receiver, "__self__", None)
        if owner is not None:
            from repro.objects.base import DistributedObject

            if getattr(receiver, "__func__", None) is DistributedObject.receive:
                kind_map = owner._kind_handlers
        # One lookup per delivery: receiver and kind map travel together.
        self._targets[name] = (receiver, kind_map)

    def unregister(self, name: str) -> None:
        self._receivers.pop(name, None)
        self._targets.pop(name, None)

    def endpoints(self) -> list[str]:
        return sorted(self._receivers)

    # -- latency configuration ----------------------------------------------

    def set_pair_latency(self, src: str, dst: str, model: LatencyModel) -> None:
        """Override the latency model for the ordered pair ``src → dst``.

        Must be called before the first message on that pair.
        """
        if (src, dst) in self._channels:
            raise RuntimeError(f"channel {src}->{dst} already in use")
        if self._uniform_delay is not None and self.sent_by_kind:
            # The uniform fast path leaves no per-pair channel record, so
            # the in-use check above cannot see earlier traffic; any prior
            # send may have been on this pair, and rebasing its latency
            # mid-flight would break per-channel FIFO.
            raise RuntimeError(
                "set_pair_latency after traffic on a uniform-latency network"
            )
        self._uniform_delay = None
        self._latency_overrides[(src, dst)] = model

    def _channel(self, src: str, dst: str) -> Channel:
        by_dst = self._channels_by_src.get(src)
        if by_dst is not None:
            channel = by_dst.get(dst)
            if channel is not None:
                return channel
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            model = self._latency_overrides.get(key, self.default_latency)
            if model.deterministic:
                # The model never draws: share one dummy stream instead of
                # seeding a named stream per ordered pair (O(N²) of them),
                # and build the channel without the ``__init__`` frame —
                # every ordered pair in a large sweep passes through here
                # exactly once, and the N(N-1) constructions add up.
                channel = Channel.__new__(Channel)
                channel.src = src
                channel.dst = dst
                channel.latency = model
                channel._rng = _NULL_RNG
                channel._last_delivery = 0.0
                channel.sent = 0
                channel._fixed = (
                    model.delay if model.__class__ is ConstantLatency else None
                )
            else:
                stream = self.rng.stream(f"net.latency.{src}->{dst}")
                channel = Channel(src, dst, model, stream)
            self._channels[key] = channel
        self._channels_by_src.setdefault(src, {})[dst] = channel
        return channel

    # -- sending --------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: object = None) -> Message:
        """Send one message; returns the (already stamped) envelope.

        The message is counted as sent even if the failure injector drops it
        — the sender did the work, which is what the complexity analysis
        charges for.
        """
        if dst not in self._receivers:
            raise UnknownEndpointError(dst)
        frame = self._frame
        if frame is not None and kind not in self._unframed:
            # After the name check: an unknown name consumes no sequence number.
            payload = frame(src, dst, kind, payload)
        # Message.__init__ unrolled (one envelope per send is one of the
        # hottest allocations in a sweep): send/deliver times are always
        # overwritten by the stamp below, so only the identity fields and
        # fault flags need writing.
        message = Message.__new__(Message)
        message.src = src
        message.dst = dst
        message.kind = kind
        message.payload = payload
        message.msg_id = next(_message_mod._msg_ids)
        message.corrupted = False
        message.dropped = False
        self.sent_by_kind[kind] += 1
        now = self.sim.now
        # Fault-free plans (every count sweep) skip the decide() frame; the
        # inline test is decide()'s own fast return.  Only the stock
        # injector class qualifies — subclasses may override decide() with
        # logic beyond the plan.
        injector = self.injector
        if injector.__class__ is not FailureInjector or injector.active:
            fate = injector.decide(src, dst, now)
        else:
            fate = FailureInjector.DELIVER
        # Uniform constant latency (the default, and every count sweep)
        # needs no channel: the delay is network-wide and the sim clock is
        # monotonic, so the per-channel FIFO clamp can never fire.
        delay = self._uniform_delay
        if delay is not None:
            deliver_at = now + delay
            message.send_time = now
            message.deliver_time = deliver_at
        else:
            by_dst = self._channels_by_src.get(src)
            channel = by_dst.get(dst) if by_dst is not None else None
            if channel is None:
                channel = self._channel(src, dst)
            # Constant-latency channels stamp inline (Channel.stamp
            # unrolled); sampled latencies take the call.
            fixed = channel._fixed
            if fixed is not None:
                deliver_at = now + fixed
                last = channel._last_delivery
                if deliver_at < last:
                    deliver_at = last
                channel._last_delivery = deliver_at
                message.send_time = now
                message.deliver_time = deliver_at
                channel.sent += 1
            else:
                deliver_at = channel.stamp(message, now)
        # Trace records are appended inline (no ``record()`` frame) as flat
        # single-tuple records (no details dict, no nested tuple): two
        # records per delivered message is the densest record site in a
        # FULL run.  The payload rides in the record; its ``action`` is
        # extracted only if the entries are ever materialized.
        trace = self.trace
        if trace._full:
            trace._pending.append((
                now, "msg.send", src, _SEND_FIELDS, dst, kind,
                message.msg_id, payload,
            ))
        else:
            trace._counts["msg.send"] += 1
        if fate != FailureInjector.DELIVER:
            if fate == FailureInjector.DROP:
                message.dropped = True
                if trace._full:
                    trace._pending.append((
                        now, "msg.drop", src, _DROP_FIELDS, dst, kind,
                        message.msg_id,
                    ))
                else:
                    trace._counts["msg.drop"] += 1
                return message
            message.corrupted = True  # fate == CORRUPT
        # On the deterministic kernel, queue the message itself as a *raw*
        # entry: no Event, no closure, no label string, no schedule_at
        # validation (``deliver_at >= now`` by construction).  Controlled
        # (explorer) runs take this path too: the queue labels a raw entry
        # (``_delivery_label``) when it wraps it for the tie-break policy.
        if self.deliver_via is None:
            queue = self._sim_queue
            if queue is not None:
                queue.push_raw(deliver_at, PRIORITY_DELIVERY, (message,))
                return message
        self._schedule_delivery(message, deliver_at)
        return message

    def send_many(
        self, src: str, dsts: list[str], kind: str, payload: object = None
    ) -> list[Message]:
        """Send the same ``payload`` to every name in ``dsts``, in order.

        Semantically identical to ``[send(src, d, kind, payload) for d in
        dsts]`` — same messages, same ids, same counters, same trace
        records, same fates and RNG draws, same raised error on an unknown
        endpoint — but the per-send constants (clock read, injector check,
        the plan at this instant, latency lookup, counter hashes, queue
        bookkeeping) are hoisted out of the loop.  Broadcasts (DONE,
        EXCEPTION, COMMIT, ...) are ~70% of all sends in a resolution run
        and heartbeats most of a crash-tolerant one, so this is the one
        entry point every fan-out in the stack goes through (engines,
        failure detector, multicast layer).

        The batched loop covers every fault plan of the stock injector and
        a transport's per-copy ``_frame``, as ``send`` does, and explored
        (controlled) runs as well; per-pair or sampled latency, wire
        diversion, a foreign kernel or a subclassed injector fall back to
        the per-send loop.
        """
        delay = self._uniform_delay
        queue = self._sim_queue
        injector = self.injector
        if (
            delay is None
            or self.deliver_via is not None
            or queue is None
            or injector.__class__ is not FailureInjector
        ):
            return [self.send(src, dst, kind, payload) for dst in dsts]
        receivers = self._receivers
        for dst in dsts:
            if dst not in receivers:
                # Replay per-send so the earlier names are sent and
                # UnknownEndpointError raised at the same point it would
                # have been by the plain loop.
                return [self.send(src, d, kind, payload) for d in dsts]
        now = self.sim.now
        deliver_at = now + delay
        trace = self.trace
        full = trace._full
        pending = trace._pending
        frame = None if kind in self._unframed else self._frame
        # The plan at the send instant, read once, and decide()'s checks in
        # its order: the names a copy from ``src`` cannot reach (every name
        # when ``src`` is down), then a drop draw, then a corrupt draw.
        faulty = injector.active
        if faulty:
            if not injector._since <= now < injector._until:
                injector._read_plan(now)
            down, cut = injector._down, injector._cut
            everyone = src in down
            unreachable = down | cut[src] if src in cut else down
            plan = injector.plan
            drop_p, corrupt_p = plan.drop_probability, plan.corrupt_probability
            draw = injector._rng.random if drop_p or corrupt_p else None
        lost = 0
        # Ids are taken as one block of the shared counter per fan-out and
        # the list is sized once: no ``next()`` and no ``append`` per copy.
        count = len(dsts)
        messages = [None] * count
        ids = islice(_message_mod._msg_ids, count)
        for i, (dst, mid) in enumerate(zip(dsts, ids)):
            messages[i] = message = Message.__new__(Message)
            wire = payload if frame is None else frame(src, dst, kind, payload)
            message.src = src
            message.dst = dst
            message.kind = kind
            message.payload = wire
            message.msg_id = mid
            message.corrupted = False
            message.dropped = False
            message.send_time = now
            message.deliver_time = deliver_at
            if full:
                pending.append((
                    now, "msg.send", src, _SEND_FIELDS, dst, kind, mid, wire,
                ))
            if faulty:
                if everyone or dst in unreachable or (drop_p and draw() < drop_p):
                    message.dropped = True
                    lost += 1
                    if full:
                        pending.append((
                            now, "msg.drop", src, _DROP_FIELDS, dst, kind, mid,
                        ))
                elif corrupt_p and draw() < corrupt_p:
                    message.corrupted = True
                    injector.corrupted += 1
        # One bucket extension for the whole broadcast: every delivered copy
        # lands at the same instant, in ``dsts`` order.
        if not lost:
            queue.push_raw(deliver_at, PRIORITY_DELIVERY, messages)
        else:
            injector.dropped += lost
            if lost < count:
                queue.push_raw(
                    deliver_at, PRIORITY_DELIVERY,
                    [m for m in messages if not m.dropped],
                )
        self.sent_by_kind[kind] += count
        if not full:
            counts = trace._counts
            counts["msg.send"] += count
            if lost:
                counts["msg.drop"] += lost
        return messages

    def _schedule_delivery(self, message: Message, deliver_at: float) -> None:
        if self.deliver_via is not None:
            self.deliver_via(message, deliver_at)
            return
        self.sim.schedule_at(
            deliver_at,
            lambda: self._deliver(message),
            priority=PRIORITY_DELIVERY,
            label=_delivery_label(message),
        )

    def _deliver(self, message: Message) -> None:
        trace = self.trace
        now = self.sim.now
        injector = self.injector
        receive = self._receive
        released = self._released
        while True:
            dst = message.dst
            try:
                target = self._targets[dst]
            except KeyError:
                target = None
            # The receiving end's half of the crash model, read like a fate:
            # no call unless the clock has crossed a window's edge.
            if injector._crashes and not injector._since <= now < injector._until:
                injector._read_plan(now)
            if target is None or dst in injector._down:
                # Endpoint crashed, or deregistered while the message was in
                # flight: it is silently lost (the non-fail-stop fault model).
                if trace._full:
                    trace._pending.append((
                        now, "msg.lost", dst, _LOST_FIELDS, message.kind, message.msg_id,
                    ))
                else:
                    trace._counts["msg.lost"] += 1
            elif receive is None or (message := receive(message)) is not None:
                kind = message.kind
                self.delivered_by_kind[kind] += 1
                if trace._full:
                    trace._pending.append((
                        now, "msg.recv", dst, _RECV_FIELDS, message.src, kind, message.msg_id,
                    ))
                else:
                    trace._counts["msg.recv"] += 1
                # Straight to the kind handler of a stock DistributedObject.receive;
                # an unknown kind falls back to it, for on_unhandled.
                kind_map = target[1]
                if kind_map is not None:
                    try:
                        handler = kind_map[kind]
                    except KeyError:
                        handler = target[0]
                else:
                    handler = target[0]
                handler(message)
            if not released:
                return
            message = released.pop(0)

    def _deliver_run(self, bucket: list, index: int, budget: float) -> int:
        """Deliver the run of raw entries at ``bucket[index:]`` in one frame:
        the queue's ``run_sink``, the drain loop's form of ``_deliver``.

        Semantically ``[self._deliver(m) for m in run]`` — same trace
        records, tallies, counters and handler calls, in the same order —
        where the run ends before the first :class:`Event`, after
        ``budget`` deliveries, or after a message whose handler or receive
        step queued a smaller key than the bucket's; each entry leaves the
        queue's live count before its handler runs.  Returns how many
        entries were consumed; when a handler raises, that count (its own
        entry included) goes to the queue's ``run_consumed`` first.  The
        per-delivery constants are read once per run.
        """
        queue = self._sim_queue
        keys = queue._keys
        key = keys[0]
        trace = self.trace
        targets = self._targets
        injector = self.injector
        crashes = injector._crashes
        delivered = self.delivered_by_kind
        receive = self._receive
        released = self._released
        now = self.sim.now
        count = 0
        try:
            for message in bucket if not index else islice(bucket, index, None):
                if message.__class__ is Event or count >= budget:
                    break
                queue._live -= 1
                count += 1
                # _deliver's body, over the constants read above.
                while True:
                    dst = message.dst
                    try:
                        target = targets[dst]
                    except KeyError:
                        target = None
                    if crashes and not injector._since <= now < injector._until:
                        injector._read_plan(now)
                    if target is None or dst in injector._down:
                        if trace._full:
                            trace._pending.append((
                                now, "msg.lost", dst, _LOST_FIELDS, message.kind, message.msg_id,
                            ))
                        else:
                            trace._counts["msg.lost"] += 1
                    elif receive is None or (message := receive(message)) is not None:
                        kind = message.kind
                        delivered[kind] += 1
                        if trace._full:
                            trace._pending.append((
                                now, "msg.recv", dst, _RECV_FIELDS, message.src,
                                kind, message.msg_id,
                            ))
                        else:
                            trace._counts["msg.recv"] += 1
                        kind_map = target[1]
                        if kind_map is not None:
                            try:
                                handler = kind_map[kind]
                            except KeyError:
                                handler = target[0]
                        else:
                            handler = target[0]
                        handler(message)
                    if not released:
                        break
                    message = released.pop(0)
                if keys[0] is not key:
                    break
        except BaseException:
            queue.run_consumed = count
            raise
        return count

    # -- accounting ------------------------------------------------------------

    def total_sent(self, kinds: set[str] | None = None) -> int:
        """Total messages sent, optionally restricted to ``kinds``."""
        if kinds is None:
            return sum(self.sent_by_kind.values())
        return sum(count for kind, count in self.sent_by_kind.items() if kind in kinds)
