"""``Network.send_many``: the batched broadcast must equal a send loop.

The fast loop hoists per-send constants, so every observable — message
identity fields, ids, timestamps, fates, counters, trace records, delivery
order, raised errors — is compared against the plain ``send`` loop on a
twin network, message-id counter aligned.
"""

import pytest

from repro.net import (
    ConstantLatency,
    FailureInjector,
    FailurePlan,
    Network,
    UniformLatency,
)
from repro.net import message as message_mod
from repro.net.detector import KIND_HEARTBEAT, Heartbeater
from repro.net.failures import CrashWindow, PartitionWindow
from repro.net.membership import GroupMembership
from repro.net.multicast import ReliableMulticast
from repro.net.network import UnknownEndpointError
from repro.net.reliable import ReliableNetwork, _Frame
from repro.objects import DistributedObject, Runtime
from repro.simkernel import RngRegistry, Simulator
from repro.simkernel.trace import TraceLevel


def make_network(latency=None, plan=None, seed=0, cls=Network, level=TraceLevel.FULL):
    sim = Simulator()
    rng = RngRegistry(seed)
    injector = (
        FailureInjector(plan, rng.stream("net.failures")) if plan else None
    )
    net = cls(sim, latency=latency, rng=rng, injector=injector)
    net.trace.level = level
    return sim, net


def wire(net, names, log):
    for name in names:
        net.register(
            name, lambda m, name=name: log.append((name, m.kind, m.msg_id))
        )


def run_broadcasts(net, sim, batched, names, kind="K"):
    """Three staggered broadcasts, mixed with singles; return observables."""
    log = []
    wire(net, names, log)
    others = [n for n in names if n != names[0]]
    if batched:
        sent = list(net.send_many(names[0], others, kind, "p0"))
        sim.run(until=1.5)
        sent += [net.send(names[0], others[0], "S", "p1")]
        sent += list(net.send_many(names[1], [n for n in names if n != names[1]], kind, "p2"))
    else:
        sent = [net.send(names[0], dst, kind, "p0") for dst in others]
        sim.run(until=1.5)
        sent.append(net.send(names[0], others[0], "S", "p1"))
        sent += [
            net.send(names[1], dst, kind, "p2")
            for dst in names
            if dst != names[1]
        ]
    sim.run()
    envelopes = [
        (m.src, m.dst, m.kind, unframed(m.payload), m.msg_id, m.send_time,
         m.deliver_time, m.dropped, m.corrupted)
        for m in sent
    ]
    trace = [
        (e.time, e.category, e.subject, sorted(e.details.items()))
        for e in net.trace.entries
    ]
    return {
        "envelopes": envelopes,
        "log": log,
        "sent_by_kind": dict(net.sent_by_kind),
        "delivered_by_kind": dict(net.delivered_by_kind),
        "counts": dict(net.trace.counts),
        "trace": trace,
        "faults": (net.injector.dropped, net.injector.corrupted),
        "frames": dict(getattr(net, "_next_seq", {})),
        "retransmissions": getattr(net, "retransmissions", 0),
    }


def unframed(payload):
    """A frame by what it carries (twin networks hold distinct objects)."""
    if isinstance(payload, _Frame):
        return ("frame", payload.seq, payload.kind, payload.inner)
    return payload


def pushes_of(sim):
    """The sizes of the raw queue pushes made from here on."""
    sizes = []
    push_raw = sim._queue.push_raw
    sim._queue.push_raw = lambda t, p, payloads: (
        sizes.append(len(payloads)), push_raw(t, p, payloads)
    )
    return sizes


def reset_msg_ids():
    import itertools

    message_mod._msg_ids = itertools.count(1)


NAMES = ["O1", "O2", "O3", "O4"]


class TestEquivalence:
    @pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.COUNTS])
    def test_uniform_latency_batches_identically(self, level):
        reset_msg_ids()
        sim_a, net_a = make_network(level=level)
        looped = run_broadcasts(net_a, sim_a, batched=False, names=NAMES)
        reset_msg_ids()
        sim_b, net_b = make_network(level=level)
        batched = run_broadcasts(net_b, sim_b, batched=True, names=NAMES)
        assert batched == looped

    def test_sampled_latency_falls_back_identically(self):
        reset_msg_ids()
        sim_a, net_a = make_network(latency=UniformLatency(0.5, 2.0))
        looped = run_broadcasts(net_a, sim_a, batched=False, names=NAMES)
        reset_msg_ids()
        sim_b, net_b = make_network(latency=UniformLatency(0.5, 2.0))
        batched = run_broadcasts(net_b, sim_b, batched=True, names=NAMES)
        assert batched == looped

    def test_faulty_plan_falls_back_identically(self):
        # A lossy plan no longer falls back: the fan-out is still one
        # batched loop, equal to the per-send loop, copy for copy.
        plan = FailurePlan(drop_probability=0.3)
        reset_msg_ids()
        sim_a, net_a = make_network(plan=plan)
        looped = run_broadcasts(net_a, sim_a, batched=False, names=NAMES)
        reset_msg_ids()
        sim_b, net_b = make_network(plan=plan)
        pushes = pushes_of(sim_b)
        batched = run_broadcasts(net_b, sim_b, batched=True, names=NAMES)
        assert batched == looped
        assert looped["faults"][0]  # something was dropped
        # One push per fan-out (of the copies that survived) and one per
        # delivered unicast, never one per broadcast copy.
        assert len(pushes) < looped["delivered_by_kind"]["K"]

    def test_framed_fan_out_runs_in_the_batched_loop(self):
        # ReliableNetwork's send is Network.send running its per-copy
        # _frame hook: every copy of a fan-out still reaches the hook's
        # bookkeeping — one frame, pending entry and timer each — inside
        # the one batched loop, equal to the loop of sends.
        sim, net = make_network(cls=ReliableNetwork)
        log = []
        wire(net, NAMES, log)
        pushes = pushes_of(sim)
        sent = net.send_many("O1", ["O2", "O3"], "K", "x")
        assert pushes == [2]
        assert [(f.dst, f.seq) for f in net._pending.values()] == [("O2", 0), ("O3", 0)]
        assert all(f.timer is not None for f in net._pending.values())
        sim.run()
        assert [m.dst for m in sent] == ["O2", "O3"]
        assert sorted(name for name, _, _ in log) == ["O2", "O3"]
        assert not net._pending and net.transport_acks == 2
        reset_msg_ids()
        sim_a, net_a = make_network(cls=ReliableNetwork)
        looped = run_broadcasts(net_a, sim_a, batched=False, names=NAMES)
        reset_msg_ids()
        sim_b, net_b = make_network(cls=ReliableNetwork)
        assert run_broadcasts(net_b, sim_b, batched=True, names=NAMES) == looped

    @pytest.mark.parametrize("cls, kind", [
        (Network, "K"), (ReliableNetwork, "K"), (ReliableNetwork, KIND_HEARTBEAT),
    ], ids=["plain", "sequenced", "heartbeat"])
    @pytest.mark.parametrize("plan", [
        FailurePlan(crashes=[CrashWindow("O3", 0.0, 1.2), CrashWindow("O2", 1.4, 9.0)]),
        FailurePlan(partitions=[
            PartitionWindow(frozenset({"O1"}), frozenset({"O3", "O4"}), 0.0, 1.2),
            PartitionWindow(frozenset({"O2", "O3"}), frozenset({"O4"}), 1.0, 9.0),
        ]),
        FailurePlan(corrupt_probability=0.5),
        FailurePlan(drop_probability=0.3, corrupt_probability=0.3),
    ], ids=["crash", "partition", "corrupt", "drop-corrupt"])
    def test_faulted_fan_out_batches_identically(self, plan, cls, kind):
        """Crash, partition, drop and corrupt fates, read from the plan at
        the send instant, on either side of a window's edge: the batched
        loop equals the loop of sends, on the plain network and on the ARQ
        transport's sequenced and datagram kinds."""
        reset_msg_ids()
        sim_a, net_a = make_network(plan=plan, cls=cls)
        looped = run_broadcasts(net_a, sim_a, batched=False, names=NAMES, kind=kind)
        reset_msg_ids()
        sim_b, net_b = make_network(plan=plan, cls=cls)
        sends = []
        send = net_b.send
        net_b.send = lambda *args: (sends.append(args), send(*args))[1]
        batched = run_broadcasts(net_b, sim_b, batched=True, names=NAMES, kind=kind)
        assert batched == looped
        assert sum(looped["faults"])  # the plan touched something
        # Only the single ``S`` went through send; the broadcasts did not.
        assert [args[2] for args in sends] == ["S"]

    def test_unknown_endpoint_raises_after_earlier_sends(self):
        # Mid-broadcast unknown dst: earlier names are sent (and counted)
        # before the error, exactly like the plain loop.
        sim, net = make_network()
        log = []
        wire(net, ["O1", "O2"], log)
        with pytest.raises(UnknownEndpointError):
            net.send_many("O1", ["O2", "GHOST", "O2"], "K", "x")
        assert net.sent_by_kind["K"] == 1
        sim.run()
        assert [name for name, _, _ in log] == ["O2"]

    def test_unknown_endpoint_frames_only_the_earlier_names(self):
        sim, net = make_network(cls=ReliableNetwork)
        log = []
        wire(net, ["O1", "O2", "O3"], log)
        with pytest.raises(UnknownEndpointError):
            net.send_many("O1", ["O2", "GHOST", "O3"], "K", "x")
        assert net._next_seq == {("O1", "O2"): 1}
        assert [key for key in net._pending] == [("O1", "O2", 0)]
        wire(net, ["GHOST"], log)
        net.send_many("O1", ["GHOST", "O3"], "K", "y")
        sim.run()
        assert [name for name, _, _ in log] == ["O2", "GHOST", "O3"]


class TestOneBucketPerBroadcast:
    def test_broadcast_is_one_bucket_delivered_in_dsts_order(self):
        """N−1 copies land at one instant: one queue key, ``dsts`` order,
        FIFO against unicast sends queued at the same instant."""
        names = [f"O{i}" for i in range(1, 10)]
        sim, net = make_network(level=TraceLevel.COUNTS)
        log = []
        wire(net, names, log)
        queue = sim._queue
        dsts = list(reversed(names[1:]))  # not sorted: order is the caller's
        net.send_many(names[0], dsts, "K")
        assert queue.heap_size == len(queue) == len(names) - 1
        assert len(queue._buckets) == 1
        before = net.send(names[0], "O5", "S")
        net.send_many(names[1], [names[0], "O5"], "K2")
        assert len(queue._buckets) == 1  # still one (time, priority) key
        assert queue.heap_size == len(names) - 1 + 3
        sim.run()
        assert [(name, kind) for name, kind, _ in log] == (
            [(dst, "K") for dst in dsts]
            + [("O5", "S"), (names[0], "K2"), ("O5", "K2")]
        )
        assert sim.now == before.deliver_time == 1.0
        assert sim.events_executed == len(names) - 1 + 3
        assert queue.heap_size == 0

    def test_returned_list_is_not_the_queued_bucket(self):
        sim, net = make_network(level=TraceLevel.COUNTS)
        log = []
        wire(net, NAMES, log)
        sent = net.send_many("O1", NAMES[1:], "K")
        sent.clear()  # the caller owns what it got back
        sim.run()
        assert [name for name, _, _ in log] == NAMES[1:]


class TestUniformLatencyGuard:
    def test_pair_override_clears_fast_path(self):
        sim, net = make_network()
        assert net._uniform_delay == 1.0
        net.set_pair_latency("O1", "O2", ConstantLatency(5.0))
        assert net._uniform_delay is None

    def test_pair_override_after_traffic_rejected(self):
        sim, net = make_network()
        log = []
        wire(net, ["O1", "O2"], log)
        net.send("O1", "O2", "K")
        with pytest.raises(RuntimeError, match="after traffic"):
            net.set_pair_latency("O1", "O2", ConstantLatency(5.0))

    def test_override_before_traffic_still_works(self):
        sim, net = make_network()
        log = []
        wire(net, ["O1", "O2", "O3"], log)
        net.set_pair_latency("O1", "O2", ConstantLatency(5.0))
        slow = net.send("O1", "O2", "K")
        fast = net.send("O1", "O3", "K")
        assert slow.deliver_time == 5.0
        assert fast.deliver_time == 1.0
        sim.run()
        assert [name for name, _, _ in log] == ["O3", "O2"]


# -- the callers: every fan-out in the stack is one send_many --------------------


class TestObjectSendMany:
    def test_unattached_object_refuses(self):
        with pytest.raises(RuntimeError, match="not attached"):
            DistributedObject("lonely").send_many(["x"], "K")

    def test_attached_object_fans_out_under_its_own_name(self):
        rt = Runtime()
        got = []
        for name in ("a", "b", "c"):
            obj = DistributedObject(name)
            obj.on_kind("K", lambda m, name=name: got.append((name, m.src, m.payload)))
            rt.register(obj)
        sent = rt.objects["a"].send_many(["c", "b"], "K", "p")
        assert [(m.src, m.dst) for m in sent] == [("a", "c"), ("a", "b")]
        rt.run()
        assert got == [("c", "a", "p"), ("b", "a", "p")]


def detector_world(n, **kwargs):
    rt = Runtime()
    names = [f"m{i:02d}" for i in range(n)]
    hbs = {}
    for name in names:
        obj = DistributedObject(name)
        rt.register(obj)
        hbs[name] = Heartbeater(obj, names, **kwargs)
    return rt, names, hbs


def beats_by_pair(rt):
    """(src, dst) -> HEARTBEATs sent, from the FULL trace."""
    pairs = {}
    for entry in rt.trace.by_category("msg.send"):
        if entry.details["kind"] == KIND_HEARTBEAT:
            key = (entry.subject, entry.details["dst"])
            pairs[key] = pairs.get(key, 0) + 1
    return pairs


@pytest.mark.parametrize("n", [2, 32])
class TestHeartbeaterFanOut:
    def test_one_queue_push_per_beat_and_every_peer_reached(self, n):
        rt, names, hbs = detector_world(n, interval=1.0, timeout=4.0)
        pushes = []
        push_raw = rt.sim._queue.push_raw
        rt.sim._queue.push_raw = lambda t, p, payloads: (
            pushes.append(len(payloads)), push_raw(t, p, payloads)
        )
        for hb in hbs.values():
            hb.start()
        rt.run(until=3.5)  # beats at t = 0, 1, 2, 3
        assert pushes == [n - 1] * (4 * n)
        pairs = beats_by_pair(rt)
        assert set(pairs.values()) == {4}
        assert len(pairs) == n * (n - 1)  # everyone to everyone else, never self
        assert rt.network.delivered_by_kind[KIND_HEARTBEAT] == 3 * n * (n - 1)

    def test_suspected_peers_get_no_beat(self, n):
        rt, names, hbs = detector_world(n, interval=1.0, timeout=4.0)
        for hb in hbs.values():
            hb.start()
        victim = names[-1]
        rt.sim.schedule(2.5, lambda: rt.crash_node(f"node:{victim}"))
        rt.run(until=20.5)
        survivors = names[:-1]
        assert all(hbs[s].suspected == {victim} for s in survivors)
        suspected_at = {
            e.subject: e.time for e in rt.trace.by_category("detector.suspect")
        }
        for entry in rt.trace.by_category("msg.send"):
            if entry.details["dst"] == victim:
                # The last beat to the victim is at the suspicion instant at
                # the latest (beat runs before check at equal times).
                assert entry.time <= suspected_at[entry.subject]
        if n > 2:
            pairs = beats_by_pair(rt)
            assert pairs[(names[0], names[1])] == 21  # t = 0 .. 20

    def test_stop_start_generations_never_double_the_traffic(self, n):
        rt, names, hbs = detector_world(n, interval=1.0, timeout=4.0)
        for hb in hbs.values():
            hb.start()
        rt.run(until=2.5)  # 3 beats each
        first = hbs[names[0]]
        first.stop()
        first.start()  # beats at once (t=2.5), then on its own grid
        first.stop()
        first.start()
        rt.run(until=5.4)  # t=3.5, 4.5 for first; t=3, 4, 5 for the rest
        pairs = beats_by_pair(rt)
        assert pairs[(names[0], names[1])] == 3 + 2 + 2
        assert pairs[(names[1], names[0])] == 6
        assert not any(hb.suspected for hb in hbs.values())

    def test_restart_rebeats_everyone(self, n):
        rt, names, hbs = detector_world(n, interval=1.0, timeout=4.0)
        for hb in hbs.values():
            hb.start()
        first = hbs[names[0]]
        first.suspected.update(names[1:])  # after its t=0 beat to everyone
        rt.run(until=1.5)
        assert beats_by_pair(rt)[(names[0], names[-1])] == 1  # none at t=1
        first.restart()
        assert first.suspected == set()
        assert beats_by_pair(rt)[(names[0], names[-1])] == 2

    def test_unknown_endpoint_raises_where_the_loop_raised(self, n):
        rt, names, hbs = detector_world(n, interval=1.0, timeout=4.0)
        rt.deregister(names[-1])
        with pytest.raises(UnknownEndpointError):
            hbs[names[0]].start()
        # The peers before the unknown one were beaten, as by the loop.
        assert rt.network.sent_by_kind[KIND_HEARTBEAT] == n - 2


class TestMulticastRetries:
    """Under drops the fan-out is still one send_many; each dropped copy is
    retried on its own timer, ``max_retries`` times, then dead-lettered."""

    def _world(self, plan, max_retries):
        sim, net = make_network(plan=plan)
        log = []
        wire(net, NAMES, log)
        membership = GroupMembership()
        membership.create("G", NAMES)
        mcast = ReliableMulticast(
            net, membership, retry_delay=1.0, max_retries=max_retries
        )
        return sim, net, mcast, log

    def test_black_hole_retries_max_retries_times_then_dead_letters_once(self):
        sim, net, mcast, log = self._world(
            FailurePlan(drop_probability=1.0), max_retries=3
        )
        assert mcast.multicast("G", "O1", "K", "x") == 3
        sim.run()
        assert log == []
        assert net.sent_by_kind["K"] == 3 * (1 + 3)  # first copy + 3 retries
        assert mcast.dead_letters == 3
        letters = net.trace.by_category("mcast.dead_letter")
        assert sorted(e.details["dst"] for e in letters) == ["O2", "O3", "O4"]
        assert {e.details["retries"] for e in letters} == {3}

    def test_zero_budget_dead_letters_in_the_multicast_call(self):
        sim, net, mcast, log = self._world(
            FailurePlan(drop_probability=1.0), max_retries=0
        )
        mcast.multicast("G", "O1", "K", "x")
        assert mcast.dead_letters == 3 and net.sent_by_kind["K"] == 3
        assert sim.pending_events == 0

    def test_lossy_channel_delivers_every_copy_exactly_once(self):
        sim, net, mcast, log = self._world(
            FailurePlan(drop_probability=0.5), max_retries=50
        )
        for src in NAMES:
            mcast.multicast("G", src, "K", src)
        sim.run()
        assert mcast.dead_letters == 0
        assert sorted((name, kind) for name, kind, _ in log) == sorted(
            (dst, "K") for src in NAMES for dst in NAMES if dst != src
        )
        assert net.sent_by_kind["K"] == 12 + net.injector.dropped

    def test_reliable_transport_is_left_to_its_own_arq(self):
        sim, net = make_network(
            plan=FailurePlan(drop_probability=0.5), cls=ReliableNetwork
        )
        log = []
        wire(net, NAMES, log)
        membership = GroupMembership()
        membership.create("G", NAMES)
        mcast = ReliableMulticast(net, membership, max_retries=0)
        mcast.multicast("G", "O1", "K", "x")
        sim.run()
        assert mcast.dead_letters == 0  # no retry loop of its own, no give-up
        assert sorted(name for name, _, _ in log) == ["O2", "O3", "O4"]
