"""``Network.send_many``: the batched broadcast must equal a send loop.

The fast loop hoists per-send constants, so every observable — message
identity fields, ids, timestamps, counters, trace records, delivery order,
raised errors — is compared against the plain ``send`` loop on a twin
network, message-id counter aligned.
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
from repro.net.network import UnknownEndpointError
from repro.net.reliable import ReliableNetwork
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


def run_broadcasts(net, sim, batched, names):
    """Three staggered broadcasts, mixed with singles; return observables."""
    log = []
    wire(net, names, log)
    others = [n for n in names if n != names[0]]
    if batched:
        sent = list(net.send_many(names[0], others, "K", "p0"))
        sim.run(until=1.5)
        sent += [net.send(names[0], others[0], "S", "p1")]
        sent += list(net.send_many(names[1], [n for n in names if n != names[1]], "K", "p2"))
    else:
        sent = [net.send(names[0], dst, "K", "p0") for dst in others]
        sim.run(until=1.5)
        sent.append(net.send(names[0], others[0], "S", "p1"))
        sent += [
            net.send(names[1], dst, "K", "p2")
            for dst in names
            if dst != names[1]
        ]
    sim.run()
    envelopes = [
        (m.src, m.dst, m.kind, m.payload, m.msg_id, m.send_time, m.deliver_time)
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
    }


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
        plan = FailurePlan(drop_probability=0.3)
        reset_msg_ids()
        sim_a, net_a = make_network(plan=plan)
        looped = run_broadcasts(net_a, sim_a, batched=False, names=NAMES)
        reset_msg_ids()
        sim_b, net_b = make_network(plan=plan)
        batched = run_broadcasts(net_b, sim_b, batched=True, names=NAMES)
        assert batched == looped

    def test_subclassed_send_takes_the_per_send_path(self):
        # ReliableNetwork overrides send (ACK bookkeeping); send_many must
        # route every message through that override.
        sim, net = make_network(cls=ReliableNetwork)
        log = []
        wire(net, NAMES, log)
        assert not net._stock_send
        sent = net.send_many("O1", ["O2", "O3"], "K", "x")
        sim.run()
        assert [m.dst for m in sent] == ["O2", "O3"]
        assert sorted(name for name, _, _ in log) == ["O2", "O3"]

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
