"""Unit tests for the network substrate."""

import pytest

from repro.net import (
    Channel,
    ConstantLatency,
    ExponentialLatency,
    FailureInjector,
    FailurePlan,
    GroupMembership,
    Network,
    ReliableMulticast,
    UniformLatency,
)
from repro.net.failures import CrashWindow, PartitionWindow
from repro.net.message import Message
from repro.net.network import UnknownEndpointError
from repro.simkernel import RngRegistry, Simulator
from repro.simkernel.events import Event, TieBreakPolicy


def make_network(latency=None, plan=None, seed=0):
    sim = Simulator()
    rng = RngRegistry(seed)
    injector = FailureInjector(plan, rng.stream("net.failures")) if plan else None
    net = Network(sim, latency=latency, rng=rng, injector=injector)
    return sim, net


class TestLatencyModels:
    def test_constant(self):
        import random

        model = ConstantLatency(2.5)
        assert model.sample(random.Random(0)) == 2.5

    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_within_bounds(self):
        import random

        model = UniformLatency(1.0, 3.0)
        rng = random.Random(0)
        for _ in range(100):
            assert 1.0 <= model.sample(rng) <= 3.0

    def test_uniform_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)

    def test_exponential_above_base(self):
        import random

        model = ExponentialLatency(mean=2.0, base=0.5)
        rng = random.Random(0)
        for _ in range(100):
            assert model.sample(rng) >= 0.5

    def test_exponential_bad_mean(self):
        with pytest.raises(ValueError):
            ExponentialLatency(mean=0)

    def test_describe(self):
        assert "constant" in ConstantLatency(1).describe()
        assert "uniform" in UniformLatency(0, 1).describe()
        assert "exponential" in ExponentialLatency(1).describe()


class TestChannelFifo:
    def test_fifo_under_random_latency(self):
        """Even with wildly varying latencies, deliveries never reorder."""
        import random

        channel = Channel(
            "a", "b", UniformLatency(0.1, 10.0), rng=random.Random(123)
        )
        deliveries = []
        for i in range(200):
            msg = Message(src="a", dst="b", kind="K")
            deliveries.append(channel.stamp(msg, now=float(i) * 0.01))
        assert deliveries == sorted(deliveries)

    def test_counts_sends(self):
        import random

        channel = Channel("a", "b", ConstantLatency(1.0), random.Random(0))
        for _ in range(3):
            channel.stamp(Message(src="a", dst="b", kind="K"), now=0.0)
        assert channel.sent == 3


class TestNetwork:
    def test_basic_delivery(self):
        sim, net = make_network(ConstantLatency(2.0))
        received = []
        net.register("b", received.append)
        net.send("a", "b", "PING", payload={"x": 1})
        sim.run()
        assert len(received) == 1
        assert received[0].payload == {"x": 1}
        assert received[0].deliver_time == 2.0

    def test_unknown_endpoint_raises(self):
        _, net = make_network()
        with pytest.raises(UnknownEndpointError):
            net.send("a", "nowhere", "PING")

    def test_counts_by_kind(self):
        sim, net = make_network()
        net.register("b", lambda m: None)
        net.send("a", "b", "EXCEPTION")
        net.send("a", "b", "EXCEPTION")
        net.send("a", "b", "ACK")
        sim.run()
        assert net.sent_by_kind["EXCEPTION"] == 2
        assert net.sent_by_kind["ACK"] == 1
        assert net.total_sent() == 3
        assert net.total_sent({"ACK"}) == 1
        assert net.delivered_by_kind["EXCEPTION"] == 2

    def test_fifo_across_network(self):
        sim, net = make_network(UniformLatency(0.1, 5.0))
        order = []
        net.register("b", lambda m: order.append(m.payload))
        for i in range(50):
            net.send("a", "b", "K", payload=i)
        sim.run()
        assert order == list(range(50))

    def test_pair_latency_override(self):
        sim, net = make_network(ConstantLatency(1.0))
        times = {}
        net.register("b", lambda m: times.setdefault("b", sim.now))
        net.register("c", lambda m: times.setdefault("c", sim.now))
        net.set_pair_latency("a", "c", ConstantLatency(9.0))
        net.send("a", "b", "K")
        net.send("a", "c", "K")
        sim.run()
        assert times["b"] == 1.0
        assert times["c"] == 9.0

    def test_pair_latency_override_after_use_rejected(self):
        sim, net = make_network()
        net.register("b", lambda m: None)
        net.send("a", "b", "K")
        with pytest.raises(RuntimeError):
            net.set_pair_latency("a", "b", ConstantLatency(5.0))

    def test_unregistered_receiver_loses_message(self):
        sim, net = make_network()
        net.register("b", lambda m: None)
        net.send("a", "b", "K")
        net.unregister("b")
        sim.run()
        assert net.delivered_by_kind["K"] == 0
        assert len(net.trace.by_category("msg.lost")) == 1

    def test_trace_records_send_and_recv(self):
        sim, net = make_network()
        net.register("b", lambda m: None)
        net.send("a", "b", "K")
        sim.run()
        assert len(net.trace.by_category("msg.send")) == 1
        assert len(net.trace.by_category("msg.recv")) == 1


class _PickLast(TieBreakPolicy):
    """Runs the last of each choice group and records the groups' labels."""

    def __init__(self):
        self.groups = []

    def choose(self, candidates):
        self.groups.append([event.label for event in candidates])
        return len(candidates) - 1


def make_explored_network():
    sim, net = make_network(ConstantLatency(1.0))
    policy = _PickLast()
    sim._queue.tie_break = policy
    return sim, net, policy


class TestExploredSends:
    """Under a tie-break policy (the explorer's controlled loop) sends take
    the same raw-entry path as every other run; the queue labels each raw
    delivery when it wraps it for the policy."""

    def test_send_queues_the_message_itself(self):
        sim, net, _ = make_explored_network()
        net.register("b", lambda m: None)
        message = net.send("a", "b", "PING")
        (bucket,) = sim._queue._buckets.values()
        assert bucket == [message]
        assert bucket[0].__class__ is not Event

    def test_policy_sees_the_delivery_labels(self):
        sim, net, policy = make_explored_network()
        order = []
        net.register("b", lambda m: order.append(m.dst))
        net.register("c", lambda m: order.append(m.dst))
        net.send("a", "b", "PING")
        net.send("a", "c", "PING")
        sim.run()
        assert policy.groups == [["deliver:PING:a->b", "deliver:PING:a->c"]]
        assert order == ["c", "b"]

    def test_send_many_matches_a_loop_of_sends(self):
        def deliveries(batched):
            sim, net, policy = make_explored_network()
            order = []
            for name in "bcd":
                net.register(name, lambda m: order.append((m.dst, m.payload)))
            if batched:
                net.send_many("a", list("bcd"), "EXC", payload=7)
            else:
                for name in "bcd":
                    net.send("a", name, "EXC", payload=7)
            assert len(sim._queue) == 3
            sim.run()
            return order, policy.groups, dict(net.sent_by_kind)

        assert deliveries(batched=True) == deliveries(batched=False)


class TestFailureInjection:
    def test_drop_probability_one_drops_all(self):
        plan = FailurePlan(drop_probability=1.0)
        sim, net = make_network(plan=plan)
        received = []
        net.register("b", received.append)
        msg = net.send("a", "b", "K")
        sim.run()
        assert received == []
        assert msg.dropped
        assert net.sent_by_kind["K"] == 1  # sends still counted

    def test_corruption_flag_set(self):
        plan = FailurePlan(corrupt_probability=1.0)
        sim, net = make_network(plan=plan)
        received = []
        net.register("b", received.append)
        net.send("a", "b", "K")
        sim.run()
        assert received[0].corrupted

    def test_crashed_sender_drops(self):
        plan = FailurePlan(crashes=[CrashWindow("a", 0.0, 10.0)])
        sim, net = make_network(plan=plan)
        received = []
        net.register("b", received.append)
        net.send("a", "b", "K")
        sim.run()
        assert received == []

    def test_crash_window_expires(self):
        plan = FailurePlan(crashes=[CrashWindow("a", 0.0, 5.0)])
        sim, net = make_network(plan=plan)
        received = []
        net.register("b", received.append)
        sim.schedule(6.0, lambda: net.send("a", "b", "K"))
        sim.run()
        assert len(received) == 1

    def test_receiver_crashing_mid_flight_loses_message(self):
        plan = FailurePlan(crashes=[CrashWindow("b", 0.5, 10.0)])
        sim, net = make_network(ConstantLatency(1.0), plan=plan)
        received = []
        net.register("b", received.append)
        net.send("a", "b", "K")  # sent at 0.0 while b alive; arrives at 1.0
        sim.run()
        assert received == []

    def test_partition_blocks_both_directions(self):
        plan = FailurePlan(
            partitions=[
                PartitionWindow(frozenset({"a"}), frozenset({"b"}), 0.0, 10.0)
            ]
        )
        sim, net = make_network(plan=plan)
        received = []
        net.register("a", received.append)
        net.register("b", received.append)
        net.send("a", "b", "K")
        net.send("b", "a", "K")
        sim.run()
        assert received == []

    def test_partition_heals(self):
        plan = FailurePlan(
            partitions=[
                PartitionWindow(frozenset({"a"}), frozenset({"b"}), 0.0, 5.0)
            ]
        )
        sim, net = make_network(plan=plan)
        received = []
        net.register("b", received.append)
        sim.schedule(6.0, lambda: net.send("a", "b", "K"))
        sim.run()
        assert len(received) == 1

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FailurePlan(drop_probability=1.5)
        with pytest.raises(ValueError):
            FailurePlan(corrupt_probability=-0.1)

    def test_drop_statistics(self):
        plan = FailurePlan(drop_probability=0.5)
        sim, net = make_network(plan=plan, seed=7)
        net.register("b", lambda m: None)
        for _ in range(200):
            net.send("a", "b", "K")
        sim.run()
        assert 0 < net.injector.dropped < 200

    def test_stream_is_made_on_the_first_draw_not_before(self):
        from repro.objects import Runtime

        rt = Runtime(seed=7)
        rt.network.register("b", lambda m: None)
        rt.network.send("a", "b", "K")
        rt.run()
        assert "net.failures" not in rt.rng._streams  # fault-free: never seeded
        lossy = Runtime(seed=7, failure_plan=FailurePlan(drop_probability=0.5))
        lossy.network.register("b", lambda m: None)
        assert "net.failures" not in lossy.rng._streams
        lossy.network.send("a", "b", "K")
        assert "net.failures" in lossy.rng._streams

    def test_late_stream_draws_the_fates_of_an_eager_one(self):
        """The stream is seeded from its name, so when it is made cannot
        change a single fate — dropped, corrupted or delivered."""
        def fates(rng_of):
            plan = FailurePlan(drop_probability=0.3, corrupt_probability=0.2)
            registry = RngRegistry(11)
            injector = FailureInjector(plan, rng_of(registry))
            net = Network(Simulator(), rng=registry, injector=injector)
            net.register("b", lambda m: None)
            sent = [net.send("a", "b", "K") for _ in range(300)]
            return [(m.dropped, m.corrupted) for m in sent]

        eager = fates(lambda registry: registry.stream("net.failures"))
        late = fates(lambda registry: lambda: registry.stream("net.failures"))
        assert late == eager
        assert len(set(eager)) == 3  # all three fates occurred


class TestGroupMembership:
    def test_create_and_view(self):
        gm = GroupMembership()
        view = gm.create("g", ["O2", "O1", "O3"])
        assert view.members == ("O1", "O2", "O3")
        assert view.version == 1
        assert "O2" in view

    def test_duplicate_create_rejected(self):
        gm = GroupMembership()
        gm.create("g", ["a"])
        with pytest.raises(ValueError):
            gm.create("g", ["b"])

    def test_join_and_leave_bump_version(self):
        gm = GroupMembership()
        gm.create("g", ["a"])
        view = gm.join("g", "b")
        assert view.version == 2
        assert view.members == ("a", "b")
        view = gm.leave("g", "a")
        assert view.version == 3
        assert view.members == ("b",)

    def test_idempotent_join_leave(self):
        gm = GroupMembership()
        gm.create("g", ["a"])
        assert gm.join("g", "a").version == 1
        assert gm.leave("g", "zzz").version == 1

    def test_others_excludes_self(self):
        gm = GroupMembership()
        view = gm.create("g", ["a", "b", "c"])
        assert view.others("b") == ("a", "c")

    def test_missing_group(self):
        gm = GroupMembership()
        with pytest.raises(KeyError):
            gm.view("missing")

    def test_dissolve(self):
        gm = GroupMembership()
        gm.create("g", ["a"])
        gm.dissolve("g")
        assert gm.groups() == []


class TestReliableMulticast:
    def test_reaches_all_members_except_sender(self):
        sim, net = make_network()
        gm = GroupMembership()
        gm.create("g", ["a", "b", "c"])
        received = []
        for name in ("a", "b", "c"):
            net.register(name, lambda m, n=name: received.append((n, m.kind)))
        mcast = ReliableMulticast(net, gm)
        count = mcast.multicast("g", "a", "COMMIT", payload="E")
        sim.run()
        assert count == 2
        assert sorted(received) == [("b", "COMMIT"), ("c", "COMMIT")]
        assert mcast.operations["COMMIT"] == 1

    def test_include_self(self):
        sim, net = make_network()
        gm = GroupMembership()
        gm.create("g", ["a", "b"])
        received = []
        for name in ("a", "b"):
            net.register(name, lambda m, n=name: received.append(n))
        mcast = ReliableMulticast(net, gm)
        mcast.multicast("g", "a", "K", include_self=True)
        sim.run()
        assert sorted(received) == ["a", "b"]

    def test_retries_through_lossy_channel(self):
        plan = FailurePlan(drop_probability=0.6)
        sim, net = make_network(plan=plan, seed=3)
        gm = GroupMembership()
        gm.create("g", ["a", "b"])
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        mcast = ReliableMulticast(net, gm, retry_delay=0.5)
        mcast.multicast("g", "a", "K")
        sim.run()
        assert len(received) == 1
        assert net.sent_by_kind["K"] >= 1

    def test_retry_budget_exhaustion_dead_letters(self):
        # Exhausting the per-destination retry budget records a dead
        # letter instead of raising out of the retry callback (which would
        # kill the simulation — fault campaigns crash members on purpose).
        plan = FailurePlan(crashes=[CrashWindow("b", 0.0)])
        sim, net = make_network(plan=plan)
        gm = GroupMembership()
        gm.create("g", ["a", "b"])
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        mcast = ReliableMulticast(net, gm, retry_delay=0.1, max_retries=3)
        mcast.multicast("g", "a", "K")
        sim.run()  # exhausted retries dead-letter the unicast; nothing raises
        assert mcast.dead_letters == 1
        dead = net.trace.by_category("mcast.dead_letter")
        assert len(dead) == 1
        assert dead[0].details["dst"] == "b"

    def test_total_operations(self):
        sim, net = make_network()
        gm = GroupMembership()
        gm.create("g", ["a", "b"])
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        mcast = ReliableMulticast(net, gm)
        mcast.multicast("g", "a", "X")
        mcast.multicast("g", "a", "Y")
        sim.run()
        assert mcast.total_operations() == 2
        assert mcast.total_operations({"X"}) == 1
