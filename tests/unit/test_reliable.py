"""Unit tests for the reliable (ARQ) transport layer."""

import pytest

from repro.net.detector import KIND_HEARTBEAT, Heartbeater
from repro.net.failures import CrashWindow, FailurePlan, FailureInjector
from repro.net.latency import UniformLatency
from repro.net.network import Network, UnknownEndpointError
from repro.net.reliable import (
    KIND_TRANSPORT_ACK,
    ReliableNetwork,
)
from repro.objects import DistributedObject, Runtime
from repro.simkernel import RngRegistry, Simulator
from repro.simkernel.events import PRIORITY_NORMAL


def make_reliable(plan=None, seed=0, latency=None, ack_timeout=5.0, max_retries=60):
    sim = Simulator()
    rng = RngRegistry(seed)
    injector = FailureInjector(plan, rng.stream("net.failures")) if plan else None
    net = ReliableNetwork(
        sim, latency=latency, rng=rng, injector=injector,
        ack_timeout=ack_timeout, max_retries=max_retries,
    )
    return sim, net


def queued_labels(sim) -> list[str]:
    """Record the label of every event pushed on ``sim``'s queue from now on.

    The transport arms its retransmission timers on the queue itself, not
    through ``sim.schedule``, so this is where an ``rto:`` timer shows.
    Raw deliveries (``push_raw``) carry no label and are not recorded.
    """
    labels = []
    queue = sim._queue
    push = queue.push

    def recording(time, action, priority=PRIORITY_NORMAL, label="", arg=None):
        labels.append(label)
        return push(time, action, priority, label, arg)

    queue.push = recording
    return labels


class DropFirst(FailureInjector):
    """Drops the first message sent, delivers every later one."""

    def __init__(self):
        super().__init__()
        self._armed = True

    def decide(self, src, dst, time):
        if self._armed:
            self._armed = False
            self.dropped += 1
            return self.DROP
        return self.DELIVER


class TestHeartbeatDatagrams:
    """A beat is a liveness probe: its loss is what the detector measures,
    so the transport neither sequences nor repairs it."""

    def test_a_beat_creates_no_frame_ack_or_retransmission_timer(self):
        sim, net = make_reliable()
        labels = queued_labels(sim)
        beats = []
        net.register("a", lambda m: None)
        net.register("b", beats.append)
        message = net.send("a", "b", KIND_HEARTBEAT)
        assert message.payload is None and not net._pending
        sim.run()
        assert [m.kind for m in beats] == [KIND_HEARTBEAT]
        assert beats[0].payload is None
        assert dict(net.sent_by_kind) == {KIND_HEARTBEAT: 1}
        assert net.transport_acks == 0
        assert not [label for label in labels if label.startswith("rto:")]

    def test_a_dropped_beat_is_never_retransmitted(self):
        sim, net = make_reliable(plan=FailurePlan(drop_probability=1.0), ack_timeout=1.0)
        labels = queued_labels(sim)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.send("a", "b", KIND_HEARTBEAT)
        sim.run(max_events=1_000)
        assert net.retransmissions == 0 and net.dead_letters == 0
        assert not net.trace.by_category("msg.retransmit")
        assert len(net.trace.by_category("msg.drop")) == 1
        assert labels == []

    def test_a_corrupted_beat_is_dropped_and_leaves_last_seen_unchanged(self):
        rt = Runtime(reliable=True, failure_plan=FailurePlan(corrupt_probability=1.0))
        a, b = DistributedObject("a"), DistributedObject("b")
        rt.register(a)
        rt.register(b)
        detector = Heartbeater(b, ("a", "b"), interval=1.0, timeout=4.0)
        detector.last_seen["a"] = -1.0
        a.send("b", KIND_HEARTBEAT)
        rt.run()
        assert detector.last_seen == {"a": -1.0}
        assert rt.network.delivered_by_kind[KIND_HEARTBEAT] == 0
        drops = rt.trace.by_category("msg.checksum_drop")
        assert [(e.subject, e.details["kind"]) for e in drops] == [("b", KIND_HEARTBEAT)]

    def test_a_frame_after_a_dropped_beat_is_not_held_back(self):
        sim = Simulator()
        net = ReliableNetwork(
            sim, rng=RngRegistry(0), injector=DropFirst(), ack_timeout=5.0
        )
        received = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: received.append((sim.now, m.kind)))
        net.send("a", "b", KIND_HEARTBEAT)  # lost
        net.send("a", "b", "K")
        sim.run()
        # Delivered one latency after the send, not after the lost beat's
        # retransmission timeout.
        assert received == [(1.0, "K")]
        assert net.retransmissions == 0


class TestLosslessPath:
    def test_plain_delivery(self):
        sim, net = make_reliable()
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        net.send("a", "b", "K", payload="hello")
        sim.run()
        assert len(received) == 1
        assert received[0].payload == "hello"
        assert received[0].kind == "K"
        assert net.retransmissions == 0

    def test_logical_count_excludes_transport(self):
        sim, net = make_reliable()
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        for _ in range(3):
            net.send("a", "b", "EXCEPTION")
        sim.run()
        assert net.sent_by_kind["EXCEPTION"] == 3
        assert net.sent_by_kind[KIND_TRANSPORT_ACK] == 3
        assert net.total_sent({"EXCEPTION"}) == 3

    def test_in_order_delivery(self):
        sim, net = make_reliable(latency=UniformLatency(0.1, 5.0))
        order = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: order.append(m.payload))
        for i in range(30):
            net.send("a", "b", "K", payload=i)
        sim.run()
        assert order == list(range(30))

    def test_send_to_an_unknown_endpoint_consumes_no_sequence_number(self):
        # Regression: the frame used to be numbered and held pending before
        # the endpoint check raised, so the pair's next frame (seq 1) sat in
        # the receiver's reorder buffer behind a seq 0 that never came.
        sim, net = make_reliable()
        received = []
        net.register("a", lambda m: None)
        with pytest.raises(UnknownEndpointError):
            net.send("a", "b", "X", 1)
        assert not net._pending and not net._next_seq
        net.register("b", lambda m: received.append(m.payload))
        net.send("a", "b", "X", 2)
        sim.run()
        assert received == [2]
        assert not net._reorder


class TestLossRecovery:
    def test_delivers_despite_heavy_loss(self):
        plan = FailurePlan(drop_probability=0.5)
        sim, net = make_reliable(plan=plan, seed=11, ack_timeout=3.0)
        received = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: received.append(m.payload))
        for i in range(20):
            net.send("a", "b", "K", payload=i)
        sim.run(max_events=100_000)
        assert received == list(range(20))
        assert net.retransmissions > 0

    def test_exactly_once_despite_duplicate_acks(self):
        plan = FailurePlan(drop_probability=0.4)
        sim, net = make_reliable(plan=plan, seed=5, ack_timeout=2.0)
        received = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: received.append(m.payload))
        for i in range(10):
            net.send("a", "b", "K", payload=i)
        sim.run(max_events=100_000)
        assert received == list(range(10))  # no duplicates delivered

    def test_corruption_dropped_and_recovered(self):
        plan = FailurePlan(corrupt_probability=0.5)
        sim, net = make_reliable(plan=plan, seed=2, ack_timeout=2.0)
        received = []
        net.register("a", lambda m: None)
        net.register("b", lambda m: received.append(m.payload))
        for i in range(10):
            net.send("a", "b", "K", payload=i)
        sim.run(max_events=100_000)
        assert received == list(range(10))
        assert not any(m for m in received if isinstance(m, bytes))
        checksum_drops = net.trace.by_category("msg.checksum_drop")
        assert checksum_drops  # some frames were corrupted and discarded

    def test_dead_destination_dead_letters_instead_of_raising(self):
        # Retry exhaustion must NOT raise out of the scheduler callback —
        # that would kill the whole simulation over one unreachable peer.
        # It records a dead letter and (optionally) notifies the sender.
        plan = FailurePlan(crashes=[CrashWindow("b", 0.0)])
        sim, net = make_reliable(plan=plan, ack_timeout=0.5, max_retries=4)
        failed = []
        net.on_delivery_failure = failed.append
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.send("a", "b", "K")
        sim.run(max_events=10_000)  # exhausted retries dead-letter; nothing raises
        assert net.dead_letters == 1
        dead = net.trace.by_category("msg.dead_letter")
        assert len(dead) == 1
        assert dead[0].details["dst"] == "b"
        assert dead[0].details["kind"] == "K"
        assert [frame.kind for frame in failed] == ["K"]
        assert not net._pending  # the exhausted send is fully retired

    def test_corrupted_ack_is_discarded_not_processed(self):
        # Regression: a corrupted transport ACK used to be fed to the ACK
        # handler before the checksum check, silently completing the
        # handshake off garbage.  A corrupted ACK must be discarded like
        # any other corrupted frame; the sender then retransmits and the
        # duplicate-suppression re-ACK completes the exchange cleanly.
        class CorruptFirstAck(FailureInjector):
            def __init__(self):
                super().__init__()
                self._armed = True

            def decide(self, src, dst, time):
                if self._armed and src == "b" and dst == "a":
                    self._armed = False
                    self.corrupted += 1
                    return self.CORRUPT
                return self.DELIVER

        sim = Simulator()
        net = ReliableNetwork(
            sim, rng=RngRegistry(0), injector=CorruptFirstAck(),
            ack_timeout=2.0, max_retries=10,
        )
        received = []
        net.register("a", lambda m: None)
        net.register("b", received.append)
        net.send("a", "b", "K", payload="x")
        sim.run(max_events=10_000)
        assert [m.payload for m in received] == ["x"]  # exactly once
        assert net.retransmissions >= 1  # corrupt ACK forced a resend
        drops = net.trace.by_category("msg.checksum_drop")
        assert any(e.details["kind"] == KIND_TRANSPORT_ACK for e in drops)
        assert not net._pending  # clean re-ACK retired the send
        assert net.dead_letters == 0

    def test_retransmission_counting(self):
        plan = FailurePlan(drop_probability=1.0)
        sim, net = make_reliable(plan=plan, ack_timeout=1.0, max_retries=3)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.send("a", "b", "K")
        sim.run(max_events=10_000)
        assert net.retransmissions == 3
        assert net.dead_letters == 1
        assert net.sent_by_kind["K"] == 1  # logical count untouched


class TestResolutionOverLossyNetwork:
    """End-to-end: the paper's algorithm keeps its exact logical message
    counts and all guarantees over a 30%-lossy network."""

    def test_counts_and_agreement(self):
        from repro.workloads.generator import (
            expected_general_messages,
            general_case,
        )

        for seed in range(3):
            scenario = general_case(5, 2, 2, seed=seed)
            scenario.failure_plan = FailurePlan(
                drop_probability=0.3, corrupt_probability=0.05
            )
            scenario.reliable = True
            scenario.ack_timeout = 4.0
            result = scenario.run(max_events=600_000)
            assert result.all_finished()
            assert result.resolution_message_total() == (
                expected_general_messages(5, 2, 2)
            )
            handlers = result.handlers_started("A1")
            assert len(handlers) == 5
            assert len(set(handlers.values())) == 1
            assert result.runtime.network.retransmissions > 0

    def test_example2_over_lossy_network(self):
        from repro.workloads.generator import example2_scenario

        scenario = example2_scenario(seed=1)
        scenario.failure_plan = FailurePlan(drop_probability=0.25)
        scenario.reliable = True
        scenario.ack_timeout = 4.0
        result = scenario.run(max_events=600_000)
        assert result.all_finished()
        assert sum(result.messages_for_action("A1").values()) == 36
        assert len(set(result.handlers_started("A1").values())) == 1


def test_the_transport_is_two_hooks_on_the_stock_send_and_delivery():
    assert ReliableNetwork.send is Network.send
    assert ReliableNetwork._deliver is Network._deliver
    assert ReliableNetwork._deliver_run is Network._deliver_run
    assert Network._frame is None and Network._receive is None
