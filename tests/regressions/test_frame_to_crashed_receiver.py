"""Regression: a frame that reaches a crashed receiver is lost, not consumed.

``ReliableNetwork`` promises delivery "to a live receiver exactly once".
Its receive step used to run before the network's crash check, so a frame
landing on a crashed endpoint still consumed its sequence number, and the
``T_ACK`` the down endpoint "sent" was dropped at the source.  The
retransmission that reached the endpoint once it was back up was then
dropped as a duplicate and acknowledged: the message was never handed up.

Timeline (latency 1, ``ack_timeout`` 5, ``b`` down during [0.5, 3.0)):

    t=0  a -> b, seq 0             t=5  retransmission of seq 0
    t=1  lands on the crashed b:   t=6  b is live: delivered, acknowledged
         lost (``msg.lost``)       t=7  the T_ACK settles the frame

The receive step now runs after the crash check, so the frame at t=1 is
lost like any message and never reaches the ARQ state.  The same holds in
the other direction: a ``T_ACK`` that reaches a crashed sender is lost and
settles nothing, and the sender's retransmission recovers the exchange.
"""

from repro.net.failures import CrashWindow, FailureInjector, FailurePlan
from repro.net.latency import ConstantLatency
from repro.net.reliable import KIND_TRANSPORT_ACK, ReliableNetwork
from repro.simkernel import RngRegistry, Simulator


def _make(*crashes):
    sim = Simulator()
    rng = RngRegistry(0)
    injector = FailureInjector(FailurePlan(crashes=list(crashes)), rng.stream("net.failures"))
    net = ReliableNetwork(
        sim, latency=ConstantLatency(1.0), rng=rng, injector=injector, ack_timeout=5.0,
    )
    received = {"a": [], "b": []}
    for name in received:
        net.register(name, lambda m, name=name: received[name].append((sim.now, m.payload)))
    return sim, net, received


def _lost(net):
    return [(e.time, e.subject, e.details["kind"]) for e in net.trace.by_category("msg.lost")]


def test_frame_to_a_crashed_receiver_is_delivered_once_it_is_back():
    sim, net, received = _make(CrashWindow("b", 0.5, 3.0))
    net.send("a", "b", "K", payload="hello")
    sim.run()
    assert received["b"] == [(6.0, "hello")]
    assert _lost(net) == [(1.0, "b", "K")]
    assert net.retransmissions == 1
    assert net.duplicates_dropped == 0
    assert net.transport_acks == 1
    assert not net._pending


def test_t_ack_to_a_crashed_sender_is_lost_not_settled():
    # b acknowledges at t=1; the T_ACK lands at t=2 on a, down in [1.5, 3.0).
    sim, net, received = _make(CrashWindow("a", 1.5, 3.0))
    net.send("a", "b", "K", payload="hello")
    sim.run(until=4.0)
    assert _lost(net) == [(2.0, "a", KIND_TRANSPORT_ACK)]
    assert ("a", "b", 0) in net._pending, "a lost T_ACK settles nothing"
    sim.run()
    # The retransmission at t=5 is a duplicate at b, which re-acknowledges.
    assert received["b"] == [(1.0, "hello")]
    assert net.retransmissions == 1
    assert net.duplicates_dropped == 1
    assert net.transport_acks == 2
    assert not net._pending
