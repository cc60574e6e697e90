"""The distributed-object runtime.

Glues the kernel and network to objects and nodes: owns the simulator, the
network, the trace, the RNG registry and the membership service, and offers
a one-stop construction API for scenarios and examples.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator

from repro.net.failures import FailureInjector, FailurePlan
from repro.net.latency import LatencyModel
from repro.net.membership import GroupMembership
from repro.net.multicast import ReliableMulticast
from repro.net.network import Network
from repro.objects.base import DistributedObject
from repro.objects.node import Node
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanCollector, from_trace
from repro.simkernel.kernel import current_kernel_factory
from repro.simkernel.rng import RngRegistry
from repro.simkernel.scheduler import Simulator
from repro.simkernel.trace import TraceLevel, TraceRecorder


#: Hooks run at the end of every Runtime construction while installed.
#: Like the kernel seam, this exists because variant runners build their
#: Runtime internally: the TCP transport (repro.rt.tcp) uses it to attach
#: a socket bridge to runtimes it never sees constructed.
_runtime_hooks: tuple["RuntimeHook", ...] = ()

RuntimeHook = Callable[["Runtime"], None]


@contextmanager
def runtime_hook(hook: RuntimeHook) -> Iterator[RuntimeHook]:
    """Run ``hook(runtime)`` on every Runtime built in scope."""
    global _runtime_hooks
    previous = _runtime_hooks
    _runtime_hooks = (*_runtime_hooks, hook)
    try:
        yield hook
    finally:
        _runtime_hooks = previous


class Runtime:
    """A complete simulated distributed system instance."""

    def __init__(
        self,
        seed: int = 0,
        latency: LatencyModel | None = None,
        failure_plan: FailurePlan | None = None,
        reliable: bool = False,
        ack_timeout: float = 5.0,
        max_retries: int = 60,
        trace_level: TraceLevel = TraceLevel.FULL,
    ) -> None:
        # The kernel seam (see repro.simkernel.kernel): the deterministic
        # Simulator by default, or whatever backend factory is installed —
        # e.g. repro.rt's AsyncioKernel for real-concurrency runs.
        factory = current_kernel_factory()
        self.sim = Simulator() if factory is None else factory()
        self.rng = RngRegistry(seed)
        self.trace = TraceRecorder(level=trace_level)
        self._span_view: tuple[object, SpanCollector] | None = None
        #: Metrics registry: protocol engines push rare events; bulk
        #: network counters are pulled lazily by :meth:`metrics_snapshot`.
        self.metrics = MetricsRegistry()
        injector = FailureInjector(
            failure_plan, partial(self.rng.stream, "net.failures")
        )
        if reliable:
            from repro.net.reliable import ReliableNetwork

            self.network: Network = ReliableNetwork(
                self.sim, latency=latency, rng=self.rng, injector=injector,
                trace=self.trace, ack_timeout=ack_timeout,
                max_retries=max_retries,
            )
        else:
            self.network = Network(
                self.sim, latency=latency, rng=self.rng, injector=injector,
                trace=self.trace,
            )
        self.membership = GroupMembership()
        self.multicast = ReliableMulticast(self.network, self.membership)
        self.nodes: dict[str, Node] = {}
        self.objects: dict[str, DistributedObject] = {}
        self._released = False
        for hook in _runtime_hooks:
            hook(self)

    # -- topology -----------------------------------------------------------------

    def add_node(self, node_id: str) -> Node:
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id: {node_id}")
        node = Node(node_id)
        self.nodes[node_id] = node
        return node

    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]

    def register(self, obj: DistributedObject, node_id: str | None = None) -> None:
        """Register an object, creating/choosing its node as needed.

        When ``node_id`` is ``None`` the object gets a dedicated node named
        after it — the fully distributed, one-object-per-machine layout the
        paper's analysis assumes.
        """
        if obj.name in self.objects:
            raise ValueError(f"duplicate object name: {obj.name}")
        node_id = node_id if node_id is not None else f"node:{obj.name}"
        node = self.nodes.get(node_id) or self.add_node(node_id)
        node.host(obj)
        self.objects[obj.name] = obj
        obj.attach(self)
        self.network.register(obj.name, obj.receive)

    def deregister(self, name: str) -> None:
        obj = self.objects.pop(name, None)
        if obj is None:
            return
        if obj.node is not None:
            obj.node.evict(name)
        self.network.unregister(name)

    def crash_node(self, node_id: str) -> None:
        """Crash a node now: its objects neither send nor receive from here on.

        Messages to (or in flight towards) crashed objects are lost, not
        errors — senders cannot know the destination died (no fail-stop
        assumption, paper Section 2).
        """
        node = self.nodes[node_id]
        node.crashed = True
        for name in node.hosted_names():
            self.network.injector.crash(name, self.sim.now)
        self.trace.record(self.sim.now, "node.crash", node_id)
        self.metrics.counter("node.crashes").inc()

    def restart_node(self, node_id: str) -> None:
        """Restart a crashed node: its objects send and receive again.

        Closes the node's open crash windows at the current time, so the
        silence stays exact over ``[crash, restart)`` — messages sent into
        the window were lost forever; messages from here on flow.  Only
        the *node* comes back: volatile object state is whatever the
        object left in place, and reconstructing a protocol-consistent
        state from durable storage (WAL replay, rejoin) is the restarted
        object's own business.  No-op on a node that is not crashed.
        """
        node = self.nodes[node_id]
        if not node.crashed:
            return
        node.crashed = False
        now = self.sim.now
        for name in node.hosted_names():
            self.network.injector.restart(name, now)
        self.trace.record(now, "node.restart", node_id)
        self.metrics.counter("node.restarts").inc()

    # -- execution -------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = 200_000) -> None:
        """Run the simulation (with a default livelock budget for safety)."""
        if self._released:
            raise RuntimeError("this runtime was released: its run is over")
        self.sim.run(until=until, max_events=max_events)

    def release(self) -> None:
        """Cut every edge that closes a reference cycle through this run,
        so that dropping it frees it by reference counting (idempotent).

        The inverse of :meth:`register` for each object — its handler
        table, whose entries are bound to it, and its ``runtime`` and
        ``node`` links — plus what the object's class wired on top
        (``_unwire``); the network's receivers; and, on the simulator,
        every queued entry and the queue's delivery sink.  What is read
        from a finished run stays readable: the trace and spans, the
        network's counters, the clock, :meth:`metrics_snapshot`,
        :attr:`objects` and each object's own state.  :meth:`run` refuses
        from here on.  :class:`~repro.core.variants.ActionRun` calls this
        when it is dropped.
        """
        if self._released:
            return
        self._released = True
        for obj in self.objects.values():
            obj._kind_handlers = {}
            obj.runtime = obj.node = None
            obj._unwire()
        network = self.network
        network._receivers = {}
        network._targets = {}
        network.deliver_via = None
        queue = network._sim_queue
        if queue is not None:
            queue.discard()

    # -- observability -----------------------------------------------------------

    @property
    def spans(self) -> SpanCollector:
        """The causal span forest: a view of the trace (empty below FULL),
        rebuilt when the trace has grown since the last read."""
        entries = self.trace.entries
        stamp = (len(entries), entries[-1:])
        if self._span_view is None or self._span_view[0] != stamp:
            self._span_view = (stamp, from_trace(entries))
        return self._span_view[1]

    def metrics_snapshot(self) -> dict:
        """One picklable dict of every metric, pulling the bulk counters.

        Message/transport/multicast counts live on the network objects (the
        hot path never touches the registry); this folds them in as plain
        counters — idempotent, so snapshotting twice does not double-count.
        """
        metrics = self.metrics
        for kind, count in self.network.sent_by_kind.items():
            metrics.counter(f"msg.sent.{kind}").value = count
        for kind, count in self.network.delivered_by_kind.items():
            metrics.counter(f"msg.delivered.{kind}").value = count
        for attr in (
            "retransmissions", "transport_acks", "duplicates_dropped",
            "dead_letters",
        ):
            value = getattr(self.network, attr, None)
            if value is not None:
                metrics.counter(f"net.{attr}").value = value
        for kind, count in self.multicast.operations.items():
            metrics.counter(f"mcast.operations.{kind}").value = count
        if self.multicast.dead_letters:
            metrics.counter("mcast.dead_letters").value = (
                self.multicast.dead_letters
            )
        metrics.gauge("sim.now").set(self.sim.now)
        return metrics.snapshot()
