"""Reliable FIFO multicast.

Implements the group-communication primitive that Section 4.5 of the paper
proposes as an implementation vehicle: "If a reliable multicast can be used,
acknowledgement messages will be no longer necessary and so communications
in our algorithm would consist of only several multicasts".

The layer fans a multicast out as unicasts over the FIFO network, and
retransmits any unicast the failure injector dropped until it gets through
(bounded by ``max_retries``; exhaustion dead-letters the unicast — trace
event ``mcast.dead_letter`` — rather than raising out of the scheduler).
When the underlying network already provides reliable delivery
(``provides_reliable_delivery``, e.g. :class:`~repro.net.reliable.ReliableNetwork`),
the layer's own retry loop is skipped — stacking two ARQ loops would
double-count logical sends.  Two counters are kept:

* ``operations`` — logical multicast invocations, the unit the Section 4.5
  variant is charged in (experiment E12);
* underlying unicast sends are counted by the network itself, so benches
  can report both views.
"""

from __future__ import annotations

from collections import Counter

from repro.net.membership import GroupMembership
from repro.net.network import Network


class ReliableMulticast:
    """Reliable FIFO multicast to closed groups."""

    def __init__(
        self,
        network: Network,
        membership: GroupMembership,
        retry_delay: float = 1.0,
        max_retries: int = 50,
    ) -> None:
        self.network = network
        self.membership = membership
        self.retry_delay = retry_delay
        self.max_retries = max_retries
        self.operations: Counter[str] = Counter()
        self.dead_letters = 0

    def multicast(
        self,
        group: str,
        src: str,
        kind: str,
        payload: object = None,
        include_self: bool = False,
    ) -> int:
        """Multicast ``payload`` to every member of ``group``.

        Returns the number of underlying unicasts initiated (before
        retransmissions).  The sender is excluded unless ``include_self``.
        """
        view = self.membership.view(group)
        targets = view.members if include_self else view.others(src)
        self.operations[kind] += 1
        sent = self.network.send_many(src, targets, kind, payload)
        # A transport with its own ARQ recovers its drops itself.
        if not self.network.provides_reliable_delivery:
            for message in sent:
                if message.dropped:
                    self._retry(src, message.dst, kind, payload, attempt=0)
        return len(targets)

    def _retry(
        self, src: str, dst: str, kind: str, payload: object, attempt: int
    ) -> None:
        """Attempt ``attempt`` to ``dst`` was dropped: resend after
        ``retry_delay``, or dead-letter once the budget is spent."""
        if attempt >= self.max_retries:
            self.dead_letters += 1
            self.network.trace.record(
                self.network.sim.now, "mcast.dead_letter", src,
                dst=dst, kind=kind, retries=attempt,
            )
            return
        self.network.sim.schedule(
            self.retry_delay,
            lambda: self._resend(src, dst, kind, payload, attempt + 1),
            label=f"mcast-retry:{kind}:{src}->{dst}",
        )

    def _resend(
        self, src: str, dst: str, kind: str, payload: object, attempt: int
    ) -> None:
        if self.network.send(src, dst, kind, payload).dropped:
            self._retry(src, dst, kind, payload, attempt)

    def total_operations(self, kinds: set[str] | None = None) -> int:
        if kinds is None:
            return sum(self.operations.values())
        return sum(count for kind, count in self.operations.items() if kind in kinds)
