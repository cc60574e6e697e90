"""Heartbeat-based failure detection.

The paper's fault model includes node crashes (Section 2) but its
algorithm assumes every participant stays reachable; a crashed peer would
stall resolution forever (the resolver waits for its ACK).  The
crash-tolerant variant (:mod:`repro.core.crash_tolerant`) closes that gap
using this detector: every member periodically heartbeats the group, and
a member whose heartbeats stop for ``timeout`` is *suspected*.

This is an eventually-perfect-style detector under the simulator's fault
model: crashed endpoints never heartbeat again (no false recoveries), but
slow networks can cause false suspicion — consumers must tolerate
messages from suspected peers arriving late, which the variant does.

Suspicion can additionally be wired to the group membership service
(Section 4.5: participants "could be treated as members of a closed
group"): pass ``membership_group`` and every suspected member is removed
from that group's view, so view changes track the detector's alive set.
Suspected peers also stop receiving our heartbeats — they have left the
view, and under the crash-only fault model they will never answer again.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.net.message import Message
from repro.objects.base import DistributedObject

KIND_HEARTBEAT = "HEARTBEAT"


class Heartbeater:
    """Emits and monitors heartbeats for one object within a peer group."""

    def __init__(
        self,
        obj: DistributedObject,
        peers: Sequence[str],
        interval: float = 2.0,
        timeout: float = 7.0,
        on_suspect: Callable[[str], None] | None = None,
        membership_group: str | None = None,
    ) -> None:
        if timeout <= interval:
            raise ValueError(
                f"timeout ({timeout}) must exceed the interval ({interval})"
            )
        self.obj = obj
        self.peers = [p for p in peers if p != obj.name]
        self.interval = interval
        self.timeout = timeout
        self.on_suspect = on_suspect
        self.membership_group = membership_group
        self.last_seen: dict[str, float] = {}
        self.suspected: set[str] = set()
        self._running = False
        # start() and stop() each bump the generation; the tick chain
        # carries the generation it was started under and dies when it goes
        # stale (or the object crashes).  Without this, stop() followed by
        # start() before the old tick fires would leave two live chains
        # (doubled heartbeat traffic and check frequency).
        self._generation = 0
        self._label = f"hb:{obj.name}"
        #: The network's bound ``send_many``, taken at :meth:`start`: a beat
        #: is one fan-out with no object wrapper between.
        self._send_many: Callable[..., object] | None = None
        obj.on_kind(KIND_HEARTBEAT, self._on_heartbeat)

    def start(self) -> None:
        """Begin heartbeating and monitoring (idempotent)."""
        if self._running:
            return
        self._running = True
        self._generation += 1
        self._send_many = self.obj.runtime.network.send_many
        now = self.obj.sim_now
        for peer in self.peers:
            self.last_seen[peer] = now
        self._tick(self._generation)

    def stop(self) -> None:
        self._running = False
        self._generation += 1

    def restart(self) -> None:
        """Fresh start after this object's *own* node restarts.

        The crash killed the tick chain (it dies on
        ``obj.crashed``) but left ``_running`` set, so a plain
        :meth:`start` would no-op.  Force a new generation and forget
        pre-crash suspicions — a restarted node re-learns who is alive
        rather than trusting verdicts from its previous life.
        """
        self.stop()
        self.suspected.clear()
        self.start()

    def rejoin(self, peer: str) -> None:
        """Welcome a restarted peer back: clear its suspicion and re-add
        it to the membership view.  No-op for an unsuspected peer (beyond
        refreshing ``last_seen`` so the rejoin itself counts as life)."""
        self.last_seen[peer] = self.obj.sim_now
        if peer not in self.suspected:
            return
        self.suspected.discard(peer)
        self.obj.runtime.trace.record(
            self.obj.sim_now, "detector.rejoin", self.obj.name, peer=peer
        )
        if self.membership_group is not None:
            membership = self.obj.runtime.membership
            if self.membership_group in membership.groups():
                membership.join(self.membership_group, peer)

    def is_suspected(self, name: str) -> bool:
        return name in self.suspected

    def alive_peers(self) -> list[str]:
        suspected = self.suspected
        if not suspected:
            return list(self.peers)
        return [p for p in self.peers if p not in suspected]

    # -- internals ------------------------------------------------------------

    def _tick(self, generation: int) -> None:
        """One detector round on one timer: beat, then check, then re-arm."""
        obj = self.obj
        if generation != self._generation or obj.crashed:
            return
        # One beat is one fan-out: the unsuspected peers, one shared payload.
        self._send_many(obj.name, self.alive_peers(), KIND_HEARTBEAT)
        sim = obj.runtime.sim
        now = sim.now
        # ``start`` stamped every peer, so ``last_seen`` is total here.
        last_seen, suspected = self.last_seen, self.suspected
        for peer in self.peers:
            if peer not in suspected and now - last_seen[peer] > self.timeout:
                self._suspect(peer, now)
        sim.schedule(self.interval, self._tick, label=self._label, arg=generation)

    def _on_heartbeat(self, message: Message) -> None:
        """Stamp ``last_seen`` with the message's delivery stamp, not a clock
        read.  On the simulator the stamp is the delivery instant.  On the
        asyncio kernel it is the instant the send scheduled the delivery
        for; the handler runs at or after it, so the stamp can trail the
        kernel clock by the loop's dispatch lag, which only ever brings a
        suspicion forward by that lag."""
        src = message.src
        self.last_seen[src] = message.deliver_time
        if src in self.suspected:
            # Late heartbeat from a suspected peer: with crash-only faults
            # this cannot happen, but under message delays it can — we keep
            # the suspicion (decisions already made must stay stable).
            self.obj.runtime.trace.record(
                self.obj.sim_now, "detector.late_heartbeat", self.obj.name, peer=src
            )

    def _suspect(self, peer: str, now: float) -> None:
        self.suspected.add(peer)
        self.obj.runtime.trace.record(
            now, "detector.suspect", self.obj.name, peer=peer
        )
        if self.membership_group is not None:
            membership = self.obj.runtime.membership
            if self.membership_group in membership.groups():
                membership.leave(self.membership_group, peer)
        if self.on_suspect is not None:
            self.on_suspect(peer)
