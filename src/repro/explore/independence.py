"""Event metadata: channels, touched objects, and the independence relation.

The partial-order reduction and the channel-FIFO constraint both need to
know, for each scheduled event, *which* protocol objects it can read or
write.  Events carry no such declaration — but every scheduling site in
this repo labels its events, and the labels follow a small grammar:

* ``deliver:<kind>:<src>-><dst>`` / ``redeliver:<kind>:<src>-><dst>`` —
  a message delivery: runs receiver code on ``dst`` (which may *send*,
  but sending only mutates ``dst``'s outgoing channel cursors and seeds
  future events — future orderings are their own choice points).
* ``hb:<name>`` / ``behaviour:<name>`` /
  ``ct-abort:<name>`` / ``start:<name>`` / ``crash:<name>`` /
  ``*-raise:<name>`` ... — local work of one named object.
* ``rto:<src>-><dst>:<seq>`` — an ARQ retransmission timer: reads the
  sender's pending table and may re-send on the ``src``→``dst`` channel.
* anything unrecognised — conservatively touches *everything* (dependent
  with every other event), so an unlabeled scheduling site degrades
  exploration efficiency, never soundness.

Two events are **independent** when their touched sets are known and
disjoint: executing them in either order yields the same oracle-visible
state.  Heartbeat deliveries get a stronger rule: their handler only
refreshes ``last_seen[src]`` (see :class:`repro.net.detector.Heartbeater`),
which no same-instant event reads — the detector's tick checks at local
priority, *after* every same-time delivery — so a ``HEARTBEAT`` delivery
commutes with every event except later deliveries on its own channel
(FIFO).  This is what keeps the heartbeat chatter of the crash-tolerant
variant from exploding the DFS.

Soundness note (why label-derived independence is enough): the simkernel
is deterministic given the choice vector, and the oracles read only
protocol state (handler logs, traces by category, message counters) —
never event sequence numbers.  Swapping two adjacent independent events
therefore reproduces the same oracle-visible execution, which is exactly
the Mazurkiewicz-trace equivalence the sleep sets and the
canonical-history hash assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.net.detector import KIND_HEARTBEAT

#: Label prefixes naming local work of a single object: ``<prefix>:<name>``.
#: ``hb`` is the failure detector's tick: it beats and then checks, and a
#: check may suspect a peer and run the engine's progress rule, so it
#: touches the object's protocol state like any other local work.
_LOCAL_PREFIXES = (
    "hb", "behaviour", "start", "crash", "handler", "abort",
    "ct-abort", "mc-abort", "ct-raise", "mc-raise", "cd-raise", "cr-raise",
)


@dataclass(frozen=True)
class EventMeta:
    """What one event can touch, derived from its label."""

    label: str
    #: ``(src, dst)`` for message deliveries (FIFO constraint), else None.
    channel: Optional[tuple[str, str]] = None
    #: Objects whose protocol state the event may read/write; ``None``
    #: means unknown (dependent with everything).
    touched: Optional[frozenset] = None
    #: Heartbeat deliveries commute with everything but their own channel.
    commuting: bool = False


def _parse_endpoint_pair(text: str) -> Optional[tuple[str, str]]:
    if "->" not in text:
        return None
    src, _, dst = text.partition("->")
    if not src or not dst:
        return None
    return (src, dst)


@lru_cache(maxsize=4096)
def event_meta(label: str) -> EventMeta:
    """Parse an event label into its :class:`EventMeta` (memoised)."""
    parts = label.split(":")
    head = parts[0]
    if head in ("deliver", "redeliver") and len(parts) == 3:
        pair = _parse_endpoint_pair(parts[2])
        if pair is not None:
            return EventMeta(
                label, channel=pair, touched=frozenset((pair[1],)),
                commuting=parts[1] == KIND_HEARTBEAT,
            )
        return EventMeta(label)
    if head == "rto" and len(parts) == 3:
        pair = _parse_endpoint_pair(parts[1])
        if pair is not None:
            # Reads/writes the sender's ARQ state; a retransmission it
            # emits lands on the src->dst channel later.
            return EventMeta(label, channel=pair, touched=frozenset(pair))
        return EventMeta(label)
    if head == "mcast-retry" and len(parts) == 3:
        pair = _parse_endpoint_pair(parts[2])
        if pair is not None:
            return EventMeta(label, touched=frozenset(pair))
        return EventMeta(label)
    if head in _LOCAL_PREFIXES and len(parts) >= 2 and parts[-1]:
        return EventMeta(label, touched=frozenset((parts[-1],)))
    if head == "crash-coord":
        return EventMeta(label, touched=frozenset(("coord",)))
    return EventMeta(label)


def independent(a: EventMeta, b: EventMeta) -> bool:
    """May ``a`` and ``b`` be swapped without changing oracle-visible state?

    Same-channel deliveries are always dependent (FIFO order is part of
    the protocol's assumptions, not a schedule choice).
    """
    if a.channel is not None and a.channel == b.channel:
        return False
    if a.commuting or b.commuting:
        return True
    if a.touched is None or b.touched is None:
        return False
    return not (a.touched & b.touched)


def eligible_indices(metas: list[EventMeta]) -> list[int]:
    """Candidate indices the scheduler may legally run first.

    ``metas`` is the FIFO-sorted choice group.  A delivery is eligible
    only if no earlier (smaller-seq) delivery shares its channel —
    per-pair FIFO is an environment assumption of the algorithm (Section
    4.2 "FIFO message sending/receiving"), so violating it would explore
    schedules the modelled system cannot produce.  All non-delivery
    events are eligible.
    """
    seen_channels: set[tuple[str, str]] = set()
    eligible = []
    for index, meta in enumerate(metas):
        if meta.channel is None or meta.label.startswith("rto:"):
            eligible.append(index)
            continue
        if meta.channel not in seen_channels:
            eligible.append(index)
            seen_channels.add(meta.channel)
    return eligible
