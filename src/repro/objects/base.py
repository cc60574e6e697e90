"""Base class of distributed objects.

A :class:`DistributedObject` receives messages through its runtime and
dispatches them by ``kind`` to registered handlers.  Protocol engines (the
resolution algorithm, the transaction manager's client side, the failure
detector) are layered on objects by registering their own kinds, so the
application-visible object stays a plain class — the paper's requirement
that the resolution mechanism be "transparent to programmers" (Section 4.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.objects.node import Node
    from repro.objects.runtime import Runtime

KindHandler = Callable[[Message], None]


class DistributedObject:
    """A named object bound to a node, communicating by messages only."""

    #: A class's receive rule as one table, kind -> effect (a function of
    #: ``(self, message)``), bound to each object once at construction.
    RECEIVE: dict[str, Callable] = {}

    def __init__(self, name: str) -> None:
        self.name = name
        self.node: "Node | None" = None
        self.runtime: "Runtime | None" = None
        # Bound methods: a delivery calls the effect with no frame between.
        self._kind_handlers: dict[str, KindHandler] = (
            {kind: effect.__get__(self) for kind, effect in self.RECEIVE.items()}
            if self.RECEIVE else {}  # a table-less object builds nothing
        )

    # -- wiring -----------------------------------------------------------------

    def attach(self, runtime: "Runtime") -> None:
        """Called by the runtime when the object is registered."""
        self.runtime = runtime

    def _unwire(self) -> None:
        """Cut the edges this class wired from the object back into its run
        (:meth:`Runtime.release` has already cut the handler table and the
        ``runtime`` and ``node`` links).  Attribute stores only: one call
        per object is the whole per-object cost of a release."""

    def on_kind(self, kind: str, handler: KindHandler) -> None:
        """Register the handler for messages of ``kind``."""
        if kind in self._kind_handlers:
            raise ValueError(f"{self.name}: kind {kind} already handled")
        self._kind_handlers[kind] = handler

    # -- messaging ----------------------------------------------------------------

    def send(self, dst: str, kind: str, payload: object = None) -> Message:
        """Send a message to another object by name."""
        if self.runtime is None:
            raise RuntimeError(f"{self.name} is not attached to a runtime")
        return self.runtime.network.send(self.name, dst, kind, payload)

    def send_many(self, dsts, kind: str, payload: object = None) -> list[Message]:
        """Send one ``payload`` to every name in ``dsts``, in order: the one
        way to fan out (see :meth:`repro.net.network.Network.send_many`)."""
        if self.runtime is None:
            raise RuntimeError(f"{self.name} is not attached to a runtime")
        return self.runtime.network.send_many(self.name, dsts, kind, payload)

    def receive(self, message: Message) -> None:
        """Entry point called by the network; dispatches by kind."""
        handler = self._kind_handlers.get(message.kind)
        if handler is None:
            self.on_unhandled(message)
            return
        handler(message)

    def on_unhandled(self, message: Message) -> None:
        """Hook for messages with no registered kind handler.

        The default is loud failure — silent message loss hides protocol
        bugs.  Subclasses with intentional drop semantics override this.
        """
        raise RuntimeError(
            f"{self.name} received unhandled message kind {message.kind!r} "
            f"from {message.src}"
        )

    # -- convenience ------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        """True once this object's node has crashed (halt semantics for
        local activity is the object's responsibility — timers cannot be
        revoked generically, so long-running components check this flag)."""
        return self.node is not None and self.node.crashed

    @property
    def sim_now(self) -> float:
        if self.runtime is None:
            raise RuntimeError(f"{self.name} is not attached to a runtime")
        return self.runtime.sim.now

    def __repr__(self) -> str:
        where = self.node.node_id if self.node else "unplaced"
        return f"{type(self).__name__}({self.name}@{where})"
