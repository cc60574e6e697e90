"""Localhost TCP transport: protocol messages over real sockets.

The asyncio kernel already gives the protocols real *timers*; this module
additionally gives them a real *wire*.  A :class:`TcpHub` (an asyncio TCP
server) routes length-prefixed frames between registered endpoint
connections, and a :class:`TcpTransport` bridge attaches to a runtime's
network so that every delivery — after the failure injector and latency
model have had their say — crosses a real localhost socket through the
hub and back before reaching the destination object.  Delivery order and
timing then include genuine kernel socket scheduling.

One frame format: a length prefix, the mode byte ``J`` and a JSON header.
The bridge's frames carry only a routing header and an opaque token; the
message object itself stays in the sending process and is delivered by
identity when its token returns.  No serialisation, so arbitrary payloads
(exception trees, object references) survive untouched — and nothing read
from a socket is ever unpickled: the hub and the resolution service both
decode bytes from peers they do not control.

Usage (single process, every message over TCP)::

    with tcp_transport():                    # asyncio kernel + socket wire
        result = general_case(4, 2, 1).run(until=100.0)

A standalone hub for multi-process experiments::

    python -m repro rt hub --port 9321
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import struct
from typing import Callable, Iterator, Optional

from repro.net.message import Message
from repro.objects.runtime import Runtime, runtime_hook
from repro.rt.backend import asyncio_backend
from repro.rt.kernel import DEFAULT_TIME_SCALE, AsyncioKernel

_LEN = struct.Struct("!I")

#: Frame bodies start with one mode byte; JSON is the only mode.
_MODE_JSON = b"J"

#: Ceiling on one frame body.  A misbehaving (or merely confused — e.g.
#: HTTP) client whose first four bytes decode to a huge length must not
#: make ``readexactly`` buffer gigabytes: anything above this is a
#: protocol error, handled without touching the hub's accept loop.
MAX_FRAME = 1 << 20


class FrameError(ValueError):
    """A malformed wire frame (unknown mode, bad header, oversized length).

    Subclasses :class:`ValueError` so pre-existing callers that caught
    ``ValueError`` from :func:`decode_frame` keep working.
    """


# -- frame codec -----------------------------------------------------------------


def encode_frame(header: dict) -> bytes:
    """One wire frame: length prefix + mode byte + JSON header."""
    body = _MODE_JSON + json.dumps(header, separators=(",", ":")).encode()
    return _LEN.pack(len(body)) + body


def decode_frame(body: bytes) -> tuple[dict, None]:
    """Inverse of :func:`encode_frame` (body excludes the length prefix).

    Raises :class:`FrameError` on anything malformed — empty body, unknown
    mode byte, undecodable JSON — so transports can treat "bad frame" as
    one clean error class.  The second element is always ``None``: no frame
    carries a body beside its header, but callers — ``benchmarks/perf``
    among them, which may not be edited — unpack two values.
    """
    mode, rest = body[:1], body[1:]
    if mode != _MODE_JSON:
        raise FrameError(f"unknown frame mode {mode!r}")
    try:
        header = json.loads(rest.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable JSON frame header: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError(f"frame header is not an object: {header!r}")
    return header, None


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME
) -> tuple[dict, None]:
    """Read one length-prefixed frame.

    Raises :class:`FrameError` on an oversized or empty length prefix and
    lets :class:`asyncio.IncompleteReadError` propagate on disconnect
    (including mid-frame) — callers treat the former as a misbehaving
    peer and the latter as a closed one.
    """
    prefix = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(prefix)
    if length == 0:
        raise FrameError("zero-length frame")
    if length > max_frame:
        raise FrameError(f"frame of {length} bytes exceeds limit {max_frame}")
    return decode_frame(await reader.readexactly(length))


# -- hub ------------------------------------------------------------------------


class TcpHub:
    """Routes frames between endpoint connections.

    A connection's first frame must be a registration header
    ``{"register": [name, ...]}``; the name ``"*"`` claims every
    otherwise-unregistered destination (the single-process bridge uses
    this).  Every later frame is forwarded verbatim to the connection
    registered for its ``dst``.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0,
        max_frame: int = MAX_FRAME,
    ) -> None:
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.ready = asyncio.Event()
        self.frames_routed = 0
        self.frames_dropped = 0
        self.protocol_errors = 0
        #: Observer invoked (with a reason string) on every protocol error,
        #: outside the hub's own error handling — the service layer's
        #: flight recorder hooks this to dump recent request traces when a
        #: peer misbehaves.  Exceptions it raises are swallowed: a broken
        #: observer must not take the hub down.
        self.on_protocol_error: Optional[Callable[[str], None]] = None
        self._routes: dict[str, asyncio.StreamWriter] = {}
        self._server: asyncio.AbstractServer | None = None
        #: Live per-connection handler tasks.  ``start_server`` spawns one
        #: task per connection and forgets it; without tracking them here a
        #: hub stopped with sessions open orphans those tasks and the loop
        #: teardown logs ``Task was destroyed but it is pending``.
        self._conn_tasks: set[asyncio.Task] = set()

    async def serve(self) -> None:
        """Run the hub until cancelled (an :class:`AsyncioKernel` service)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.ready.set()
        try:
            async with self._server:
                await self._server.serve_forever()
        except asyncio.CancelledError:
            raise
        finally:
            # Tear down open sessions deterministically: cancel their
            # reader tasks, let the cancellations unwind (each handler's
            # ``finally`` closes its writer), then close any writer that
            # never got a handler far enough to register.
            tasks = [t for t in self._conn_tasks if not t.done()]
            for task in tasks:
                task.cancel()
            if tasks:
                with contextlib.suppress(Exception):
                    await asyncio.gather(*tasks, return_exceptions=True)
            self._conn_tasks.clear()
            for writer in set(self._routes.values()):
                writer.close()
            self._routes.clear()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        names: list[str] = []
        try:
            header, _ = await read_frame(reader, self.max_frame)
            names = list(header.get("register", ()))
            for name in names:
                self._routes[name] = writer
            while True:
                prefix = await reader.readexactly(_LEN.size)
                (length,) = _LEN.unpack(prefix)
                if not 0 < length <= self.max_frame:
                    raise FrameError(
                        f"frame of {length} bytes outside (0, {self.max_frame}]"
                    )
                body = await reader.readexactly(length)
                head, _ = decode_frame(body)
                out = self._routes.get(head["dst"]) or self._routes.get("*")
                if out is None or out.is_closing():
                    self.frames_dropped += 1
                    continue  # destination process not up: frame is lost
                try:
                    out.write(_LEN.pack(len(body)) + body)
                    await out.drain()
                except (ConnectionResetError, BrokenPipeError):
                    # The *destination* died mid-forward: the frame is lost
                    # (same contract as an unregistered destination), but
                    # this connection keeps serving.
                    self.frames_dropped += 1
                    continue
                self.frames_routed += 1
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # peer closed (possibly mid-frame)
        except asyncio.CancelledError:
            # Hub stopping.  Exit normally rather than re-raise: asyncio's
            # streams machinery calls ``task.exception()`` on the handler
            # task from a plain callback, which logs a spurious
            # ``CancelledError`` for every cancelled connection otherwise.
            pass
        except (FrameError, KeyError) as exc:
            # Malformed frame or missing "dst": drop this connection only —
            # an unhandled exception here would be logged as a destroyed
            # task and, worse, leave the writer open.
            self.protocol_errors += 1
            observer = self.on_protocol_error
            if observer is not None:
                with contextlib.suppress(Exception):
                    observer(f"{type(exc).__name__}: {exc}")
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            for name in names:
                if self._routes.get(name) is writer:
                    del self._routes[name]
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


# -- single-process bridge -------------------------------------------------------


class TcpTransport:
    """Divert one runtime's deliveries through a real localhost socket.

    Attaches to ``runtime.network.deliver_via``: at each message's
    ``deliver_at`` the bridge writes a token frame to the hub; when the
    frame comes back on the client connection the message object is
    delivered to its destination.  The kernel's ``hold``/``release``
    bracket the socket round-trip so quiescence detection waits for
    frames in flight.
    """

    def __init__(self, runtime: Runtime, hub: TcpHub | None = None) -> None:
        kernel = runtime.sim
        if not isinstance(kernel, AsyncioKernel):
            raise TypeError(
                "TcpTransport requires an AsyncioKernel runtime "
                f"(got {type(kernel).__name__}); use tcp_transport()"
            )
        self.kernel = kernel
        self.network = runtime.network
        self.hub = hub if hub is not None else TcpHub()
        self.own_hub = hub is None
        self.frames_sent = 0
        self.frames_delivered = 0
        self._tokens = itertools.count()
        self._outstanding: dict[int, Message] = {}
        self._writer: asyncio.StreamWriter | None = None
        self._backlog: list[bytes] = []
        self.network.deliver_via = self._on_deliver_at
        if self.own_hub:
            kernel.add_service(self.hub.serve)
        kernel.add_service(self._client)

    # -- send side ---------------------------------------------------------------

    def _on_deliver_at(self, message: Message, deliver_at: float) -> None:
        """``Network.deliver_via`` hook: put the wire leg at ``deliver_at``."""
        self.kernel.hold()  # in flight until the frame returns
        self.kernel.schedule_at(
            deliver_at,
            lambda: self._transmit(message),
            label=f"tcp:{message.kind}:{message.src}->{message.dst}",
        )

    def _transmit(self, message: Message) -> None:
        token = next(self._tokens)
        self._outstanding[token] = message
        frame = encode_frame({"dst": message.dst, "token": token})
        self.frames_sent += 1
        if self._writer is not None:
            self._writer.write(frame)
        else:
            self._backlog.append(frame)

    # -- receive side -------------------------------------------------------------

    async def _client(self) -> None:
        try:
            await self.hub.ready.wait()
            reader, writer = await asyncio.open_connection(
                self.hub.host, self.hub.port
            )
            writer.write(encode_frame({"register": ["*"]}))
            self._writer = writer
            for frame in self._backlog:
                writer.write(frame)
            self._backlog.clear()
            while True:
                header, _ = await read_frame(reader)
                message = self._outstanding.pop(header["token"])
                self.frames_delivered += 1
                try:
                    self.network._deliver(message)
                finally:
                    self.kernel.release()
        except asyncio.CancelledError:
            raise
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # hub shut down first (possibly mid-frame)
        except Exception as exc:  # noqa: BLE001 — surface through run()
            self.kernel.fail(exc)
        finally:
            if self._writer is not None:
                writer, self._writer = self._writer, None
                writer.close()
                # Wait for the transport to actually release the socket so
                # repeated runs (the conformance matrix does hundreds) never
                # accumulate half-closed connections or pending callbacks.
                with contextlib.suppress(Exception):
                    await writer.wait_closed()


@contextlib.contextmanager
def tcp_transport(
    time_scale: float = DEFAULT_TIME_SCALE,
) -> Iterator[list[TcpTransport]]:
    """Asyncio kernel + TCP wire for every runtime built in scope.

    Yields the list of bridges attached so far (one per runtime), so
    callers can read ``frames_sent`` / ``frames_delivered`` afterwards.
    """
    bridges: list[TcpTransport] = []

    def attach(runtime: Runtime) -> None:
        bridges.append(TcpTransport(runtime))

    with asyncio_backend(time_scale=time_scale), runtime_hook(attach):
        yield bridges
