"""Regression: peers that vanish mid-frame must not leak tasks or wedge servers.

Before the fix, ``TcpHub._handle`` ended on an unhandled
``IncompleteReadError`` with its writer still open and its task
unregistered anywhere, so a hub stopped with sessions open logged
``Task was destroyed but it is pending`` at loop teardown — and a client
that died between a frame's length prefix and its body tore its handler
down without ever removing the stale route or closing the server-side
writer.  The resolution service inherits the fixed pattern for its
sessions, so it is exercised here too.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro.rt.kernel import AsyncioKernel
from repro.rt.tcp import TcpHub, encode_frame, read_frame
from repro.service import ActionRequest, ResolutionServer


def _run_hub_scenario(scenario) -> TcpHub:
    """One kernel run: a hub service plus a driver coroutine."""
    kernel = AsyncioKernel(time_scale=1.0)
    hub = TcpHub()
    kernel.add_service(hub.serve)

    async def driver() -> None:
        kernel.hold()
        try:
            await hub.ready.wait()
            await scenario(hub)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # surface assertion failures via run()
            kernel.fail(exc)
        finally:
            kernel.release()

    kernel.add_service(driver)
    try:
        kernel.run(until=30.0)
    finally:
        kernel.close()
    return hub


class TestHubDisconnects:
    def test_mid_frame_disconnect_keeps_hub_routing(self) -> None:
        """A client dying between length prefix and body is just a closed
        session: its route is torn down and other traffic keeps flowing."""

        async def scenario(hub: TcpHub) -> None:
            # The rude client: registers, then dies mid-frame.
            _, rude_writer = await asyncio.open_connection(hub.host, hub.port)
            rude_writer.write(encode_frame({"register": ["rude"]}))
            rude_writer.write(struct.pack("!I", 512) + b"J{half a fra")
            await rude_writer.drain()
            rude_writer.close()
            await rude_writer.wait_closed()

            # Two polite clients still route through the same hub.
            reader_a, writer_a = await asyncio.open_connection(
                hub.host, hub.port
            )
            reader_b, writer_b = await asyncio.open_connection(
                hub.host, hub.port
            )
            writer_a.write(encode_frame({"register": ["a"]}))
            writer_b.write(encode_frame({"register": ["b"]}))
            await writer_a.drain()
            await writer_b.drain()
            # Registrations land asynchronously; the dst frame must not
            # race b's handler or the hub (correctly) drops it.
            deadline = asyncio.get_running_loop().time() + 5.0
            while "b" not in hub._routes:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)
            writer_a.write(encode_frame({"dst": "b", "token": 1}))
            await writer_a.drain()
            header, _ = await asyncio.wait_for(read_frame(reader_b), timeout=10)
            assert header["token"] == 1

            # The rude session's route must be gone by now (its handler's
            # cleanup raced the polite traffic above, so poll briefly).
            deadline = asyncio.get_running_loop().time() + 5.0
            while "rude" in hub._routes:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            for writer in (writer_a, writer_b):
                writer.close()
                await writer.wait_closed()

        hub = _run_hub_scenario(scenario)
        assert hub.frames_routed == 1
        assert hub._conn_tasks == set(), "handler tasks leaked"
        assert hub._routes == {}

    def test_hub_stop_with_open_sessions_leaves_no_tasks(self) -> None:
        """Stopping the hub with live sessions cancels every handler task
        and closes every writer — nothing for loop teardown to complain
        about."""

        # Plain blocking sockets, not streams: they belong to no event loop,
        # so they stay open while the hub's loop stops and closes, and are
        # closed here afterwards.
        clients: list[socket.socket] = []

        async def scenario(hub: TcpHub) -> None:
            # Three sessions left open on purpose; the driver returns while
            # they are still connected, so hub.serve's finally must reap
            # their handler tasks.
            for index in range(3):
                client = socket.create_connection((hub.host, hub.port))
                clients.append(client)
                client.sendall(encode_frame({"register": [f"open-{index}"]}))
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(hub._conn_tasks) < 3:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)

        try:
            hub = _run_hub_scenario(scenario)
        finally:
            for client in clients:
                client.close()
        assert hub._conn_tasks == set(), "handler tasks leaked past stop"
        assert hub._routes == {}

    def test_malformed_frame_drops_connection_not_hub(self) -> None:
        async def scenario(hub: TcpHub) -> None:
            _, bad_writer = await asyncio.open_connection(hub.host, hub.port)
            bad_writer.write(encode_frame({"register": ["bad"]}))
            # Length prefix fine, body is not a frame at all.
            bad_writer.write(struct.pack("!I", 4) + b"Zzzz")
            await bad_writer.drain()
            deadline = asyncio.get_running_loop().time() + 5.0
            while hub.protocol_errors == 0:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            bad_writer.close()
            await bad_writer.wait_closed()

            # The hub still accepts and routes for everyone else.
            reader, writer = await asyncio.open_connection(hub.host, hub.port)
            writer.write(encode_frame({"register": ["ok"]}))
            writer.write(encode_frame({"dst": "ok", "token": 5}))
            await writer.drain()
            header, _ = await asyncio.wait_for(read_frame(reader), timeout=10)
            assert header["token"] == 5
            writer.close()
            await writer.wait_closed()

        hub = _run_hub_scenario(scenario)
        assert hub.protocol_errors == 1
        assert hub._conn_tasks == set()


class TestServiceDisconnects:
    def test_client_disconnect_during_action(self) -> None:
        """A client that submits work and vanishes before the outcomes come
        back must not take the server (or anyone else's session) with it."""
        server = ResolutionServer(port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"max_seconds": 120.0},
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 15.0
        while server.port == 0:
            assert thread.is_alive(), "server died before binding"
            assert time.monotonic() < deadline
            time.sleep(0.005)

        async def rude_then_polite() -> dict:
            # Rude: submit five actions, hang up without reading a byte.
            _, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for index in range(5):
                writer.write(encode_frame(
                    ActionRequest(
                        id=index, variant="base", n=3, p=1, q=0, seed=index
                    ).to_header()
                ))
            await writer.drain()
            writer.close()
            await writer.wait_closed()

            # Polite: the server must still answer a fresh session.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(encode_frame(
                    ActionRequest(id=99, variant="base", n=3, p=1).to_header()
                ))
                await writer.drain()
                header, _ = await asyncio.wait_for(read_frame(reader), timeout=30)
                return header
            finally:
                writer.close()
                await writer.wait_closed()

        try:
            reply = asyncio.run(rude_then_polite())
            assert reply["type"] == "outcome"
            assert reply["id"] == 99

            # Every accepted action drains (completed, outcomes dropped on
            # the closed writer) without killing a worker.  Not necessarily
            # all five rude ones: a reply written after the rude client hung
            # up draws an RST, and the frames still unread in the server's
            # receive buffer are discarded with the connection.  Both
            # sessions closed means nothing more can be submitted.
            counter = server.metrics.counter
            deadline = time.monotonic() + 30.0
            while not (
                counter("service.sessions_closed").value == 2
                and counter("service.completed").value
                == counter("service.accepted").value
            ):
                assert thread.is_alive(), "server thread died"
                assert time.monotonic() < deadline, "abandoned work never drained"
                time.sleep(0.02)
            # At least one rude request was read, besides the polite one.
            assert counter("service.submitted").value >= 2
            assert server.metrics.counter("service.engine_errors").value == 0
        finally:
            server.request_stop()
            thread.join(timeout=15.0)
            server.close()
        assert not thread.is_alive()
        # Every opened session was also closed (no leaked session tasks).
        opened = server.metrics.counter("service.sessions_opened").value
        closed = server.metrics.counter("service.sessions_closed").value
        assert opened == closed == 2
        assert server._sessions == set()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
