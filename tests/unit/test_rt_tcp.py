"""TCP transport: frame codec, hub routing, and full protocol runs on sockets."""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import struct

import pytest

from repro.rt.tcp import (
    FrameError,
    TcpTransport,
    decode_frame,
    encode_frame,
    read_frame,
    tcp_transport,
)
from repro.workloads.generator import (
    expected_general_messages,
    general_case,
)

SCALE = 0.002


FIRED = "REPRO_TEST_PICKLE_FIRED"


class _Hostile:
    """Unpickling this runs code: it sets an environment variable."""

    def __reduce__(self):
        return (exec, (f"import os; os.environ[{FIRED!r}] = '1'",))


def hostile_pickle_frame(header: dict) -> bytes:
    """A frame of the removed ``P`` mode (mode byte, header length, JSON
    header, pickled body) whose body is a :class:`_Hostile`."""
    head = json.dumps(header).encode()
    body = b"P" + struct.pack("!I", len(head)) + head + pickle.dumps(_Hostile())
    return struct.pack("!I", len(body)) + body


class TestFrameCodec:
    def test_token_frame_roundtrip(self) -> None:
        frame = encode_frame({"dst": "O2", "token": 7})
        header, message = decode_frame(frame[4:])  # strip length prefix
        assert header == {"dst": "O2", "token": 7}
        assert message is None

    def test_pickle_frame_is_rejected_without_unpickling(self, monkeypatch) -> None:
        monkeypatch.delenv(FIRED, raising=False)
        frame = hostile_pickle_frame({"dst": "O2", "token": 0})
        with pytest.raises(FrameError, match="frame mode"):
            decode_frame(frame[4:])
        assert FIRED not in os.environ
        # Control: the payload is live — unpickling it does run its code.
        pickle.loads(pickle.dumps(_Hostile()))
        assert os.environ.pop(FIRED) == "1"

    def test_length_prefix_matches_body(self) -> None:
        import struct

        frame = encode_frame({"dst": "x"})
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4

    def test_unknown_mode_rejected(self) -> None:
        with pytest.raises(ValueError, match="frame mode"):
            decode_frame(b"Zjunk")


class TestMalformedFrames:
    """decode_frame/read_frame must fail with FrameError, never hang or
    leak a raw json/pickle/struct exception to transport code."""

    def test_frame_error_is_a_value_error(self) -> None:
        # Pre-existing callers catch ValueError; the refinement must not
        # slip past them.
        assert issubclass(FrameError, ValueError)

    def test_undecodable_json_header(self) -> None:
        with pytest.raises(FrameError, match="undecodable JSON"):
            decode_frame(b"J{not json")

    def test_non_object_json_header(self) -> None:
        with pytest.raises(FrameError, match="not an object"):
            decode_frame(b"J[1, 2, 3]")

    def test_non_utf8_json_header(self) -> None:
        with pytest.raises(FrameError, match="undecodable JSON"):
            decode_frame(b"J\xff\xfe")

    def _read(self, data: bytes, **kwargs):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader, **kwargs)

        return asyncio.run(go())

    def test_read_frame_zero_length_rejected(self) -> None:
        with pytest.raises(FrameError, match="zero-length"):
            self._read(struct.pack("!I", 0))

    def test_read_frame_oversized_length_rejected(self) -> None:
        # An HTTP GET's first four bytes decode to ~1.2 GB: the reader
        # must refuse before trying to buffer it.
        with pytest.raises(FrameError, match="exceeds limit"):
            self._read(b"GET / HTTP/1.1\r\n")

    def test_read_frame_custom_limit(self) -> None:
        frame = encode_frame({"dst": "x", "blob": "y" * 100})
        with pytest.raises(FrameError, match="exceeds limit"):
            self._read(frame, max_frame=16)

    def test_read_frame_mid_frame_eof_is_incomplete_read(self) -> None:
        # Disconnect between prefix and body: the *caller* decides what a
        # vanished peer means, so the asyncio error must pass through.
        frame = encode_frame({"dst": "x"})
        with pytest.raises(asyncio.IncompleteReadError):
            self._read(frame[:6])

    def test_read_frame_good_frame_round_trips(self) -> None:
        header, message = self._read(encode_frame({"dst": "x", "token": 3}))
        assert header == {"dst": "x", "token": 3}
        assert message is None


class TestTcpRuns:
    def test_base_variant_over_sockets_exact_counts(self) -> None:
        """Every delivery crosses a real localhost socket and the
        Section 4.4 count still lands exactly."""
        with tcp_transport(time_scale=SCALE) as bridges:
            result = general_case(4, 2, 1, seed=0).run(
                until=100.0, max_events=100_000
            )
        assert all(r.finished for r in result.runners.values())
        assert (
            result.resolution_message_total()
            == expected_general_messages(4, 2, 1)
        )
        (bridge,) = bridges
        assert bridge.frames_sent == bridge.frames_delivered > 0
        # The wire carried at least every resolution message.
        assert bridge.frames_delivered >= result.resolution_message_total()

    def test_requires_asyncio_kernel(self) -> None:
        from repro.objects.runtime import Runtime

        with pytest.raises(TypeError, match="AsyncioKernel"):
            TcpTransport(Runtime())

    def test_unknown_mode_rejected(self) -> None:
        from repro.objects.runtime import Runtime
        from repro.rt import asyncio_backend

        with asyncio_backend(time_scale=SCALE):
            runtime = Runtime()
        # There is one frame format and no knob to pick another.
        with pytest.raises(TypeError, match="mode"):
            TcpTransport(runtime, mode="msgpack")


class TestDynamicExceptionPickling:
    def test_declared_exceptions_pickle(self) -> None:
        import pickle

        from repro.exceptions.declarations import declare_exception

        cls = declare_exception("PickleProbeExc")
        clone = pickle.loads(pickle.dumps(cls("boom")))
        assert type(clone).__name__ == "PickleProbeExc"

    def test_generated_names_cannot_shadow_static_symbols(self) -> None:
        from repro.exceptions import declarations
        from repro.exceptions.declarations import declare_exception

        original = declarations.ActionFailureException
        hostile = declare_exception("ActionFailureException")
        assert declarations.ActionFailureException is original
        assert hostile is not original


class TestHubTracePropagation:
    """Distributed-trace header fields through a TcpHub, plus the
    protocol-error observer hook the flight recorder hangs off."""

    @staticmethod
    def _run_hub_scenario(scenario):
        from repro.rt.kernel import AsyncioKernel
        from repro.rt.tcp import TcpHub

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
            except BaseException as exc:
                kernel.fail(exc)
            finally:
                kernel.release()

        kernel.add_service(driver)
        try:
            kernel.run(until=30.0)
        finally:
            kernel.close()
        return hub

    def test_trace_fields_survive_forwarding(self) -> None:
        """The hub forwards frames verbatim, so trace_id/parent_span reach
        the destination untouched — propagation through hops is free."""
        from repro.obs.spans import TraceContext

        received: list[dict] = []

        async def scenario(hub) -> None:
            reader_b, writer_b = await asyncio.open_connection(
                hub.host, hub.port
            )
            writer_b.write(encode_frame({"register": ["b"]}))
            await writer_b.drain()
            deadline = asyncio.get_running_loop().time() + 5.0
            while "b" not in hub._routes:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)

            _, writer_a = await asyncio.open_connection(hub.host, hub.port)
            writer_a.write(encode_frame({"register": ["a"]}))
            header = {"dst": "b", "token": 9}
            header.update(
                TraceContext(trace_id="feedface01", parent_span=31).to_fields()
            )
            writer_a.write(encode_frame(header))
            await writer_a.drain()
            forwarded, _ = await asyncio.wait_for(
                read_frame(reader_b), timeout=10
            )
            received.append(forwarded)
            for writer in (writer_a, writer_b):
                writer.close()

        self._run_hub_scenario(scenario)
        (forwarded,) = received
        context = TraceContext.from_header(forwarded)
        assert context == TraceContext(trace_id="feedface01", parent_span=31)
        assert forwarded["token"] == 9

    def test_pickle_frame_drops_its_sender_only(self, monkeypatch) -> None:
        """A frame of the removed pickle mode is a protocol error for the
        connection that sent it — never unpickled — while the hub keeps
        routing everyone else's frames."""
        monkeypatch.delenv(FIRED, raising=False)
        received: list[dict] = []

        async def scenario(hub) -> None:
            reader_b, writer_b = await asyncio.open_connection(
                hub.host, hub.port
            )
            writer_b.write(encode_frame({"register": ["b"]}))
            await writer_b.drain()
            deadline = asyncio.get_running_loop().time() + 5.0
            while "b" not in hub._routes:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)

            reader_x, writer_x = await asyncio.open_connection(
                hub.host, hub.port
            )
            writer_x.write(encode_frame({"register": ["x"]}))
            writer_x.write(hostile_pickle_frame({"dst": "b", "token": 1}))
            await writer_x.drain()
            # The hub hangs up on the offender...
            assert await asyncio.wait_for(reader_x.read(), timeout=10) == b""

            # ...and still forwards a well-formed frame to b.
            _, writer_a = await asyncio.open_connection(hub.host, hub.port)
            writer_a.write(encode_frame({"register": ["a"]}))
            writer_a.write(encode_frame({"dst": "b", "token": 2}))
            await writer_a.drain()
            forwarded, _ = await asyncio.wait_for(
                read_frame(reader_b), timeout=10
            )
            received.append(forwarded)
            for writer in (writer_a, writer_b, writer_x):
                writer.close()

        hub = self._run_hub_scenario(scenario)
        assert received == [{"dst": "b", "token": 2}]
        assert hub.protocol_errors == 1
        assert hub.frames_routed == 1
        assert FIRED not in os.environ

    def test_on_protocol_error_hook_fires(self) -> None:
        """A malformed frame invokes the observer with the error detail —
        and a hook that itself raises must not take the hub down."""
        seen: list[str] = []

        async def scenario(hub) -> None:
            def hook(detail: str) -> None:
                seen.append(detail)
                raise RuntimeError("observer bug")  # must be swallowed

            hub.on_protocol_error = hook
            _, writer = await asyncio.open_connection(hub.host, hub.port)
            writer.write(struct.pack("!I", 4) + b"Zzzz")
            await writer.drain()
            deadline = asyncio.get_running_loop().time() + 5.0
            while hub.protocol_errors == 0:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            writer.close()

        hub = self._run_hub_scenario(scenario)
        assert hub.protocol_errors == 1
        assert len(seen) == 1
        assert "FrameError" in seen[0]
