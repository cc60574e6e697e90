"""Resolution service: protocol validation, admission control, live sessions."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.rt.tcp import encode_frame, read_frame
from repro.service import (
    ActionRequest,
    ResolutionServer,
    ServiceProtocolError,
    TokenBucket,
    execute_request,
)
from repro.service.server import BACKOFF, GROWTH

REPLY_TIMEOUT = 30.0


# -- live-server harness ----------------------------------------------------------


class _ServerHarness:
    """A ResolutionServer on a free port, running in a daemon thread."""

    def __init__(self, **kwargs) -> None:
        self.server = ResolutionServer(port=0, **kwargs)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"max_seconds": 120.0},
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 15.0
        while self.server.port == 0:
            if not self.thread.is_alive():
                raise RuntimeError("server thread died before binding")
            if time.monotonic() > deadline:
                raise RuntimeError("server never bound its port")
            time.sleep(0.005)

    def stop(self) -> None:
        self.server.request_stop()
        self.thread.join(timeout=15.0)
        self.server.close()
        assert not self.thread.is_alive(), "server thread failed to stop"


@pytest.fixture()
def start_server():
    harnesses: list[_ServerHarness] = []

    def _start(**kwargs) -> ResolutionServer:
        harness = _ServerHarness(**kwargs)
        harnesses.append(harness)
        return harness.server

    yield _start
    for harness in harnesses:
        harness.stop()


def _exchange(port: int, headers: list[dict], replies: int) -> list[dict]:
    """One session: send ``headers``, read ``replies`` frames, disconnect."""

    async def go() -> list[dict]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for header in headers:
                writer.write(encode_frame(header))
            await writer.drain()
            out = []
            for _ in range(replies):
                header, _body = await asyncio.wait_for(
                    read_frame(reader), timeout=REPLY_TIMEOUT
                )
                out.append(header)
            return out
        finally:
            writer.close()

    return asyncio.run(go())


# -- protocol validation ----------------------------------------------------------


class TestActionRequestValidation:
    def test_header_roundtrip(self) -> None:
        request = ActionRequest(id=7, variant="mc", n=5, p=2, q=1, seed=42)
        assert ActionRequest.from_header(request.to_header()) == request

    def test_missing_id_rejected(self) -> None:
        with pytest.raises(ServiceProtocolError, match="integer 'id'"):
            ActionRequest.from_header({"type": "submit"})

    def test_unknown_variant_rejected(self) -> None:
        with pytest.raises(ServiceProtocolError, match="unknown variant"):
            ActionRequest.from_header({"id": 1, "variant": "quantum"})

    @pytest.mark.parametrize("n", [0, -1, 129, 10_000])
    def test_participant_count_bounded(self, n: int) -> None:
        with pytest.raises(ServiceProtocolError, match="outside"):
            ActionRequest.from_header({"id": 1, "n": n, "p": 1})

    def test_raisers_bounded_by_n(self) -> None:
        with pytest.raises(ServiceProtocolError, match="p=4"):
            ActionRequest.from_header({"id": 1, "n": 3, "p": 4})

    def test_nested_bounded_by_remaining(self) -> None:
        with pytest.raises(ServiceProtocolError, match="q=3"):
            ActionRequest.from_header({"id": 1, "n": 4, "p": 2, "q": 3})

    def test_non_integer_shape_rejected(self) -> None:
        with pytest.raises(ServiceProtocolError, match="non-integer"):
            ActionRequest.from_header({"id": 1, "n": "lots"})


class TestExecuteRequest:
    @pytest.mark.parametrize("variant", ["base", "ct", "mc", "cd"])
    def test_small_action_commits(self, variant: str) -> None:
        request = ActionRequest(id=1, variant=variant, n=3, p=1, q=0, seed=0)
        outcome = execute_request(request)
        assert outcome.id == 1
        assert outcome.variant == variant
        assert outcome.status == "committed"
        assert outcome.exception is not None
        assert outcome.handlers >= 1
        assert outcome.messages > 0
        assert outcome.sim_duration > 0

    def test_deterministic_given_seed(self) -> None:
        request = ActionRequest(id=2, variant="base", n=4, p=2, q=1, seed=9)
        assert execute_request(request) == execute_request(request)

    def test_nested_base_action(self) -> None:
        outcome = execute_request(
            ActionRequest(id=3, variant="base", n=4, p=1, q=2, seed=0)
        )
        assert outcome.status in ("committed", "aborted")
        assert outcome.messages > 0


# -- admission control ------------------------------------------------------------


class TestTokenBucket:
    def test_initial_burst_then_refusal(self) -> None:
        # A new bucket starts at its ceiling, full: max_rate tokens.
        bucket = TokenBucket(max_rate=80.0, min_rate=50.0)
        assert bucket.rate == 80.0
        taken = sum(bucket.try_take(0.0) for _ in range(100))
        assert taken == 80
        assert not bucket.try_take(0.0)

    def test_refills_at_rate(self) -> None:
        bucket = TokenBucket(max_rate=100.0, min_rate=50.0)
        while bucket.try_take(0.0):
            pass
        # Half a second later: ~50 tokens back.
        taken = sum(bucket.try_take(0.5) for _ in range(100))
        assert 45 <= taken <= 55

    def test_adjust_grows_when_queue_shallow(self) -> None:
        bucket = TokenBucket(max_rate=1000.0)
        bucket.adjust(queue_occupancy=0.9)
        bucket.adjust(queue_occupancy=0.9)
        assert bucket.rate == pytest.approx(490.0)
        bucket.adjust(queue_occupancy=0.0)
        assert bucket.rate == pytest.approx(735.0)

    def test_adjust_cuts_when_queue_crowded(self) -> None:
        bucket = TokenBucket(max_rate=100.0)
        bucket.adjust(queue_occupancy=0.9)
        assert bucket.rate == pytest.approx(70.0)

    def test_adjust_holds_in_dead_band(self) -> None:
        bucket = TokenBucket(max_rate=100.0)
        bucket.adjust(queue_occupancy=0.9)
        bucket.adjust(queue_occupancy=0.5)
        assert bucket.rate == pytest.approx(70.0)

    def test_rate_clamped_to_bounds(self) -> None:
        bucket = TokenBucket(max_rate=100.0, min_rate=50.0)
        for _ in range(20):
            bucket.adjust(queue_occupancy=1.0)
        assert bucket.rate == pytest.approx(50.0)
        for _ in range(20):
            bucket.adjust(queue_occupancy=0.0)
        assert bucket.rate == pytest.approx(100.0)

    def test_adjust_factors_are_the_module_constants(self) -> None:
        bucket = TokenBucket(max_rate=1000.0, min_rate=1.0)
        bucket.adjust(queue_occupancy=1.0)
        bucket.adjust(queue_occupancy=1.0)
        assert bucket.rate == pytest.approx(1000.0 * BACKOFF**2)
        bucket.adjust(queue_occupancy=0.0)
        assert bucket.rate == pytest.approx(1000.0 * BACKOFF**2 * GROWTH)

    def test_invalid_bounds_rejected(self) -> None:
        with pytest.raises(ValueError, match="min_rate"):
            TokenBucket(max_rate=5.0, min_rate=10.0)


# -- live sessions ----------------------------------------------------------------


class TestLiveServer:
    def test_ping_pong(self, start_server) -> None:
        server = start_server()
        (reply,) = _exchange(server.port, [{"type": "ping"}], replies=1)
        assert reply == {"type": "pong"}

    def test_submit_returns_matching_outcome(self, start_server) -> None:
        server = start_server()
        request = ActionRequest(id=41, variant="base", n=3, p=1, q=0, seed=1)
        (reply,) = _exchange(server.port, [request.to_header()], replies=1)
        assert reply["type"] == "outcome"
        assert reply["id"] == 41
        assert reply["status"] == "committed"

    def test_invalid_submit_gets_error_not_disconnect(self, start_server) -> None:
        server = start_server()
        replies = _exchange(
            server.port,
            [{"type": "submit", "id": 9, "n": 0}, {"type": "ping"}],
            replies=2,
        )
        assert replies[0]["type"] == "error"
        assert replies[0]["id"] == 9
        # The session survived the bad submit.
        assert replies[1] == {"type": "pong"}

    def test_unknown_frame_type_gets_error(self, start_server) -> None:
        server = start_server()
        replies = _exchange(
            server.port, [{"type": "dance"}, {"type": "ping"}], replies=2
        )
        assert replies[0]["type"] == "error"
        assert "dance" in replies[0]["reason"]
        assert replies[1] == {"type": "pong"}

    def test_malformed_frame_closes_session_only(self, start_server) -> None:
        server = start_server()

        async def misbehave() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                # Valid length prefix, garbage mode byte.
                writer.write(b"\x00\x00\x00\x05Zjunk")
                await writer.drain()
                header, _ = await asyncio.wait_for(
                    read_frame(reader), timeout=REPLY_TIMEOUT
                )
                # ...and then the server hangs up on us.
                with pytest.raises(asyncio.IncompleteReadError):
                    await asyncio.wait_for(
                        read_frame(reader), timeout=REPLY_TIMEOUT
                    )
                return header
            finally:
                writer.close()

        reply = asyncio.run(misbehave())
        assert reply["type"] == "error"
        # The server itself is unharmed: fresh sessions still work.
        (pong,) = _exchange(server.port, [{"type": "ping"}], replies=1)
        assert pong == {"type": "pong"}
        assert server.metrics.counter("service.protocol_errors").value == 1

    def test_pickle_frame_is_an_error_reply_never_unpickled(
        self, start_server, monkeypatch
    ) -> None:
        """The codec has no mode that unpickles: a hostile ``P`` frame gets
        the protocol-error reply and a closed session, its payload never
        runs, and a session another client already has open keeps working."""
        import os

        from tests.unit.test_rt_tcp import FIRED, hostile_pickle_frame

        monkeypatch.delenv(FIRED, raising=False)
        server = start_server()

        async def go() -> tuple[dict, dict]:
            bystander = await asyncio.open_connection("127.0.0.1", server.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(hostile_pickle_frame({"type": "ping"}))
                await writer.drain()
                error, _ = await asyncio.wait_for(
                    read_frame(reader), timeout=REPLY_TIMEOUT
                )
                with pytest.raises(asyncio.IncompleteReadError):
                    await asyncio.wait_for(
                        read_frame(reader), timeout=REPLY_TIMEOUT
                    )
                bystander[1].write(encode_frame({"type": "ping"}))
                await bystander[1].drain()
                pong, _ = await asyncio.wait_for(
                    read_frame(bystander[0]), timeout=REPLY_TIMEOUT
                )
                return error, pong
            finally:
                writer.close()
                bystander[1].close()

        error, pong = asyncio.run(go())
        assert error["type"] == "error"
        assert "frame mode" in error["reason"]
        assert pong == {"type": "pong"}
        assert server.metrics.counter("service.protocol_errors").value == 1
        assert FIRED not in os.environ

    def test_oversized_frame_rejected(self, start_server) -> None:
        server = start_server(max_frame=1024)

        async def oversend() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(b"\xff\xff\xff\xff")  # claims a 4 GiB frame
                await writer.drain()
                header, _ = await asyncio.wait_for(
                    read_frame(reader), timeout=REPLY_TIMEOUT
                )
                return header
            finally:
                writer.close()

        reply = asyncio.run(oversend())
        assert reply["type"] == "error"
        assert "exceeds limit" in reply["reason"]

    def test_overload_sheds_with_explicit_reply(self, start_server) -> None:
        # A deliberately tiny, non-adaptive bucket: 50-token burst, 50/s
        # refill, no growth — a 200-request burst must shed most of itself.
        server = start_server(max_rate=50.0, min_rate=50.0)
        headers = [
            ActionRequest(id=i, variant="base", n=2, p=1, q=0, seed=i).to_header()
            for i in range(200)
        ]
        replies = _exchange(server.port, headers, replies=200)
        kinds = {"outcome": 0, "overloaded": 0}
        for reply in replies:
            kinds[reply["type"]] += 1
        assert kinds["outcome"] >= 1, "admitted work must still complete"
        assert kinds["overloaded"] >= 1, "overload must shed explicitly"
        assert kinds["outcome"] + kinds["overloaded"] == 200
        shed = server.metrics.counter("service.shed").value
        assert shed == kinds["overloaded"]
        # The queue never fills: every shed is the bucket's.
        reasons = {r["reason"] for r in replies if r["type"] == "overloaded"}
        assert reasons == {"rate"}
        assert server.metrics.counter("service.shed.rate").value == shed

    def test_full_queue_sheds_without_spending_a_token(
        self, start_server
    ) -> None:
        # One queue slot and a pipelined burst: the session admits while
        # the slot is free and sheds the rest as queue-full.  Only an
        # admitted request may take a token.
        server = start_server(queue_limit=1)
        bucket = server.bucket
        takes = []
        take = bucket.try_take

        def counting_take(now: float) -> bool:
            takes.append(now)
            return take(now)

        bucket.try_take = counting_take
        headers = [
            ActionRequest(id=i, variant="base", n=2, p=1, q=0, seed=i).to_header()
            for i in range(100)
        ]
        replies = _exchange(server.port, headers, replies=100)
        shed = [r for r in replies if r["type"] == "overloaded"]
        completed = [r for r in replies if r["type"] == "outcome"]
        assert shed, "a one-slot queue must shed a pipelined burst"
        assert {r["reason"] for r in shed} == {"queue-full"}
        assert len(completed) + len(shed) == 100
        assert len(takes) == len(completed)
        counter = server.metrics.counter
        assert counter("service.shed.queue-full").value == len(shed)
        assert counter("service.shed").value == len(shed)

    def test_fresh_server_sheds_nothing_for_two_closed_loop_clients(
        self, start_server
    ) -> None:
        """A fresh server admits at its ceiling.  A bucket that started in
        slow start (100 tokens, 100/s) shed most of these 500 requests,
        though two closed-loop clients never queue more than two."""
        server = start_server()
        todo = [
            ActionRequest(id=i, variant="base", n=2 + i % 2, p=1, q=0, seed=i)
            for i in range(500)
        ][::-1]
        replies: list[dict] = []

        async def client() -> None:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                while todo:
                    writer.write(encode_frame(todo.pop().to_header()))
                    await writer.drain()
                    reply, _ = await asyncio.wait_for(
                        read_frame(reader), timeout=REPLY_TIMEOUT
                    )
                    replies.append(reply)
            finally:
                writer.close()

        async def two_clients() -> None:
            await asyncio.gather(client(), client())

        asyncio.run(two_clients())
        kinds = [reply["type"] for reply in replies]
        assert kinds.count("overloaded") == 0
        assert kinds.count("outcome") == 500
        assert server.metrics.counter("service.shed").value == 0

    def test_stats_snapshot_over_the_wire(self, start_server) -> None:
        server = start_server()
        request = ActionRequest(id=1, variant="cd", n=3, p=1, q=0, seed=0)
        _exchange(server.port, [request.to_header()], replies=1)
        (reply,) = _exchange(server.port, [{"type": "stats"}], replies=1)
        snapshot = reply["snapshot"]
        assert snapshot["counters"]["service.completed"] == 1
        assert snapshot["counters"]["service.completed.cd"] == 1
        assert snapshot["histograms"]["service.latency_ms"]["count"] == 1
        assert "service.queue_depth" in snapshot["gauges"]

    def test_stats_text_format(self, start_server) -> None:
        server = start_server()
        (reply,) = _exchange(
            server.port, [{"type": "stats", "format": "text"}], replies=1
        )
        assert reply["type"] == "stats"
        assert "service.sessions_opened" in reply["text"]

    def test_shutdown_frame_stops_server(self, start_server) -> None:
        server = start_server()
        (reply,) = _exchange(server.port, [{"type": "shutdown"}], replies=1)
        assert reply == {"type": "bye"}
        deadline = time.monotonic() + 15.0
        while not server._stopping and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._stopping


# -- distributed tracing over the live path ----------------------------------------


class TestLiveTracing:
    def test_traced_submit_echoes_trace_and_spans(self, start_server) -> None:
        from repro.obs.spans import SpanCollector, TraceContext

        server = start_server()
        client = SpanCollector(clock="wall")
        root = client.begin("request 51", "request", "client", 0.0)
        context = TraceContext(trace_id="cafe51cafe51", parent_span=root)
        header = ActionRequest(
            id=51, variant="base", n=3, p=1, q=0, seed=3
        ).to_header()
        header.update(context.to_fields())
        (reply,) = _exchange(server.port, [header], replies=1)
        assert reply["type"] == "outcome"
        assert reply["trace_id"] == "cafe51cafe51"
        records = reply["spans"]
        assert isinstance(records, list) and records
        names = {record["name"] for record in records}
        assert {"queue-wait", "execute", "serialize"} <= names
        # Grafting the shipped records closes the loop: one connected
        # forest rooted at the client's request span.
        client.graft(records, parent=root)
        client.end(root, 1.0)
        assert client.forest_problems() == []
        assert len(client.child_index()[None]) == 1

    def test_untraced_submit_keeps_old_reply_shape(self, start_server) -> None:
        server = start_server()
        request = ActionRequest(id=52, variant="base", n=3, p=1, q=0, seed=0)
        (reply,) = _exchange(server.port, [request.to_header()], replies=1)
        assert reply["type"] == "outcome"
        assert "trace_id" not in reply
        assert "spans" not in reply

    def test_malformed_trace_context_still_resolves(self, start_server) -> None:
        """Garbage trace fields degrade to an untraced request — never a
        protocol error, never a dropped session."""
        server = start_server()
        header = ActionRequest(
            id=53, variant="base", n=3, p=1, q=0, seed=0
        ).to_header()
        header["trace_id"] = 12345  # wrong type
        header["parent_span"] = "not an int"
        # The pong is answered inline while the submit runs through the
        # worker queue, so reply order is not guaranteed.
        replies = _exchange(server.port, [header, {"type": "ping"}], replies=2)
        kinds = sorted(reply["type"] for reply in replies)
        assert kinds == ["outcome", "pong"]
        (outcome,) = [r for r in replies if r["type"] == "outcome"]
        assert outcome["id"] == 53
        assert "spans" not in outcome
        assert server.metrics.counter("service.protocol_errors").value == 0

    def test_engine_trace_opt_in_ships_engine_spans(self, start_server) -> None:
        from repro.obs.spans import TraceContext

        server = start_server()
        header = ActionRequest(
            id=54, variant="base", n=3, p=1, q=0, seed=1, trace=True
        ).to_header()
        header.update(TraceContext.new().to_fields())
        (reply,) = _exchange(server.port, [header], replies=1)
        records = reply["spans"]
        categories = {record["category"] for record in records}
        assert "action" in categories, "engine forest missing from records"
        engine = [r for r in records if r["category"] == "action"]
        # Rescaled onto the wall execute window, virtual times kept as attrs.
        assert all("vt_start" in r["attrs"] for r in engine)

    def test_breakdown_histograms_populated(self, start_server) -> None:
        server = start_server()
        request = ActionRequest(id=55, variant="base", n=3, p=1, q=0, seed=0)
        _exchange(server.port, [request.to_header()], replies=1)
        (reply,) = _exchange(server.port, [{"type": "stats"}], replies=1)
        histograms = reply["snapshot"]["histograms"]
        for stage in ("queue_wait", "execute", "serialize", "reply"):
            assert histograms[f"service.{stage}_ms"]["count"] == 1, stage
        assert histograms["service.latency_ms"]["count"] == 1

    def test_flight_recorder_tracks_completions(self, start_server) -> None:
        server = start_server()
        request = ActionRequest(id=56, variant="base", n=3, p=1, q=0, seed=0)
        _exchange(server.port, [request.to_header()], replies=1)
        # The worker closes the trace *after* writing the reply, so the
        # client can observe the outcome a beat before the ring does.
        deadline = time.monotonic() + 10.0
        while not server.flight.completed_traces():
            assert time.monotonic() < deadline, "trace never reached the ring"
            time.sleep(0.01)
        completed = server.flight.completed_traces()
        assert [t.request_id for t in completed] == [56]
        assert completed[0].status == "committed"
        assert server.flight.open_traces() == []

    def test_shed_dumps_flight_recording(self, start_server, tmp_path) -> None:
        import json

        from repro.obs.export import validate_chrome_trace

        server = start_server(
            max_rate=50.0, min_rate=50.0, flight_dir=tmp_path,
        )
        headers = [
            ActionRequest(id=i, variant="base", n=2, p=1, q=0, seed=i).to_header()
            for i in range(200)
        ]
        replies = _exchange(server.port, headers, replies=200)
        assert any(reply["type"] == "overloaded" for reply in replies)
        dumps = [p for p in tmp_path.iterdir() if p.name.endswith(".trace.json")]
        assert dumps, "shed must auto-dump a flight recording"
        doc = json.loads(dumps[0].read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["trigger"] == "shed"
        assert doc["otherData"]["detail"].endswith(": rate")
        assert server.flight.trigger_counts["shed"] >= 1
        # A shed storm rate-limits to one dump, not one per shed.
        assert len(dumps) == 1
