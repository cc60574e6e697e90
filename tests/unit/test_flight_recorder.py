"""Flight recorder: request records and their span view, the bounded ring,
triggers, stall detection and the dumped artifacts."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import validate_chrome_trace
from repro.obs.spans import TraceContext
from repro.service.flight import (
    TRIGGER_REASONS,
    FlightRecorder,
    RequestRecord,
    request_spans,
)


def _queued(recorder: FlightRecorder, now: float, request_id=None, depth=0):
    record = recorder.start(now, request_id=request_id)
    record.queue_depth = depth
    return record


class TestRequestTrace:
    """A record's span view: one root, one child per stage reached."""

    def test_stage_spans_nest_under_root(self) -> None:
        record = RequestRecord(7, "t1", None, 10.0)
        record.queue_depth = 3
        record.instants += [10.5, 11.0]
        record.execute = {"status": "committed"}
        record.status = "committed"  # finished at 11.0
        spans = request_spans(record)
        (root,) = spans.child_index()[None]
        stages = spans.by_category("stage")
        assert [s.name for s in stages] == ["queue-wait", "execute"]
        assert all(s.parent_id == root.span_id for s in stages)
        # One instant ends a stage and begins the next.
        assert stages[0].end == stages[1].start == 10.5
        assert stages[0].attrs == {"queue_depth": 3}
        assert spans.open_spans() == []

    def test_finish_is_idempotent(self) -> None:
        recorder = FlightRecorder()
        record = recorder.start(0.0, request_id=1)
        recorder.finish(record, 1.0, "committed")
        recorder.finish(record, 2.0, "error")
        (root,) = request_spans(record)
        assert root.end == 1.0
        assert record.status == "committed"
        assert record.instants == [0.0, 1.0]

    def test_engine_records_graft_under_current_stage(self) -> None:
        record = RequestRecord(1, "t1", None, 0.0)
        record.queue_depth = 0
        record.instants += [0.1, 0.3, 0.4]  # dequeued, executed, serialized
        record.engine = [
            {"span_id": 1, "start": 0.15, "end": 0.2, "name": "action A1"},
            {"span_id": 2, "start": 0.16, "end": None, "name": "action A2"},
        ]
        for shipped in (False, True):
            spans = request_spans(record, shipped=shipped)
            (execute,) = [s for s in spans if s.name == "execute"]
            grafted = [s for s in spans if s.name.startswith("action")]
            assert [s.parent_id for s in grafted] == [execute.span_id] * 2
            # The shipped copy ends what is open at the serialize instant.
            assert grafted[1].end == (0.4 if shipped else None)

    def test_context_points_at_root(self) -> None:
        record = FlightRecorder().start(
            0.0, request_id=1, context=TraceContext("deadbeef", parent_span=5)
        )
        (root,) = request_spans(record).child_index()[None]
        context = TraceContext(record.trace_id, parent_span=root.span_id)
        assert context == TraceContext("deadbeef", parent_span=1)
        assert root.attrs == {"trace_id": "deadbeef"}

    def test_shipped_records_have_no_recorder_internals(self) -> None:
        recorder = FlightRecorder()
        record = _queued(recorder, 0.0, request_id=5)
        record.instants += [0.1, 0.2, 0.3]
        records = request_spans(record, shipped=True).to_records()
        # Up to serialize: the reply stage happens after the bytes leave.
        assert [r["name"] for r in records] == [
            "request 5", "queue-wait", "execute", "serialize",
        ]
        for shipped in records:
            assert shipped["end"] is not None
            assert "stalled" not in shipped["attrs"]
            assert "instants" not in shipped["attrs"]


class TestFlightRecorderRing:
    def test_completed_traces_bounded_by_capacity(self) -> None:
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            record = recorder.start(float(i), request_id=i)
            recorder.finish(record, float(i) + 0.5, "committed")
        completed = recorder.completed_traces()
        assert len(completed) == 3
        assert [r.request_id for r in completed] == [7, 8, 9]

    def test_open_traces_never_evicted(self) -> None:
        recorder = FlightRecorder(capacity=2)
        open_records = [recorder.start(float(i)) for i in range(5)]
        assert recorder.open_traces() == open_records
        for record in open_records:
            recorder.finish(record, 10.0, "committed")
        assert recorder.open_traces() == []
        assert len(recorder.completed_traces()) == 2

    def test_double_finish_does_not_duplicate(self) -> None:
        recorder = FlightRecorder(capacity=8)
        record = recorder.start(0.0, request_id=1)
        recorder.finish(record, 1.0, "committed")
        recorder.finish(record, 2.0, "error")
        assert len(recorder.completed_traces()) == 1

    def test_invalid_capacity_rejected(self) -> None:
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_incoming_context_joins_distributed_trace(self) -> None:
        recorder = FlightRecorder()
        context = TraceContext("cafe1234", parent_span=99)
        record = recorder.start(0.0, request_id=1, context=context)
        assert record.trace_id == "cafe1234"
        assert record.remote_parent == 99

    def test_missing_context_starts_fresh_root(self) -> None:
        recorder, other = FlightRecorder(), FlightRecorder()
        a = recorder.start(0.0)
        b = recorder.start(0.0)
        c = other.start(0.0)
        assert len({a.trace_id, b.trace_id, c.trace_id}) == 3
        assert a.remote_parent is None
        # A per-recorder random prefix, then the request's sequence number.
        assert a.trace_id[:8] == b.trace_id[:8] != c.trace_id[:8]
        assert int(b.trace_id[8:], 16) == int(a.trace_id[8:], 16) + 1


class TestTriggers:
    def test_unknown_reason_raises(self) -> None:
        with pytest.raises(ValueError, match="unknown trigger"):
            FlightRecorder().trigger("coffee-spill", 0.0)

    def test_counts_per_reason_without_dump_dir(self) -> None:
        recorder = FlightRecorder()
        for reason in TRIGGER_REASONS:
            assert recorder.trigger(reason, 0.0) is None
        assert recorder.trigger_counts == {r: 1 for r in TRIGGER_REASONS}
        assert recorder.dumps == []

    def test_dump_writes_valid_chrome_trace(self, tmp_path) -> None:
        recorder = FlightRecorder(capacity=4, dump_dir=tmp_path)
        record = _queued(recorder, 1.0, request_id=7)
        record.instants.append(1.1)
        recorder.finish(record, 1.5, "committed")
        still_open = recorder.start(1.6, request_id=8)
        path = recorder.trigger("shed", 2.0, detail="bucket empty")
        assert path is not None and path.exists()
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["trigger"] == "shed"
        assert doc["otherData"]["detail"] == "bucket empty"
        assert doc["otherData"]["completed_traces"] == 1
        assert doc["otherData"]["open_traces"] == 1
        jsonl = path.with_name(path.name.replace(".trace.json", ".spans.jsonl"))
        assert jsonl.exists()
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert any(line.get("category") == "request" for line in lines)
        recorder.finish(still_open, 3.0, "committed")

    def test_dumps_rate_limited(self, tmp_path) -> None:
        recorder = FlightRecorder(dump_dir=tmp_path, min_dump_interval=5.0)
        assert recorder.trigger("shed", 0.0) is not None
        assert recorder.trigger("shed", 1.0) is None
        assert recorder.trigger("p99-breach", 4.9) is None
        assert recorder.suppressed == 2
        # Past the window: dumps again, sequence number advances.
        second = recorder.trigger("shed", 6.0)
        assert second is not None
        assert second.name != recorder.dumps[0].name

    def test_stall_fires_once_per_trace(self, tmp_path) -> None:
        recorder = FlightRecorder(
            dump_dir=tmp_path, stall_after=10.0, min_dump_interval=0.0
        )
        record = recorder.start(0.0, request_id=3)
        assert recorder.check_stalls(5.0) == 0
        assert recorder.check_stalls(11.0) == 1
        # Same wedged request on later ticks: no re-fire.
        assert recorder.check_stalls(20.0) == 0
        assert recorder.trigger_counts.get("stall") == 1
        assert record.stalled
        recorder.finish(record, 21.0, "error")
        fresh = recorder.start(22.0, request_id=4)
        assert recorder.check_stalls(40.0) == 1
        recorder.finish(fresh, 41.0, "error")

    def test_stalled_request_bar_runs_to_the_moment_of_the_dump(self, tmp_path) -> None:
        """A span still open at a dump ends at the dump's ``now`` — not at
        the latest timestamp seen, which is some *other* request's reply."""
        recorder = FlightRecorder(
            dump_dir=tmp_path, stall_after=10.0, min_dump_interval=0.0
        )
        stalled = recorder.start(1.0, request_id=3)
        other = recorder.start(2.0, request_id=4)
        recorder.finish(other, 4.0, "committed")  # the latest timestamp: 4.0
        now = 12.5
        assert recorder.check_stalls(now) == 1
        doc = json.loads(recorder.dumps[0].read_text())
        [bar] = [
            event for event in doc["traceEvents"]
            if event["ph"] == "X" and event["args"].get("open")
        ]
        assert bar["name"] == "request 3"
        assert bar["dur"] == (now - stalled.instants[0]) * 1e6

    def test_merged_collector_is_a_clean_forest(self) -> None:
        recorder = FlightRecorder(capacity=4)
        for i in range(3):
            record = _queued(recorder, float(i), request_id=i)
            record.instants.append(i + 0.1)
            recorder.finish(record, i + 0.9, "committed")
        recorder.start(5.0, request_id=99)  # stays open
        merged = recorder.merged_collector()
        assert merged.clock == "wall"
        assert len(merged.child_index()[None]) == 4
        assert merged.forest_problems() == []
