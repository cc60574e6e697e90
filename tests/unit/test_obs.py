"""Unit tests for the observability package (spans, metrics, exporters)."""

import json

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    VT_BUCKETS,
    MetricsRegistry,
    SpanCollector,
    merge_snapshots,
    metrics_to_text,
    render_span_tree,
    spans_to_chrome,
    spans_to_jsonl,
    validate_chrome_trace,
)


def _sample_forest() -> SpanCollector:
    spans = SpanCollector()
    action = spans.begin("action A1", "action", "O1", 0.0)
    resolution = spans.begin(
        "resolution A1", "resolution", "O1", 10.0, parent=action, cause=17
    )
    dwell = spans.begin("state X", "state", "O1", 10.0, parent=resolution)
    spans.event("raise E1", "raise", "O1", 10.0, parent=resolution)
    spans.end(dwell, 12.0)
    spans.end(resolution, 12.0, outcome="handled E1")
    spans.end(action, 14.0, outcome="completed")
    return spans


class TestSpanCollector:
    def test_begin_end_lifecycle(self):
        spans = _sample_forest()
        assert len(spans) == 4
        root = spans.child_index()[None][0]
        assert root.name == "action A1"
        assert root.duration == 14.0
        assert spans.open_spans() == []

    def test_end_is_idempotent_and_none_safe(self):
        spans = SpanCollector()
        sid = spans.begin("s", "state", "O1", 1.0)
        spans.end(None, 2.0)  # never opened: ignored
        spans.end(sid, 3.0)
        spans.end(sid, 99.0)  # second close ignored
        assert spans.get(sid).end == 3.0

    def test_event_is_zero_duration(self):
        spans = SpanCollector()
        sid = spans.event("raise E1", "raise", "O1", 5.0)
        span = spans.get(sid)
        assert span.is_event and span.duration == 0.0

    def test_cause_ids_recorded(self):
        spans = _sample_forest()
        resolution = spans.by_category("resolution")[0]
        assert resolution.cause_ids == (17,)

    def test_children_and_child_index(self):
        spans = _sample_forest()
        index = spans.child_index()
        assert [s.name for s in index[None]] == ["action A1"]
        children = index[index[None][0].span_id]
        assert [c.name for c in children] == ["resolution A1"]

    def test_forest_problems_detects_orphans_and_bad_intervals(self):
        spans = SpanCollector()
        spans.begin("orphan", "state", "O1", 1.0, parent=999)
        sid = spans.begin("backwards", "state", "O1", 5.0)
        spans.get(sid).end = 1.0  # bypass end(): seed a bad interval
        problems = spans.forest_problems()
        assert any("unknown parent" in p for p in problems)
        assert any("before its start" in p for p in problems)

    def test_healthy_forest_has_no_problems(self):
        assert _sample_forest().forest_problems() == []


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7.5)
        hist = registry.histogram("h", VT_BUCKETS)
        for value in (0.5, 3.0, 1000.0, 5000.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 7.5
        assert snap["histograms"]["h"]["count"] == 4
        assert snap["histograms"]["h"]["min"] == 0.5
        assert snap["histograms"]["h"]["max"] == 5000.0

    def test_histogram_bounds_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", VT_BUCKETS)
        with pytest.raises(ValueError):
            registry.histogram("h", COUNT_BUCKETS)

    def test_merge_snapshots_adds_counters_and_histograms(self):
        snaps = []
        for i in range(3):
            registry = MetricsRegistry()
            registry.counter("c").inc(i + 1)
            registry.gauge("g").set(float(i))
            registry.histogram("h", COUNT_BUCKETS).observe(i)
            snaps.append(registry.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["counters"]["c"] == 6
        assert merged["gauges"]["g"] == 2.0  # last write wins
        assert merged["histograms"]["h"]["count"] == 3
        assert merged["histograms"]["h"]["sum"] == 3.0

    def test_merged_histogram_buckets_are_elementwise_sums(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h", (1, 2)).observe(0.5)
        b.histogram("h", (1, 2)).observe(1.5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert sum(merged["histograms"]["h"]["bucket_counts"]) == 2


class TestExporters:
    def test_jsonl_one_object_per_span(self):
        spans = _sample_forest()
        lines = spans_to_jsonl(spans).splitlines()
        assert len(lines) == len(spans)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "action A1"
        assert parsed[1]["cause_ids"] == [17]

    def test_chrome_trace_is_schema_valid(self):
        doc = spans_to_chrome(_sample_forest())
        assert validate_chrome_trace(doc) == []
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_chrome_open_spans_closed_at_end_time_and_flagged(self):
        spans = SpanCollector()
        spans.begin("stuck", "resolution", "O1", 10.0)  # never ends
        doc = spans_to_chrome(spans, end_time=50.0)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["args"]["open"] is True
        assert complete[0]["dur"] == 40_000.0  # (50-10) VT * 1000 us
        assert validate_chrome_trace(doc) == []

    def test_validate_rejects_malformed_documents(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []

    def test_span_tree_rendering(self):
        text = render_span_tree(_sample_forest())
        assert "action A1" in text
        assert "raise E1 (O1) ●" in text
        # Children are indented under their parents.
        action_line = next(
            line for line in text.splitlines() if "action A1" in line
        )
        raise_line = next(
            line for line in text.splitlines() if "raise E1" in line
        )
        assert len(raise_line) - len(raise_line.lstrip()) > (
            len(action_line) - len(action_line.lstrip())
        )

    def test_open_span_rendered_as_unfinished(self):
        spans = SpanCollector()
        spans.begin("stuck", "resolution", "O1", 10.0)
        assert "…" in render_span_tree(spans)

    def test_metrics_to_text_lists_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h", (1, 2)).observe(1.5)
        text = metrics_to_text(registry.snapshot())
        for name in ("c", "g", "h"):
            assert name in text
