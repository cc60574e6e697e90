"""TraceLevel semantics and the by_category cache.

``COUNTS`` must keep *exact* per-category counters — every message-count
claim of the paper is verified through them in fast sweeps — while
allocating no entries.  The ``by_category`` cache must return exactly what
a fresh linear scan would, on a growing trace.
"""

from repro.simkernel.trace import TraceLevel, TraceRecorder
from repro.workloads.generator import general_case


class TestLevels:
    def test_full_records_entries_and_counts(self):
        trace = TraceRecorder()
        assert trace.level is TraceLevel.FULL
        trace.record(1.0, "msg.send", "O1", dst="O2")
        trace.record(2.0, "msg.send", "O2", dst="O1")
        trace.record(3.0, "handler", "O1")
        assert len(trace) == 3
        assert trace.counts["msg.send"] == 2
        assert trace.count("msg") == 2
        assert trace.count("handler") == 1

    def test_counts_level_keeps_exact_counters_without_entries(self):
        trace = TraceRecorder(level=TraceLevel.COUNTS)
        for _ in range(5):
            trace.record(1.0, "msg.send", "O1", dst="O2", kind="ACK")
        trace.record(1.0, "msg.recv", "O2")
        assert len(trace) == 0
        assert trace.entries == []
        assert trace.counts["msg.send"] == 5
        assert trace.counts["msg.recv"] == 1
        assert trace.count("msg") == 6

    def test_off_records_nothing(self):
        trace = TraceRecorder(level=TraceLevel.OFF)
        trace.record(1.0, "msg.send", "O1")
        assert len(trace) == 0
        assert trace.counts == {}

    def test_count_is_prefix_component_wise(self):
        trace = TraceRecorder(level=TraceLevel.COUNTS)
        trace.record(1.0, "msg.send", "a")
        trace.record(1.0, "msgother", "b")
        assert trace.count("msg") == 1
        assert trace.count("msgother") == 1


class TestByCategoryCache:
    def test_matches_fresh_scan_on_growing_trace(self):
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "O1")
        trace.record(1.0, "msg.recv", "O2")
        first = trace.by_category("msg")
        assert [e.category for e in first] == ["msg.send", "msg.recv"]
        # Grow the trace after the first (now cached) query.
        trace.record(2.0, "msg.send", "O3")
        trace.record(2.0, "handler", "O3")
        second = trace.by_category("msg")
        assert [e.category for e in second] == ["msg.send", "msg.recv", "msg.send"]
        assert [e.subject for e in second] == ["O1", "O2", "O3"]

    def test_repeated_queries_do_not_rescan(self):
        trace = TraceRecorder()
        for i in range(100):
            trace.record(float(i), "msg.send", "O1")
        trace.by_category("msg.send")

        class ExplodingList(list):
            def __getitem__(self, item):
                raise AssertionError("query rescanned the entry log")

        # With the cache warm and no new entries, a second query must not
        # slice the entries list again.
        trace._entries = ExplodingList(trace.entries)
        result = trace.by_category("msg.send")
        assert len(result) == 100

    def test_returned_list_is_a_private_copy(self):
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "O1")
        result = trace.by_category("msg.send")
        result.clear()
        assert len(trace.by_category("msg.send")) == 1

    def test_mid_run_level_toggle_keeps_cache_fresh(self):
        """Regression: FULL -> COUNTS -> FULL mid-run with queries between.

        COUNTS records no entries, so the cached scan position must stay
        valid across the gap and later FULL entries must still show up.
        """
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "O1")
        assert [e.subject for e in trace.by_category("msg.send")] == ["O1"]
        trace.level = TraceLevel.COUNTS
        trace.record(2.0, "msg.send", "O2")  # counted, not stored
        assert [e.subject for e in trace.by_category("msg.send")] == ["O1"]
        trace.level = TraceLevel.FULL
        trace.record(3.0, "msg.send", "O3")
        assert [e.subject for e in trace.by_category("msg.send")] == ["O1", "O3"]
        assert trace.counts["msg.send"] == 3

    def test_cache_survives_external_truncation(self):
        """Regression: the cache must not serve entries that were deleted.

        Truncating ``entries`` directly (the memory-reclaim move that goes
        with dropping to COUNTS mid-run) leaves the cached scan position
        past the end of the log; the next query must rescan, not replay
        stale matches.
        """
        trace = TraceRecorder()
        for i in range(4):
            trace.record(float(i), "msg.send", f"O{i}")
        assert len(trace.by_category("msg.send")) == 4
        trace.entries.clear()  # direct truncation, bypassing clear()
        assert trace.by_category("msg.send") == []
        trace.record(9.0, "msg.send", "O9")
        assert [e.subject for e in trace.by_category("msg.send")] == ["O9"]

    def test_clear_resets_entries_counts_and_cache(self):
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "O1")
        trace.by_category("msg.send")  # warm the cache
        trace.clear()
        assert len(trace) == 0
        assert trace.counts == {}
        assert trace.by_category("msg.send") == []
        trace.record(2.0, "msg.send", "O2")
        assert [e.subject for e in trace.by_category("msg.send")] == ["O2"]


class TestCountsMatchFullOnRealScenarios:
    def test_exact_formula_counts_survive_counts_tracing(self):
        """E4-style check: measured == (N-1)(2P+3Q+1) under COUNTS."""
        from repro.analysis import general_messages

        for n, p, q in [(4, 1, 0), (6, 2, 3), (8, 8, 0), (5, 1, 4)]:
            result = general_case(
                n, p, q, trace_level=TraceLevel.COUNTS
            ).run()
            assert result.resolution_message_total() == general_messages(n, p, q)
            assert len(result.runtime.trace) == 0

    def test_per_category_counters_agree_between_levels(self):
        full = general_case(6, 2, 2).run()
        counts = general_case(6, 2, 2, trace_level=TraceLevel.COUNTS).run()
        full_trace = full.runtime.trace
        counts_trace = counts.runtime.trace
        for category in ("msg.send", "msg.recv"):
            assert full_trace.count(category) == counts_trace.count(category)
        assert full.messages_by_kind() == counts.messages_by_kind()
