"""TraceLevel semantics and the by_category query.

``COUNTS`` must keep *exact* per-category counters — every message-count
claim of the paper is verified through them in fast sweeps — while
allocating no entries.  ``by_category`` selects on the raw records: it must
return exactly what a scan of ``entries`` would, on a growing and on a
partly materialized trace, while building entries for its matches alone.
"""

import pytest

from repro.core.variants import VARIANTS, run_action
from repro.simkernel import trace as trace_module
from repro.simkernel.trace import TraceLevel, TraceRecorder
from repro.workloads.campaigns import CampaignCell, observe_cell
from repro.workloads.generator import general_case


def entry_scan(entries, category):
    """``by_category``'s rule applied to materialized entries."""
    prefix = category + "."
    return [
        e for e in entries
        if e.category == category or e.category.startswith(prefix)
    ]


#: FULL traces of every variant, a crash cell and a recovery cell, untouched
#: by any read (all records still raw).
REAL_RUNS = {
    **{
        variant: (
            lambda v=variant: run_action(
                v, 5, 2, 0 if v in ("cd", "cr") else 1, seed=3,
                until=VARIANTS[v].horizon,
            ).runtime.trace
        )
        for variant in VARIANTS
    },
    **{
        fault: (
            lambda f=fault: observe_cell(
                CampaignCell("paper", "ct", f, 5, 2, 1, seed=0)
            ).runtime.trace
        )
        for fault in ("crash_participant", "crash_restart_early")
    },
}


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
        # Grow the trace after the first query.
        trace.record(2.0, "msg.send", "O3")
        trace.record(2.0, "handler", "O3")
        second = trace.by_category("msg")
        assert [e.category for e in second] == ["msg.send", "msg.recv", "msg.send"]
        assert [e.subject for e in second] == ["O1", "O2", "O3"]

    def test_repeated_queries_do_not_rescan(self, monkeypatch):
        """A query builds an entry per match and none for other categories;
        the records it did not select (and those it did) stay raw."""
        trace = TraceRecorder()
        for i in range(100):
            trace.record(float(i), "msg.send", "O1")
            trace.record(float(i), "msg.recv", "O2")
            trace.record(float(i), "handler", "O3")
        raw = list(trace._pending)
        built = []

        class CountingEntry(trace_module.TraceEntry):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[1])
                super().__init__(*args)

        monkeypatch.setattr(trace_module, "TraceEntry", CountingEntry)
        for _ in range(3):
            assert len(trace.by_category("msg.send")) == 100
        assert built == ["msg.send"] * 300
        assert trace._pending == raw and trace._entries == []

    def test_returned_list_is_a_private_copy(self):
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "O1")
        result = trace.by_category("msg.send")
        result.clear()
        assert len(trace.by_category("msg.send")) == 1

    def test_mid_run_level_toggle_keeps_cache_fresh(self):
        """Regression: FULL -> COUNTS -> FULL mid-run with queries between.

        COUNTS stores no records, so a query sees the FULL stretches only,
        and later FULL records must still show up.
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
        """Regression: a query must not serve entries that were deleted.

        Truncating ``entries`` directly (the memory-reclaim move that goes
        with dropping to COUNTS mid-run) must empty later queries too.
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
        trace.by_category("msg.send")
        trace.clear()
        assert len(trace) == 0
        assert trace.counts == {}
        assert trace.by_category("msg.send") == []
        trace.record(2.0, "msg.send", "O2")
        assert [e.subject for e in trace.by_category("msg.send")] == ["O2"]

    @pytest.mark.parametrize("run", sorted(REAL_RUNS))
    def test_agrees_with_an_entry_scan_on_real_runs(self, run):
        """Every category and category prefix of a real FULL trace (generic
        and flat records, ``msg.send``'s derived ``action`` included): the
        same entries in the same order as a scan of ``entries``, with the
        trace all raw, half materialized and fully materialized."""
        records = list(REAL_RUNS[run]()._pending)
        assert records
        reference = TraceRecorder()
        reference._pending += records
        entries = reference.entries
        categories = {"ms"}  # a string prefix that is no category prefix
        for entry in entries:
            parts = entry.category.split(".")
            categories.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
        half = len(records) // 2

        def disagreeing(trace, upto):
            return [
                c for c in sorted(categories)
                if trace.by_category(c) != entry_scan(entries[:upto], c)
            ]

        trace = TraceRecorder()
        trace._pending += records[:half]
        assert disagreeing(trace, half) == []  # all raw
        trace.entries  # materialize the first half
        trace._pending += records[half:]
        assert disagreeing(trace, len(entries)) == []
        assert trace._pending == records[half:]
        assert trace.entries == entries
        assert disagreeing(trace, len(entries)) == []


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
