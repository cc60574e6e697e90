"""Unit tests for the ASCII sequence-chart renderer."""

from repro.analysis import chart_rows, render_sequence_chart
from repro.core.messages import RESOLUTION_KINDS
from repro.simkernel.trace import TraceRecorder
from repro.workloads.generator import example1_scenario, example2_scenario


class TestChartRows:
    def test_rows_extracted_in_trace_order(self):
        trace = TraceRecorder()
        trace.record(1.0, "raise", "O1", action="A1", exception="E1")
        trace.record(2.0, "msg.send", "O1", dst="O2", kind="EXCEPTION", id=1)
        trace.record(3.0, "msg.recv", "O2", src="O1", kind="EXCEPTION", id=1)
        rows = chart_rows(trace, ["O1", "O2"])
        assert [r.time for r in rows] == [1.0, 2.0, 3.0]
        assert rows[0].text == "raise E1"
        assert rows[1].text == "EXCEPTION →O2"
        assert rows[2].text == "◀ EXCEPTION from O1"

    def test_unknown_lanes_skipped(self):
        trace = TraceRecorder()
        trace.record(1.0, "raise", "X9", action="A1", exception="E")
        assert chart_rows(trace, ["O1"]) == []

    def test_kind_filter_applies_to_messages_only(self):
        trace = TraceRecorder()
        trace.record(1.0, "msg.send", "O1", dst="O2", kind="DONE", id=1)
        trace.record(1.5, "raise", "O1", action="A1", exception="E")
        rows = chart_rows(trace, ["O1"], kinds={"EXCEPTION"})
        assert [r.text for r in rows] == ["raise E"]

    def test_uninterpretable_categories_ignored(self):
        trace = TraceRecorder()
        trace.record(1.0, "something.else", "O1")
        assert chart_rows(trace, ["O1"]) == []


class TestRendering:
    def test_example1_chart_contains_paper_steps(self):
        result = example1_scenario().run()
        chart = render_sequence_chart(
            result.runtime.trace, ["O1", "O2", "O3"],
            kinds=set(RESOLUTION_KINDS),
        )
        assert "raise E1" in chart
        assert "raise E2" in chart
        assert "RESOLVE" in chart
        assert "COMMIT →O1" in chart
        assert "handler[UniversalException] starts" in chart

    def test_example2_chart_shows_cleanup_and_abortion(self):
        result = example2_scenario().run()
        chart = render_sequence_chart(
            result.runtime.trace, ["O1", "O2", "O3", "O4"], max_rows=500,
        )
        assert "buffer EXCEPTION (A3)" in chart
        assert "clean 1 stale msg(s)" in chart
        assert "aborted A2, signals E3" in chart
        assert "aborting A3" in chart

    def test_lane_alignment(self):
        result = example1_scenario().run()
        chart = render_sequence_chart(result.runtime.trace, ["O1", "O2", "O3"])
        lines = chart.splitlines()
        # All body rows have the same width as the header.
        assert all(
            len(line) == len(lines[0]) for line in lines[2:] if "elided" not in line
        )

    def test_max_rows_elision(self):
        result = example2_scenario().run()
        chart = render_sequence_chart(
            result.runtime.trace, ["O1", "O2", "O3", "O4"], max_rows=5,
        )
        assert "further events elided" in chart
        assert len(chart.splitlines()) <= 8

    def test_explicit_lane_width_truncates(self):
        result = example1_scenario().run()
        chart = render_sequence_chart(
            result.runtime.trace, ["O1", "O2", "O3"], lane_width=8,
        )
        body = chart.splitlines()[2:]
        assert body  # still renders
