"""Unit tests for the ASCII sequence-chart renderer."""

import textwrap

from repro.analysis import (
    chart_rows,
    render_sequence_chart,
    render_span_chart,
    span_chart_rows,
)
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


#: Golden span chart for the Section 4.3 Example 1 run: three concurrent
#: participants, O1 raises E1 and O2 raises E2 at t=10, O3 is informed and
#: suspends at t=11, O2 (the biggest-named raiser) resolves to
#: UniversalException at t=12, every dwell rolls to R and the action
#: completes at t=14.  The run is fully deterministic, so the rendering
#: is byte-stable; a diff here means the span instrumentation (or the
#: renderer) changed behaviour.
EXAMPLE1_SPAN_CHART = textwrap.dedent("""\
          time │ O1                       │ O2                       │ O3
    -------------------------------------------------------------------------------------------
         0.000 │ ▶ action A1              │                          │
         0.000 │                          │ ▶ action A1              │
         0.000 │                          │                          │ ▶ action A1
        10.000 │ · ▶ resolution A1        │                          │
        10.000 │ · · ● state N            │                          │
        10.000 │ · · ▶ state X            │                          │
        10.000 │ · · ● raise E1           │                          │
        10.000 │                          │ · ▶ resolution A1        │
        10.000 │                          │ · · ● state N            │
        10.000 │                          │ · · ▶ state X            │
        10.000 │                          │ · · ● raise E2           │
        11.000 │                          │                          │ · ▶ resolution A1
        11.000 │                          │                          │ · · ● state N
        11.000 │                          │                          │ · · ▶ state S
        12.000 │ · · ■ state X            │                          │
        12.000 │                          │ · ■ resolution A1 (handl │
        12.000 │                          │ · · ■ state X            │
        12.000 │ · · ▶ state R            │                          │
        12.000 │                          │ · · ● state R            │
        12.000 │                          │ · · ● commit UniversalEx │
        12.000 │                          │ · · ● handler UniversalE │
        13.000 │ · ■ resolution A1 (handl │                          │
        13.000 │                          │                          │ · ■ resolution A1 (handl
        13.000 │                          │                          │ · · ■ state S
        13.000 │ · · ■ state R            │                          │
        13.000 │ · · ● handler UniversalE │                          │
        13.000 │                          │                          │ · · ● handler UniversalE
        14.000 │ ■ action A1 (completed)  │                          │
        14.000 │                          │ ■ action A1 (completed)  │
        14.000 │                          │                          │ ■ action A1 (completed) """)


class TestSpanChart:
    def test_example1_golden_output(self):
        """The Section 4.3 worked example renders byte-for-byte stably."""
        result = example1_scenario().run()
        chart = render_span_chart(
            result.runtime.spans, ["O1", "O2", "O3"], lane_width=24,
        )
        # Compare line-wise, trailing lane padding stripped (the golden
        # text cannot carry significant trailing whitespace).
        assert [
            line.rstrip() for line in chart.splitlines()
        ] == [line.rstrip() for line in EXAMPLE1_SPAN_CHART.splitlines()]

    def test_rows_indented_by_forest_depth(self):
        result = example1_scenario().run()
        rows = span_chart_rows(result.runtime.spans, ["O1", "O2", "O3"])
        texts = [r.text for r in rows]
        assert "▶ action A1" in texts  # depth 0: no indent
        assert "· ▶ resolution A1" in texts  # child of the action span
        assert "· · ● raise E1" in texts  # grandchild
        assert all(not t.startswith(" ") for t in texts)

    def test_abortion_chain_renders_inside_resolution(self):
        result = example2_scenario().run()
        rows = span_chart_rows(
            result.runtime.spans, ["O1", "O2", "O3", "O4"]
        )
        abort_rows = [r for r in rows if "abort A" in r.text]
        assert abort_rows, "nested example must produce abort spans"
        # Abort spans sit under a resolution span: depth >= 2.
        assert all(r.text.startswith("· · ") for r in abort_rows)

    def test_open_spans_listed_in_footer(self):
        from repro.core.variants import run_action
        from repro.objects.naming import canonical_name

        victim = canonical_name(2)
        result = run_action("ct", 4, 2, crashes=[(victim, 12.0)])
        lanes = [canonical_name(i) for i in range(4)]
        chart = render_span_chart(result.runtime.spans, lanes)
        assert f"... open: {victim} " in chart
