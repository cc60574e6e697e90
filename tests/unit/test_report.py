"""Unit tests for the report generator's pieces: every registry row renders."""

from repro.analysis.report import EXPERIMENTS, ReportSection, generate_report


class TestReportSection:
    def test_renders_markdown_table(self):
        section = ReportSection(
            title="demo",
            headers=["a", "b"],
            rows=[(1, 2), (3, 4)],
            verdict="fine",
            notes="a note",
        )
        text = section.render()
        assert "### demo" in text
        assert "| a | b |" in text
        assert "| 1 | 2 |" in text
        assert "**Verdict: fine**" in text
        assert "a note" in text

    def test_notes_optional(self):
        section = ReportSection("t", ["x"], [(1,)], "ok")
        assert "None" not in section.render()


class TestGenerateReport:
    def test_small_sweep_report(self):
        text = generate_report()
        assert "Overall: all claims hold" in text
        for row in EXPERIMENTS.values():
            assert f"### {row.id} — {row.title}" in text

    def test_exact_sections_show_ok_rows(self):
        text = generate_report()
        assert "MISMATCH" not in text
        assert "DOES NOT HOLD" not in text
        assert text.count("**Verdict: holds**") == len(EXPERIMENTS)
