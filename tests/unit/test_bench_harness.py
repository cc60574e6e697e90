"""Regression tests for the benchmark harness table formatter."""

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness_under_test", BENCH_DIR / "_harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestRecordTable:
    def test_empty_rows_do_not_crash(self, tmp_path, monkeypatch):
        """max(len(header), *()) used to raise TypeError on empty rows."""
        harness = _load_harness()
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        text = harness.record_table(
            "E00", "empty table", ("n", "measured"), []
        )
        assert "(no rows)" in text
        assert "E00" in text
        assert (tmp_path / "E00.txt").read_text().rstrip().endswith("(no rows)")

    def test_rows_render_aligned(self, tmp_path, monkeypatch):
        harness = _load_harness()
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        text = harness.record_table(
            "E99", "table", ("n", "count"), [(4, 21), (16, 405)], notes="note"
        )
        lines = text.splitlines()
        assert lines[0] == "== E99: table =="
        assert "405" in text
        assert text.endswith("note")
        assert (tmp_path / "E99.txt").exists()

    def test_wide_cells_stretch_columns(self, tmp_path, monkeypatch):
        harness = _load_harness()
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        text = harness.record_table(
            "E98", "t", ("x",), [("a-very-wide-cell",)]
        )
        header_line = text.splitlines()[1]
        assert len(header_line) == len("a-very-wide-cell")

    def test_unpersisted_table_leaves_results_dir_untouched(
        self, tmp_path, monkeypatch
    ):
        harness = _load_harness()
        (tmp_path / "E29.txt").write_text("committed\n")
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        text = harness.record_table("E29", "t", ("x",), [(1,)], persist=False)
        assert "E29" in text
        assert [p.name for p in tmp_path.iterdir()] == ["E29.txt"]
        assert (tmp_path / "E29.txt").read_text() == "committed\n"

    def test_every_bench_persists_only_to_its_default_report(self):
        # A bench run with --out elsewhere must not rewrite the committed
        # table, so each call site ties persist to the default path.
        for path in sorted(BENCH_DIR.glob("*.py")):
            text = path.read_text()
            calls = text.count("record_table(") - text.count("def record_table(")
            if path.name in ("_harness.py", "experiments.py") or not calls:
                continue
            assert text.count("persist=args.out == DEFAULT_OUT") == calls, path
