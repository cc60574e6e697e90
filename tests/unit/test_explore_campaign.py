"""Campaign plumbing: rosters, pinned-regression emission, mutant hunts.

The pin emitter is load-bearing twice over — the determinism harness
scans for the modules it writes, and the mutation bench's ``--hunt``
mode feeds it survivor counterexamples — so its output shape is pinned
here against both consumers.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

from repro.explore.campaign import (
    default_roster,
    hunt_schedule,
    pin_campaign_findings,
    pin_regression,
)
from repro.explore.engine import Finding, explore_cell
from repro.workloads.campaigns import parse_cell_id

REPO_ROOT = Path(__file__).resolve().parents[2]


def _finding(minimized: str = "ch:6=1") -> Finding:
    return Finding(
        cell_id="paper:ct:none:n3p1q1:s0",
        schedule="ch:6=1",
        minimized=minimized,
        classification="INVARIANT-VIOLATION",
        violations=("premature commit",),
        digest=("INVARIANT-VIOLATION", (("a", "E1"),), None),
        baseline_digest=("OK", (("a", "E1"),), 10),
    )


class TestRoster:
    def test_every_cell_parses(self):
        roster = default_roster(n=3, seed=0)
        for cell_id in roster:
            assert parse_cell_id(cell_id).cell_id == cell_id

    def test_covers_variants_sabotage_and_faults(self):
        roster = default_roster(n=4, seed=7)
        assert len(roster) == 10
        assert sum(":none:" in c and ":sab-" not in c for c in roster) == 5
        assert sum(":sab-" in c for c in roster) == 3
        assert sum(":crash_" in c for c in roster) == 2
        assert all("n4p1q1" in c and ":s7" in c for c in roster)


class TestPinRegression:
    def test_emitted_module_shape(self, tmp_path):
        path = pin_regression(_finding(), tmp_path, origin="unit test")
        text = path.read_text()
        # The determinism harness's static scanner must pick the pin up.
        tree = ast.parse(text)
        constants = {
            node.targets[0].id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
        }
        assert constants["CELL"] == "paper:ct:none:n3p1q1:s0"
        assert constants["MINIMIZED"] == "ch:6=1"
        assert "def test_minimized_counterexample_schedule_is_green" in text
        assert "def test_replay_is_deterministic" in text
        assert "repro explore" in text  # the one-line repro command

    def test_pins_are_append_only(self, tmp_path):
        first = pin_regression(_finding(), tmp_path, name="keeper")
        first.write_text("# hand-edited\n")
        second = pin_regression(_finding(), tmp_path, name="keeper")
        assert second == first
        assert first.read_text() == "# hand-edited\n"

    def test_distinct_schedules_get_distinct_files(self, tmp_path):
        a = pin_regression(_finding("ch:6=1"), tmp_path)
        b = pin_regression(_finding("ch:7=0"), tmp_path)
        assert a != b
        assert sorted(p.name for p in tmp_path.glob("test_*.py")) == sorted(
            [a.name, b.name]
        )

    def test_emitted_pin_passes_on_pristine_tree(self, tmp_path):
        # The real ct pin: on healthy code the schedule replays green, so
        # the emitted module must pass as a pytest file right away.
        path = pin_regression(_finding(), tmp_path, name="pristine_check")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(path)],
            capture_output=True, text=True, timeout=300,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
                "HOME": "/tmp",
            },
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCampaign:
    def test_tiny_campaign_and_pinning(self, tmp_path):
        results = [
            explore_cell(cell, mode="dfs", max_runs=6000)
            for cell in (
                "paper:base:none:n2p1q1:s0", "paper:ct:none:n2p1q1:s0"
            )
        ]
        assert [r.cell.cell_id for r in results] == [
            "paper:base:none:n2p1q1:s0", "paper:ct:none:n2p1q1:s0",
        ]
        assert all(r.exhaustive for r in results)
        # Clean protocols -> no findings -> nothing pinned.
        assert pin_campaign_findings(results, tmp_path) == []
        assert list(tmp_path.glob("test_*.py")) == []


class TestHunt:
    def test_hunt_on_pristine_tree_finds_nothing(self):
        report = hunt_schedule(
            REPO_ROOT / "src", "paper:ct:none:n2p1q1:s0",
            mode="delay", bound=1, max_runs=500,
        )
        assert report["ok"] is True
        assert report["findings"] == []
        assert report["schedules_run"] > 0

    def test_hunt_reports_broken_tree_instead_of_raising(self, tmp_path):
        # A shadow tree whose import explodes must come back as a report,
        # not an exception — the mutation loop records it and moves on.
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "__init__.py").write_text(
            "raise ImportError('mutant broke the world')\n"
        )
        report = hunt_schedule(
            tmp_path, "paper:ct:none:n2p1q1:s0", mode="delay", bound=1,
            max_runs=100,
        )
        assert report["ok"] is False
        assert report["findings"] == []
        assert "mutant broke the world" in report["error"]
