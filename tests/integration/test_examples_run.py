"""Smoke tests: every example program must run clean end to end.

Examples are part of the public deliverable; breaking one is a release
blocker, so they run under pytest too (as subprocesses, the way a user
would run them).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

EXPECTED_MARKERS = {
    "quickstart.py": "handlers executed:",
    "aircraft_engines.py": "EmergencyEngineLoss",
    "banking_transfers.py": "rolled back",
    "production_cell.py": "SafetyLightInterrupted",
    "conversation_rollback.py": "accepted: True",
    "paper_example2_walkthrough.py": "(N-1)(2P+3Q+1) = 3*(2+9+1) = 36",
    "warehouse_competition.py": "StockContention",
}


def run_example(path: Path) -> str:
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, (
        f"{path.name} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
    )
    return completed.stdout


class TestExamplePrograms:
    def test_all_examples_are_covered_here(self):
        assert {p.name for p in EXAMPLES} == set(EXPECTED_MARKERS)

    @pytest.mark.parametrize(
        "example", EXAMPLES, ids=[p.name for p in EXAMPLES]
    )
    def test_example_runs_and_prints_its_story(self, example):
        stdout = run_example(example)
        assert EXPECTED_MARKERS[example.name] in stdout
