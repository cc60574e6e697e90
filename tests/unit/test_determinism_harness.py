"""Determinism harness machinery: the pin scanner and replay rounds.

The cheap parts (static scanning of ``tests/regressions/``, round
configuration) run at tier-1.  The actual 5x fresh-interpreter replay of
every pinned repro is minutes of subprocess work and runs at tier-2:

    REPRO_TIER2=1 PYTHONPATH=src python -m pytest tests/unit/test_determinism_harness.py

(or directly: ``python benchmarks/determinism_harness.py``).
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"

TIER2 = pytest.mark.skipif(
    not os.environ.get("REPRO_TIER2"),
    reason="fresh-interpreter replay rounds; set REPRO_TIER2=1 to run",
)


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "determinism_harness_under_test", BENCH_DIR / "determinism_harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_scanner_finds_the_pinned_regressions() -> None:
    mod = _load_module()
    pins = mod.pinned_cells()
    assert pins, "tests/regressions/ must hold at least one pinned repro"
    modules = [module for module, _, _ in pins]
    assert "test_ct_ack_before_have_nested.py" in modules
    for _, cell, minimized in pins:
        assert cell.startswith("paper:")
        assert minimized.startswith(("ch:", "rw:", "delay:"))


def test_scanner_is_static_and_selective(tmp_path) -> None:
    mod = _load_module()
    # A pin: module-level string constants CELL and MINIMIZED.
    (tmp_path / "test_pinned.py").write_text(
        textwrap.dedent(
            '''
            CELL = "paper:ct:none:n3p1q1:s0"
            MINIMIZED = "ch:6=1"
            '''
        )
    )
    # Not pins: missing constant, non-string value, computed value, and a
    # module whose import would explode (the scanner must never execute).
    (tmp_path / "test_partial.py").write_text('CELL = "paper:x"\n')
    (tmp_path / "test_nonstring.py").write_text("CELL = 1\nMINIMIZED = 2\n")
    (tmp_path / "test_computed.py").write_text(
        'CELL = "a" + "b"\nMINIMIZED = "ch:0=0"\n'
    )
    (tmp_path / "test_bomb.py").write_text(
        'CELL = "paper:ct:none:n3p1q1:s0"\nMINIMIZED = "ch:6=1"\n'
        'raise RuntimeError("scanner executed test code")\n'
    )
    pins = mod.pinned_cells(tmp_path)
    assert [(m, c, s) for m, c, s in pins] == [
        ("test_bomb.py", "paper:ct:none:n3p1q1:s0", "ch:6=1"),
        ("test_pinned.py", "paper:ct:none:n3p1q1:s0", "ch:6=1"),
    ]


def test_rounds_vary_both_axes() -> None:
    mod = _load_module()
    assert len(mod.ROUNDS) == 5
    assert len({seed for seed, _ in mod.ROUNDS}) >= 4
    assert {workers for _, workers in mod.ROUNDS} == {1, 2}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform lacks fork",
)
def test_two_worker_round_replays_outside_the_interpreter() -> None:
    # The round exists to carry a pinned repro across a process boundary;
    # a map of one item never forks, so the harness maps two.
    mod = _load_module()
    _, cell, schedule = mod.pinned_cells()[0]
    pooled = mod.replay_once(cell, schedule, hash_seed=42, workers=2)
    assert len(pooled["replay_pids"]) == 2
    assert pooled["parent_pid"] not in pooled["replay_pids"]
    in_process = mod.replay_once(cell, schedule, hash_seed=0, workers=1)
    assert set(in_process["replay_pids"]) == {in_process["parent_pid"]}
    assert pooled["lines"] == in_process["lines"]
    assert [line["schedule"] for line in pooled["lines"]] == [schedule, "fifo"]


@TIER2
def test_pinned_repros_replay_identically_across_interpreters() -> None:
    mod = _load_module()
    pins = mod.pinned_cells()
    for module, cell, schedule in pins:
        record = mod.check_pin(module, cell, schedule, repeats=len(mod.ROUNDS))
        assert record["deterministic"], (
            f"{module}: pinned repro drifted across interpreters:\n"
            + "\n".join(record["distinct_lines"])
        )
