"""Perf-regression gate: the same-machine N-scaling invariant of ``check()``."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"


@pytest.fixture()
def gate(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perf_regression_check_under_test", BENCH_DIR / "perf_regression_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _payload(ratio: float | None) -> dict:
    payload = {
        "throughput": {
            "full": {"n": 32, "events_per_sec": 200_000},
            "counts": {"n": 32, "events_per_sec": 230_000},
        },
    }
    if ratio is not None:
        payload["n_scaling"] = {"ratio": ratio}
    return payload


def _remeasure(gate, monkeypatch, ratios: list[float]) -> list[float]:
    calls: list[float] = []

    def fake() -> float:
        calls.append(ratios[len(calls)])
        return calls[-1]

    monkeypatch.setattr(gate, "_remeasure_n_scaling", fake)
    return calls


def test_n_scaling_at_or_above_floor_passes_without_remeasuring(gate, monkeypatch):
    calls = _remeasure(gate, monkeypatch, [])
    assert gate.check(_payload(None), _payload(1.05), 0.30) == []
    assert gate.check(_payload(None), _payload(gate.N_SCALING_FLOOR), 0.30) == []
    assert calls == []


def test_sustained_n_scaling_shortfall_fails(gate, monkeypatch):
    calls = _remeasure(gate, monkeypatch, [0.88])
    problems = gate.check(_payload(1.05), _payload(0.86), 0.30)
    assert calls == [0.88]
    assert len(problems) == 1
    assert "N-scaling" in problems[0] and "0.86" in problems[0] and "0.88" in problems[0]


def test_n_scaling_shortfall_recovered_on_retry_passes(gate, monkeypatch):
    calls = _remeasure(gate, monkeypatch, [1.02])
    assert gate.check(_payload(1.05), _payload(0.90), 0.30) == []
    assert calls == [1.02]


def test_payload_without_n_scaling_section_is_not_gated(gate, monkeypatch):
    """Recorded baselines that predate the invariant still load."""
    calls = _remeasure(gate, monkeypatch, [])
    assert gate.check(_payload(None), _payload(None), 0.30) == []
    assert calls == []
