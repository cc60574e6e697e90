"""The paired A/B tool's interval of the median pair ratio.

``benchmarks/ab.py`` reports, beside each row's sign test, a seeded
percentile-bootstrap interval of the median ratio at the sign test's
level (99 %).  These pin the interval's arithmetic without timing
anything.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_module():
    spec = importlib.util.spec_from_file_location("ab_under_test", BENCH_DIR / "ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


AB = _load_module()
#: Twenty pair ratios around 1.0, as an A/A run reads them.
RATIOS = [1 + (-1) ** i * 0.01 * (i % 7) for i in range(20)]


def test_the_interval_is_seeded_and_brackets_the_median():
    low, high = AB.median_interval(RATIOS)
    assert (low, high) == AB.median_interval(RATIOS)
    assert min(RATIOS) <= low <= AB.statistics.median(RATIOS) <= high <= max(RATIOS)
    assert low <= 1 <= high


def test_the_interval_scales_with_the_ratios():
    # The same seeded draws pick the same pairs, so a +10 % change in every
    # pair moves both ends by exactly that factor and leaves 1.0 outside.
    low, high = AB.median_interval(RATIOS)
    slow_low, slow_high = AB.median_interval([r * 1.10 for r in RATIOS])
    assert (slow_low, slow_high) == pytest.approx((low * 1.10, high * 1.10))
    assert slow_low > 1


def test_a_row_carries_the_interval():
    row = AB.summarize("faults", RATIOS)
    assert (row["ci_low"], row["ci_high"]) == AB.median_interval(RATIOS)
    assert "99 % interval of the median" in AB.render([row])
