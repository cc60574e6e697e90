"""The service benchmark records one window's server stats, not the
server's whole life: ``_window_stats`` subtracts the snapshot taken at a
window's start from the one taken at its end."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_service.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_service_under_test", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(accepted, buckets, total_ms, admit_rate, low, high):
    return {
        "counters": {"service.accepted": accepted},
        "gauges": {"service.admit_rate": admit_rate},
        "histograms": {
            "service.queue_wait_ms": {
                "bounds": [1.0, 10.0],
                "bucket_counts": buckets,
                "sum": total_ms,
                "count": sum(buckets),
                "min": low,
                "max": high,
            },
        },
    }


#: A warm-up served 5 requests, then the window 7 more.
START = _snapshot(5, [3, 2, 0], 12.0, 800.0, 0.2, 8.0)
END = _snapshot(12, [4, 6, 2], 90.0, 20_000.0, 0.2, 40.0)


class TestWindowStats:
    def test_counters_and_histograms_are_end_minus_start(self):
        window = _load_bench()._window_stats(END, START)
        assert window["counters"] == {"service.accepted": 7}
        wait = window["histograms"]["service.queue_wait_ms"]
        assert wait["bucket_counts"] == [1, 4, 2]
        assert wait["count"] == 7
        assert wait["sum"] == 78.0
        assert wait["bounds"] == [1.0, 10.0]

    def test_gauges_read_at_the_end_and_extremes_unknown(self):
        window = _load_bench()._window_stats(END, START)
        assert window["gauges"] == {"service.admit_rate": 20_000.0}
        wait = window["histograms"]["service.queue_wait_ms"]
        assert wait["min"] is None
        assert wait["max"] == 40.0

    def test_the_window_breakdown_counts_the_window_only(self):
        bench = _load_bench()
        breakdown = bench._stage_breakdown(bench._window_stats(END, START))
        assert breakdown["queue_wait"]["count"] == 7
        assert bench._stage_breakdown(END)["queue_wait"]["count"] == 12

    def test_without_a_start_the_window_is_the_whole_life(self):
        bench = _load_bench()
        assert bench._window_stats(END, None) is END
        assert bench._window_stats(None, START) is None
