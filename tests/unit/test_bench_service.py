"""The service benchmark records one window's server stats, not the
server's whole life: ``_window_stats`` subtracts the snapshot taken at a
window's start from the one taken at its end.  Its tracing-off check reads
the server's cost per request from such a window."""

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


def _server_stats(execute_ms, serialize_ms, reply_ms, count=1_000):
    """A window's stats whose requests took these mean stage times."""
    def stage(mean):
        return {
            "bounds": [1.0], "bucket_counts": [count, 0], "sum": mean * count,
            "count": count, "min": None, "max": None,
        }

    return {"histograms": {
        "service.execute_ms": stage(execute_ms),
        "service.serialize_ms": stage(serialize_ms),
        "service.reply_ms": stage(reply_ms),
        "service.queue_wait_ms": stage(50.0),
    }}


class TestTracingOffCheck:
    """The ≤5 % check compares the server's own cost per request, which an
    open-loop window's goodput (its offered rate, below capacity) cannot
    show: the same window served 10 % slower has the same goodput."""

    PRIOR = _server_stats(0.80, 0.002, 0.25)
    SLOWER = _server_stats(0.88, 0.0022, 0.275)

    def test_a_ten_percent_slower_server_fails_under_baseline(self):
        ratio, problems = _load_bench()._tracing_off_check(self.SLOWER, self.PRIOR, True)
        assert abs(ratio - 1.10) < 1e-9
        assert len(problems) == 1 and "beyond 5%" in problems[0]

    def test_advisory_without_baseline(self):
        ratio, problems = _load_bench()._tracing_off_check(self.SLOWER, self.PRIOR, False)
        assert ratio > 1.05 and problems == []

    def test_queue_wait_is_not_server_cost(self):
        bench = _load_bench()
        assert abs(bench._server_ms_per_request(self.PRIOR) - 1.052) < 1e-9
        ratio, problems = bench._tracing_off_check(self.PRIOR, self.PRIOR, True)
        assert ratio == 1.0 and problems == []

    def test_no_prior_recording_no_ratio(self):
        bench = _load_bench()
        assert bench._tracing_off_check(self.SLOWER, None, True) == (None, [])
        assert bench._tracing_off_check(self.SLOWER, {"counters": {}}, True) == (None, [])
