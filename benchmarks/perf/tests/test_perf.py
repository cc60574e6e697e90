"""Tests of the benchmark itself.  Not part of tier-1 (its testpaths is
``tests``); run with ``python3 -m pytest benchmarks/perf/tests``."""

import json
import random
import sys
from collections import Counter, namedtuple
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402 — first: it puts src/ on sys.path
import layers  # noqa: E402
import workloads  # noqa: E402

def test_median_batch_rate_ignores_one_slow_batch():
    assert layers.median_batch_rate(10, [1.0, 1.0, 1.0, 9.0, 1.0]) == 10.0
    assert layers.median_batch_rate(500, [0.5, 0.25]) == pytest.approx(500 / 0.375)


@pytest.mark.parametrize("count, percentile, beyond", [
    (5, 50.0, 2), (19, 50.0, 9), (99, 50.0, 49), (100, 90.0, 10),
    (999, 90.0, 99), (1000, 99.0, 10), (10_000, 99.9, 10), (100_000, 99.99, 10),
])
def test_tail_keeps_ten_samples_beyond(count, percentile, beyond):
    samples = list(range(count))
    random.Random(0).shuffle(samples)
    got, value, n = layers.tail(samples)
    assert (got, n) == (percentile, count)
    assert sum(s > value for s in samples) == beyond


def test_profile_rows_group_by_package_and_sum_to_total():
    Code = namedtuple("Code", "co_filename")
    Row = namedtuple("Row", "code callcount inlinetime")
    rows = [
        Row(Code("/x/src/repro/net/network.py"), 10, 0.004),
        Row(Code("/x/src/repro/core/participant.py"), 6, 0.002),
        Row(Code("/x/src/repro/explore/engine.py"), 1, 0.001),  # not a layer
        Row(Code("/usr/lib/python3/json/encoder.py"), 2, 0.001),
        Row("<built-in method builtins.len>", 4, 0.0005),
        Row(Code(layers.HERE + "/workloads.py"), 1, 0.0015),
    ]
    metrics = layers.group_profile(rows, actions=2)
    assert metrics["net.self_ms_per_action"] == pytest.approx(2.0)
    assert metrics["core.calls_per_action"] == 3
    assert metrics["stdlib.calls_per_action"] == 4
    assert metrics["loadgen.client_ms_per_action"] == pytest.approx(0.75)
    self_ms = sum(metrics[f"{layer}.self_ms_per_action"] for layer in layers.LAYERS)
    calls = sum(metrics[f"{layer}.calls_per_action"] for layer in layers.LAYERS)
    assert self_ms == pytest.approx(sum(r.inlinetime for r in rows) * 1000 / 2)
    assert calls == sum(r.callcount for r in rows) / 2


def test_stage_means_are_means_of_the_delta():
    def snapshot(count, total, submitted, shed):
        hist = {"sum": total, "count": count}
        return {
            "histograms": {f"service.{s}_ms": hist for s in
                           ("queue_wait", "execute", "serialize", "reply")},
            "counters": {"service.submitted": submitted, "service.shed": shed},
        }

    means = layers.stage_means(snapshot(100, 50.0, 120, 20), snapshot(300, 250.0, 330, 30))
    assert means["service.execute_ms_mean"] == pytest.approx(1.0)
    assert means["service.shed_per_action"] == pytest.approx(10 / 210)
    assert layers.stage_means(snapshot(1, 1.0, 1, 0), snapshot(1, 1.0, 1, 0)) == dict.fromkeys(means, 0.0)


def test_service_requests_are_one_multiset_for_every_seed():
    sizes = Counter(workloads.SVC_SIZES)
    assert len(workloads.SVC_SIZES) == 125 and min(sizes) == 2 and max(sizes) == 32
    expected = Counter({(v, n): k for v in workloads.SVC_VARIANTS for n, k in sizes.items()})
    for seed in range(1, 11):
        w = workloads.SvcClosed(seed)
        first, second = w.make_requests(0), w.make_requests(1)
        for batch in (first, second):
            assert Counter((r.variant, r.n) for r in batch) == expected
            assert all(1 <= r.p <= max(1, (r.n + 1) // 2) for r in batch)
            assert all(0 <= r.q <= min(2, r.n - r.p) for r in batch)
            assert all(r.q == 0 for r in batch if r.variant == "cd")
        assert first != second and w.make_requests(1) == second


def test_faults_work_barely_depends_on_the_seed():
    calls = []
    for seed in range(1, 11):
        w = workloads.Faults(seed)
        assert [(c.family, c.variant, c.fault, c.n, c.p, c.q) for c in w.cells] == [
            (c.family, c.variant, c.fault, c.n, c.p, c.q)
            for c in workloads.Faults(0).cells]
        calls.append(w.run(lambda w=w: run.profiled_calls(w)))
        assert w.failed == 0
    assert max(calls) / min(calls) < 1.03


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(name, trace, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "2", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = run.spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in out["metrics"].items()}
    if not trace:
        assert all(value["value"] > 0 for value in out["metrics"].values())
    else:
        assert out["metrics"]["core.model_ratio"]["value"] == 1.0
        assert out["metrics"]["service.shed_per_action"]["value"] == 0.0
