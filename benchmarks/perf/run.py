"""The repo's performance benchmark: one process, one thread, three closed-loop
workloads.  See README.md; BENCHMARK.json declares the metric names and units.

    python3 benchmarks/perf/run.py --workload sim_large --seed 1 --seconds 30 --trace 0
    python3 benchmarks/perf/run.py --aa 3          # same-code A/A spread table
"""

import time

T0 = time.perf_counter()  # set-up time starts before anything of repro is imported

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T0
SETUPS = 3  # set-ups per run; the median is reported
clock = time.perf_counter


def cpu_seconds() -> float:
    """This process plus reaped children: equals wall today, parts from it
    as soon as a later change adds threads or processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


async def timed_batches(w, seconds: float, profile=None):
    """Closed loop: equal batches until ``seconds`` are used up (at least 2)."""
    walls, latencies, cpu = [], [], 0.0
    end = clock() + seconds
    index = 1
    while len(walls) < 2 or clock() < end:
        if profile:
            profile.enable()
        cpu0, start = cpu_seconds(), clock()
        batch = await w.batch(index)
        walls.append(clock() - start)
        cpu += cpu_seconds() - cpu0
        if profile:
            profile.disable()
        latencies += batch
        w.check()
        index += 1
    return walls, latencies, cpu


async def profiled_calls(w) -> float:
    """``call`` + ``c_call`` profile events per action over batches 0, -1, ..,
    whose inputs depend on the seed alone: the work signal that the host's
    speed cannot move."""
    profile = cProfile.Profile()
    for index in range(w.profile_batches):
        profile.enable()
        await w.batch(-index)
        profile.disable()
        w.check()
    calls = sum(entry.callcount for entry in profile.getstats())
    return calls / (w.profile_batches * w.batch_size)


def set_up_and_run(name: str, seed: int, body, setups_wanted: int = 1):
    """Set the workload up ``setups_wanted`` times; run ``body(w)`` on the last."""
    setups, out = [], None
    for attempt in range(setups_wanted):
        start = clock()
        w = WORKLOADS[name](seed)

        async def main():
            setups.append(clock() - start)
            if attempt == setups_wanted - 1:
                gc.collect()
                return await body(w)

        out = w.run(main)
    return w, IMPORT_S + statistics.median(setups), out


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    async def body(w):
        walls, latencies, cpu = await timed_batches(w, seconds)
        return {
            "actions_per_s": layers.median_batch_rate(w.batch_size, walls),
            "action_ms_p50": statistics.median(latencies) * 1000,
            "cpu_ms_per_action": cpu * 1000 / len(latencies),
            "py_calls_per_action": await profiled_calls(w),
        }, len(latencies) + w.profile_batches * w.batch_size

    w, setup_s, (metrics, attempted) = set_up_and_run(name, seed, body, SETUPS)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result(w, attempted, metrics, "end_to_end")


def per_layer(name: str, seed: int, seconds: float) -> dict:
    """The short traced run: a few plain batches, the same batches again under
    cProfile, then the workload's own spans, counters and micro-probes."""

    async def body(w):
        before = w.server.stats_snapshot() if w.server else None
        walls, latencies, _ = await timed_batches(w, min(seconds, 10) / 4)
        after = w.server.stats_snapshot() if w.server else None
        profile = cProfile.Profile()
        traced_walls, _, _ = await timed_batches(w, 0, profile=profile)
        metrics = layers.group_profile(
            profile.getstats(), len(traced_walls) * w.batch_size
        )
        metrics.update(w.extras())
        metrics.update(w.counters)
        wall = statistics.median(walls)
        if before:
            metrics.update(layers.stage_means(before, after))
            metrics["service.overhead_share"] = 1 - (
                metrics["service.inproc_execute_ms_mean"] * w.batch_size / (wall * 1000)
            )
        percentile, value, count = layers.tail(latencies)
        print(f"tail: p{percentile:g} = {value * 1000:.3f} ms over {count} actions")
        metrics["tail.action_ms"] = value * 1000
        metrics["tail.percentile"] = percentile
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / wall
        return metrics, (len(walls) + len(traced_walls)) * w.batch_size

    w, _, (metrics, attempted) = set_up_and_run(name, seed, body)
    return result(w, attempted, metrics, "per_layer")


def result(w, attempted: int, metrics: dict, section: str) -> dict:
    declared = spec()[section]
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": w.failed == 0,
        "attempted": attempted,
        "failed": w.failed,
        "metrics": {
            # A layer the workload does not exercise reads 0.
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }


def aa_table(k: int, seconds: float) -> None:
    """Two sets of k runs (seeds 1..k, then k+1..2k) of the same code: per
    metric both medians, both quartile spreads as a share of the median, and
    the bound.  In one process, so peak_rss_mb only ever grows."""
    print(f"nproc={os.cpu_count()} python={sys.version.split()[0]} load={os.getloadavg()}")
    for name in WORKLOADS:
        sets = [
            [end_to_end(name, seed, seconds)["metrics"] for seed in range(first, first + k)]
            for first in (1, k + 1)
        ]
        for m in spec()["end_to_end"]:
            cells = []
            for runs in sets:
                values = [run[m["name"]]["value"] for run in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                cells.append(f"{median:12.4f} {(q3 - q1) / median:6.3f}")
            print(f"{name:11} {m['name']:20} {' | '.join(cells)} | bound {m['bound']}")
    print(f"load={os.getloadavg()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, metavar="K", help="A/A table over 2 x K runs")
    args = parser.parse_args(argv)
    if args.aa:
        aa_table(args.aa, args.seconds)
        return 0
    if not args.workload:
        parser.error("--workload or --aa is required")
    run = per_layer if args.trace else end_to_end
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
