"""Per-layer measurement, all from outside ``src/``: estimators, cProfile
rows grouped by source package, ``stats_snapshot()`` deltas, micro-probes.
Layers are named after the packages under ``src/repro/``.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.net.network import Network
from repro.net.reliable import ReliableNetwork
from repro.rt.tcp import decode_frame, encode_frame
from repro.service.protocol import ActionRequest
from repro.simkernel.events import EventQueue
from repro.simkernel.scheduler import Simulator
from repro.simkernel.trace import TraceLevel
from repro.workloads.generator import general_case

clock = time.perf_counter

#: ``stdlib`` takes every row outside these packages (builtins, asyncio,
#: json, this benchmark's own files), so the rows sum to the traced total.
PACKAGES = (
    "simkernel", "net", "core", "exceptions", "objects", "transactions",
    "obs", "workloads", "service", "rt",
)
LAYERS = PACKAGES + ("stdlib",)
HERE = os.path.dirname(os.path.abspath(__file__))


# -- estimators ------------------------------------------------------------------


def median_batch_rate(batch_size: int, batch_walls: list[float]) -> float:
    """Actions per second at the median batch: one slow batch (a host
    hiccup) moves it less than it moves total actions / total time."""
    return batch_size / statistics.median(batch_walls)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest of p50/p90/p99/p99.9/p99.99 (nearest rank) that still has
    at least ten samples beyond it, as (percentile, value, sample count)."""
    ordered = sorted(samples)
    count = len(ordered)
    percentile, best = 50.0, -(-count // 2)
    for per_10k in (9000, 9900, 9990, 9999):
        rank = -(-count * per_10k // 10_000)  # ceil, in whole numbers
        if count - rank >= 10:
            percentile, best = per_10k / 100, rank
    return percentile, ordered[best - 1], count


# -- cProfile rows by package ----------------------------------------------------


def layer_of(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/src/repro/")
    package = parts[-1].split("/")[0] if len(parts) > 1 else ""
    return package if package in PACKAGES else "stdlib"


def group_profile(entries, actions: int) -> dict[str, float]:
    """``cProfile.Profile.getstats()`` rows -> self ms and calls per action
    for each layer, plus the self time of the benchmark's own rows."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    own_s = 0.0
    for entry in entries:
        filename = getattr(entry.code, "co_filename", "")  # builtins: a str
        layer = layer_of(filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        if filename.startswith(HERE):
            own_s += entry.inlinetime
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_action"] = self_s[layer] * 1000 / actions
        metrics[f"{layer}.calls_per_action"] = calls[layer] / actions
    metrics["loadgen.client_ms_per_action"] = own_s * 1000 / actions
    return metrics


# -- service stage means from two stats snapshots ---------------------------------


def stage_means(before: dict, after: dict) -> dict[str, float]:
    metrics = {}
    for stage in ("queue_wait", "execute", "serialize", "reply"):
        name = f"service.{stage}_ms"
        old = before["histograms"].get(name, {"sum": 0.0, "count": 0})
        new = after["histograms"][name]
        count = new["count"] - old["count"]
        metrics[f"{name}_mean"] = (new["sum"] - old["sum"]) / count if count else 0.0
    done = after["counters"]["service.submitted"] - before["counters"]["service.submitted"]
    shed = after["counters"].get("service.shed", 0) - before["counters"].get("service.shed", 0)
    metrics["service.shed_per_action"] = shed / done if done else 0.0
    return metrics


# -- micro-probes (about 0.3 s each) ---------------------------------------------


def probe_queue() -> dict[str, float]:
    count, noop = 100_000, lambda: None
    queue = EventQueue()
    start = clock()
    for i in range(count):
        queue.push((i * 2654435761) % 1_000_003, noop)
    for _ in range(count):
        queue.pop()
    return {"simkernel.queue_push_pop_per_s": 2 * count / (clock() - start)}


def probe_queue_cancel() -> dict[str, float]:
    """The reliable network's pattern: most timers are cancelled, few fire."""
    count, noop = 100_000, lambda: None
    queue = EventQueue()
    events = [queue.push(float(i % 9973), noop) for i in range(count)]
    start = clock()
    for i, event in enumerate(events):
        if i % 10:
            event.cancel()
    while queue.pop() is not None:
        pass
    return {"simkernel.queue_cancel_per_s": count / (clock() - start)}


def _net_rate(network_class, many: bool, rounds: int) -> float:
    sim = Simulator()
    net = network_class(sim)
    names = [f"e{i}" for i in range(64)]
    delivered = []
    for name in names:
        net.register(name, delivered.append)
    start = clock()
    for _ in range(rounds):
        if many:
            net.send_many(names[0], names[1:], "probe")
        else:
            for dst in names[1:]:
                net.send(names[0], dst, "probe")
    sim.run()
    return len(delivered) / (clock() - start)


def probe_net() -> dict[str, float]:
    return {
        "net.send_deliver_per_s": _net_rate(Network, False, 1000),
        "net.send_many_per_s": _net_rate(Network, True, 1000),
    }


def probe_reliable_net() -> dict[str, float]:
    return {"net.reliable_send_deliver_per_s": _net_rate(ReliableNetwork, False, 200)}


def _action_seconds(n: int, level) -> tuple[float, int]:
    start = clock()
    result = general_case(n, n // 2, n // 4, trace_level=level).run()
    return clock() - start, result.runtime.sim.events_executed


def probe_core() -> dict[str, float]:
    metrics = {}
    for n, repeats in ((64, 5), (128, 2), (256, 1)):
        runs = [_action_seconds(n, TraceLevel.COUNTS) for _ in range(repeats)]
        metrics[f"core.events_per_s.n{n}"] = (
            runs[0][1] / statistics.median(seconds for seconds, _ in runs)
        )
    return metrics


def probe_obs() -> dict[str, float]:
    full, counts = (
        statistics.median(_action_seconds(64, level)[0] for _ in range(3))
        for level in (TraceLevel.FULL, TraceLevel.COUNTS)
    )
    return {"obs.full_over_counts_ratio": full / counts}


def probe_codec() -> dict[str, float]:
    header = ActionRequest(id=123456, variant="base", n=8, p=3, q=2, seed=987654321).to_header()
    body = encode_frame(header)[4:]  # decode_frame takes the body, no length prefix
    count = 20_000
    start = clock()
    for _ in range(count):
        encode_frame(header)
    encoded = clock()
    for _ in range(count):
        decode_frame(body)
    return {
        "rt.encode_frame_us": (encoded - start) * 1e6 / count,
        "rt.decode_frame_us": (clock() - encoded) * 1e6 / count,
    }
