"""E26/E27 — the resolution service under open-loop load, and its tracing.

Starts the ``repro service serve`` server as a *subprocess* (real process
isolation: the loadgen's Python runtime never shares the GIL with the
server it measures) and drives it with the open-loop generator:

1. **Sustained phase (E26)** — a warm-up burst warms the server's lazy
   imports, then a measured window at the offered rate.  The
   acceptance floor is ``--floor`` completed actions/sec (default 500)
   with p50/p99 resolution latency reported.
2. **Overload ramp (E26)** — stepwise-increasing offered rates far past
   capacity.  Healthy behaviour: ``OVERLOADED`` replies appear (shedding
   engages) while goodput *never collapses to zero* — the server keeps
   completing admitted work at its service rate.
3. **Tracing (E27)** — a fresh server with a flight-recorder dump
   directory serves one traced window at 1× the sustained rate and one at
   8× (forced overload).  Records the per-stage latency breakdown
   (queue-wait / execute / serialize / reply p50+p99, from the server's
   histograms via :func:`histogram_quantile`), verifies the shed-triggered
   flight dump is valid Chrome trace JSON, and compares the server's own
   cost per request in the E26 tracing-off sustained window (mean execute
   + serialize + reply ms) against the previously recorded one — the
   tracing machinery must cost ≤5% when off (hard-gated only under
   ``--baseline``; always recorded).  Open-loop goodput cannot show this:
   at an offered rate below capacity it equals that rate whatever each
   request costs.

Writes ``BENCH_service.json`` (with a ``machine`` block: CPU count,
usable CPUs, Python version, kernel release) and
``benchmarks/results/E26.txt`` / ``E27.txt``; flight dumps land in
``benchmarks/results/flight-e27/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from _harness import machine, record_table  # noqa: E402

from repro.obs.export import validate_chrome_trace  # noqa: E402
from repro.obs.metrics import histogram_quantile  # noqa: E402
from repro.service import (  # noqa: E402
    LoadSpec,
    request_shutdown,
    run_load,
)

REPO_ROOT = Path(__file__).parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_service.json"

_LISTEN_RE = re.compile(r"service listening on ([\d.]+):(\d+)")


class ServerProcess:
    """The server as a child process, port discovered from its stdout."""

    def __init__(
        self,
        budget_seconds: float,
        queue_limit: int = 2048,
        extra_args: list[str] | None = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "service", "serve",
                "--port", "0", "--max-seconds", str(budget_seconds),
                "--queue-limit", str(queue_limit),
                *(extra_args or []),
            ],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.host, self.port = self._await_listening()

    def _await_listening(self, timeout: float = 30.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before listening (rc={self.proc.poll()})"
                )
            match = _LISTEN_RE.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server never announced its port")

    def stop(self) -> int:
        """Graceful shutdown if possible, SIGKILL as the backstop."""
        if self.proc.poll() is None:
            try:
                request_shutdown(self.host, self.port)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        return self.proc.returncode


def _round_trip(report) -> dict:
    payload = report.to_payload()
    lat = payload["latency_ms"]
    payload["latency_ms"] = {
        k: (round(v, 2) if v is not None else None) for k, v in lat.items()
    }
    return payload


#: Per-request wall-clock stage histograms the server publishes (ms).
STAGE_HISTOGRAMS = ("latency", "queue_wait", "execute", "serialize", "reply")


def _window_stats(end: dict, start: dict | None) -> dict:
    """The server's stats over the window between two snapshots.

    Counters and histograms are cumulative from server start, so each is
    taken as ``end`` minus ``start`` (histograms bucket by bucket, the
    same trick the server's own p99-budget check uses); gauges are read
    at ``end``.  The window's histogram extremes are unknown: ``min`` is
    dropped (quantiles skip that clamp) and ``max`` stays the cumulative
    one.  Without ``start`` the window is everything since server start.
    """
    if not (start and end):
        return end
    counters = start.get("counters", {})
    histograms = start.get("histograms", {})
    window = {
        "counters": {
            name: value - counters.get(name, 0)
            for name, value in end.get("counters", {}).items()
        },
        "gauges": end.get("gauges", {}),
        "histograms": {},
    }
    for name, data in end.get("histograms", {}).items():
        prev = histograms.get(name)
        if prev is not None:
            data = {
                "bounds": data["bounds"],
                "bucket_counts": [
                    a - b
                    for a, b in zip(data["bucket_counts"], prev["bucket_counts"])
                ],
                "sum": data["sum"] - prev["sum"],
                "count": data["count"] - prev["count"],
                "min": None,
                "max": data.get("max"),
            }
        window["histograms"][name] = data
    return window


def _stage_breakdown(snapshot: dict) -> dict:
    """p50/p99 per stage from the server's histograms in ``snapshot``
    (one window's, when it comes from :func:`_window_stats`)."""
    out: dict = {}
    histograms = snapshot.get("histograms", {})
    for stage in STAGE_HISTOGRAMS:
        data = histograms.get(f"service.{stage}_ms")
        if data is None:
            continue
        out[stage] = {
            "count": data["count"],
            "p50_ms": histogram_quantile(data, 0.50),
            "p99_ms": histogram_quantile(data, 0.99),
        }
    return out


#: The stages a request spends in the server's own code.
SERVER_STAGES = ("execute", "serialize", "reply")


def _server_ms_per_request(stats: dict | None) -> float | None:
    """The server's mean cost per request over one window's stats: the sum
    of the ``SERVER_STAGES`` histograms' ``sum / count``."""
    histograms = (stats or {}).get("histograms", {})
    total = 0.0
    for stage in SERVER_STAGES:
        data = histograms.get(f"service.{stage}_ms")
        if not data or not data.get("count"):
            return None
        total += data["sum"] / data["count"]
    return total


def _prior_server_stats(out_path: Path) -> dict | None:
    """The previously recorded sustained window's server stats (the ≤5%
    reference)."""
    try:
        return json.loads(out_path.read_text()).get("server_stats")
    except (OSError, ValueError, AttributeError):
        return None


def _tracing_off_check(
    stats: dict | None, prior_stats: dict | None, gated: bool
) -> tuple[float | None, list[str]]:
    """This window's server cost per request over the prior recording's:
    the ratio (``None`` without both) and, when ``gated``, a problem if
    the server got more than 5 % slower."""
    now, prior = _server_ms_per_request(stats), _server_ms_per_request(prior_stats)
    if now is None or not prior:
        return None, []
    ratio = now / prior
    line = (
        f"tracing-off server cost {now:.4f} ms/request vs prior "
        f"{prior:.4f} ms/request (ratio {ratio:.3f})"
    )
    print(line)
    if gated and ratio > 1.05:
        return ratio, [f"tracing-off overhead beyond 5%: {line}"]
    return ratio, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short windows for CI (same assertions)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--floor", type=float, default=500.0,
                        help="minimum sustained completed actions/sec")
    parser.add_argument("--rate", type=float, default=800.0,
                        help="sustained-phase offered rate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="hard-gate the tracing-off ≤5%% overhead check "
                             "against the previously recorded server cost "
                             "per request (always measured and recorded)")
    args = parser.parse_args(argv)

    # Read the reference *before* this run overwrites the output file.
    prior_stats = _prior_server_stats(args.out)

    sustain_secs = 5.0 if args.smoke else 15.0
    ramp_secs = 2.0 if args.smoke else 4.0
    ramp_rates = (400.0, 1600.0, 4000.0) if args.smoke else (
        400.0, 800.0, 1600.0, 3200.0, 6400.0
    )
    budget = 60.0 + sustain_secs + ramp_secs * len(ramp_rates) * 3

    server = ServerProcess(budget_seconds=budget)
    print(f"server subprocess pid={server.proc.pid} "
          f"on {server.host}:{server.port}")
    problems: list[str] = []
    try:
        # Warm-up: the first requests pay for the server's lazy imports
        # (not measured).  Its closing stats snapshot opens the sustained
        # window, so the recorded server stats count that window alone.
        warmup = run_load(server.host, server.port, LoadSpec(
            rate=args.rate, duration=2.0, seed=args.seed + 999,
            drain_seconds=3.0,
        ), fetch_stats=True)

        sustained = run_load(server.host, server.port, LoadSpec(
            rate=args.rate, duration=sustain_secs, seed=args.seed,
            drain_seconds=8.0,
        ), fetch_stats=True)
        if sustained.goodput < args.floor:
            problems.append(
                f"sustained goodput {sustained.goodput:.0f}/s "
                f"below floor {args.floor:.0f}/s"
            )
        if sustained.errors:
            problems.append(f"{sustained.errors} error replies in sustained phase")

        ramp = []
        for rate in ramp_rates:
            report = run_load(server.host, server.port, LoadSpec(
                rate=rate, duration=ramp_secs, seed=args.seed + int(rate),
                drain_seconds=4.0,
            ))
            ramp.append(report)
            if report.goodput <= 0:
                problems.append(f"goodput collapsed to zero at {rate:.0f}/s")
            if report.errors:
                problems.append(f"{report.errors} error replies at {rate:.0f}/s")
        if not any(r.shed for r in ramp):
            problems.append(
                "overload ramp never shed (no OVERLOADED replies) — "
                "admission control did not engage"
            )
    finally:
        rc = server.stop()
    if rc != 0:
        problems.append(f"server exited rc={rc}")

    # -- E27: tracing on the live path ---------------------------------------------

    trace_secs = 3.0 if args.smoke else 8.0
    overload_secs = 2.0 if args.smoke else 4.0
    flight_dir = REPO_ROOT / "benchmarks" / "results" / "flight-e27"
    if flight_dir.exists():
        for stale in flight_dir.iterdir():
            stale.unlink()
    trace_server = ServerProcess(
        budget_seconds=60.0 + trace_secs + overload_secs,
        extra_args=["--flight-dir", str(flight_dir)],
    )
    print(f"trace server subprocess pid={trace_server.proc.pid} "
          f"on {trace_server.host}:{trace_server.port}")
    try:
        traced_1x = run_load(trace_server.host, trace_server.port, LoadSpec(
            rate=args.rate, duration=trace_secs, seed=args.seed + 27,
            drain_seconds=6.0, trace=True, engine_trace_every=200,
        ), fetch_stats=True)
        traced_8x = run_load(trace_server.host, trace_server.port, LoadSpec(
            rate=args.rate * 8, duration=overload_secs, seed=args.seed + 28,
            drain_seconds=4.0, trace=True,
        ), fetch_stats=True)
    finally:
        trace_rc = trace_server.stop()
    if trace_rc != 0:
        problems.append(f"trace server exited rc={trace_rc}")

    breakdown_1x = _stage_breakdown(traced_1x.server_stats or {})
    breakdown_8x = _stage_breakdown(
        _window_stats(traced_8x.server_stats or {}, traced_1x.server_stats)
    )
    if traced_1x.completed == 0:
        problems.append("traced 1x window completed nothing")
    mismatches = traced_1x.trace_mismatches + traced_8x.trace_mismatches
    if mismatches:
        problems.append(f"{mismatches} trace-id mismatches — cross-linked traces")
    if traced_1x.spans is not None and traced_1x.spans.forest_problems():
        problems.append(
            f"client span forest corrupt: "
            f"{traced_1x.spans.forest_problems()[:2]}"
        )
    if traced_8x.shed == 0:
        problems.append("8x overload window never shed — no dump trigger")
    flight_dumps = sorted(flight_dir.glob("*.trace.json"))
    if not flight_dumps:
        problems.append("shed storm produced no flight-recorder dump")
    for dump in flight_dumps:
        dump_problems = validate_chrome_trace(json.loads(dump.read_text()))
        if dump_problems:
            problems.append(f"{dump.name} invalid: {dump_problems[:2]}")

    # Tracing-off overhead: this run's untraced sustained server cost per
    # request vs the previously recorded one.  Advisory unless --baseline
    # (shared CI boxes are noisy); the ratio is always recorded.
    sustained_stats = _window_stats(sustained.server_stats, warmup.server_stats)
    overhead_ratio, overhead_problems = _tracing_off_check(
        sustained_stats, prior_stats, args.baseline
    )
    problems += overhead_problems

    def fmt_ms(value) -> str:
        return f"{value:.1f}" if value is not None else "n/a"

    rows = [[
        "sustained", f"{args.rate:.0f}", sustained.submitted,
        sustained.completed, sustained.shed,
        f"{sustained.goodput:.0f}", fmt_ms(sustained.percentile(0.50)),
        fmt_ms(sustained.percentile(0.99)),
    ]]
    for rate, report in zip(ramp_rates, ramp):
        rows.append([
            "ramp", f"{rate:.0f}", report.submitted, report.completed,
            report.shed, f"{report.goodput:.0f}",
            fmt_ms(report.percentile(0.50)), fmt_ms(report.percentile(0.99)),
        ])
    record_table(
        "E26", "Resolution service under open-loop load",
        ["phase", "offered/s", "submitted", "completed", "shed",
         "goodput/s", "p50 ms", "p99 ms"],
        rows,
        notes=(
            f"floor={args.floor:.0f}/s; shedding must engage on the ramp "
            "with goodput > 0 at every step"
            + (f"; PROBLEMS: {problems}" if problems else "; all checks passed")
        ),
        persist=args.out == DEFAULT_OUT,
    )

    e27_rows = []
    for label, breakdown in (("1x", breakdown_1x), ("8x", breakdown_8x)):
        for stage in STAGE_HISTOGRAMS:
            data = breakdown.get(stage)
            if data is None:
                continue
            e27_rows.append([
                label, stage, data["count"],
                fmt_ms(data["p50_ms"]), fmt_ms(data["p99_ms"]),
            ])
    record_table(
        "E27", "Distributed tracing: per-stage latency breakdown",
        ["load", "stage", "count", "p50 ms", "p99 ms"],
        e27_rows,
        notes=(
            f"traced goodput {traced_1x.goodput:.0f}/s at 1x, "
            f"{traced_8x.goodput:.0f}/s at 8x (shed {traced_8x.shed}); "
            f"{len(flight_dumps)} flight dump(s) in {flight_dir.name}/; "
            + (
                f"tracing-off server cost ratio vs prior {overhead_ratio:.3f}"
                if overhead_ratio is not None
                else "no prior baseline for the tracing-off comparison"
            )
        ),
        persist=args.out == DEFAULT_OUT,
    )

    payload = {
        "experiment": "E26",
        "smoke": args.smoke,
        "floor": args.floor,
        "machine": {**machine(), "kernel": platform.release()},
        "ok": not problems,
        "problems": problems,
        "sustained": _round_trip(sustained),
        "overload_ramp": [
            {"offered_rate": rate, **_round_trip(report)}
            for rate, report in zip(ramp_rates, ramp)
        ],
        "server_stats": sustained_stats,
        "tracing": {
            "experiment": "E27",
            "traced_1x": _round_trip(traced_1x),
            "traced_8x": _round_trip(traced_8x),
            "breakdown_1x": breakdown_1x,
            "breakdown_8x": breakdown_8x,
            "flight_dumps": [p.name for p in flight_dumps],
            "server_ms_per_request": _server_ms_per_request(sustained_stats),
            "prior_server_ms_per_request": _server_ms_per_request(prior_stats),
            "tracing_off_cost_ratio": (
                round(overhead_ratio, 4) if overhead_ratio is not None else None
            ),
            "baseline_gated": args.baseline,
        },
    }
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
