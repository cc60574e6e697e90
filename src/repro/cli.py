"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``formulas N P Q`` — print the Section 4.4 closed-form predictions;
* ``run N P Q``      — simulate one workload and compare with the model;
* ``chart {example1,example2,figure3}`` — replay a worked example and
  render its message-sequence chart;
* ``compare``        — the new algorithm vs the CR baseline (O(N²) vs O(N³));
* ``report``         — rerun every experiment of the registry
  (:mod:`repro.analysis.report`, the committed ``benchmarks/results``
  tables) and print one markdown report; exits 1 if a check fails;
* ``fuzz``           — random nested-scenario invariant checking;
* ``trace``          — run a scenario and export its causal span forest
  (plain tree, JSONL, or Chrome trace-event JSON for Perfetto);
* ``metrics``        — run a scenario and print its metrics registry;
* ``explore``        — schedule-space exploration of a campaign cell
  (exhaustive DFS / random walks / delay-bounded), or replay of one
  schedule string from a counterexample;
* ``rt``             — the real-concurrency backend: ``rt conformance``
  runs the sim-vs-asyncio digest comparison, ``rt run`` executes one
  campaign cell on a chosen backend (optionally over localhost TCP),
  ``rt hub`` serves a standalone frame-routing hub for multi-process
  experiments;
* ``service``        — the resolution service: ``service serve`` runs the
  long-running CA-action resolution server (bounded admission, slow-start
  token bucket, OVERLOADED shedding, live stats endpoint),
  ``service load`` drives it with open-loop Poisson/bursty traffic and
  prints goodput, shed counts and latency percentiles.

``benchmarks/experiments.py`` rewrites the committed tables from the same
registry; this CLI is the quick, dependency-free way to poke at the system.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.variants import SERVABLE


def cmd_formulas(args: argparse.Namespace) -> int:
    from repro.analysis import (
        general_messages,
        multicast_operations,
        resolver_group_messages,
    )

    n, p, q = args.n, args.p, args.q
    print(f"N={n} participants, P={p} raisers, Q={q} nested objects")
    print(f"  base algorithm      (N-1)(2P+3Q+1) = {general_messages(n, p, q)}")
    for k in (2, 3):
        print(
            f"  k={k} resolvers       (N-1)(2P+3Q+{k}) = "
            f"{resolver_group_messages(n, p, q, k)}"
        )
    print(f"  multicast variant   N+Q+1 ops       = {multicast_operations(n, p, q)}")
    print(f"  CR baseline         O(N^3) (measured, not closed-form)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import general_messages
    from repro.workloads.generator import general_case

    result = general_case(args.n, args.p, args.q, seed=args.seed).run()
    measured = result.resolution_message_total()
    expected = general_messages(args.n, args.p, args.q)
    print(f"workload: N={args.n} P={args.p} Q={args.q} seed={args.seed}")
    print(f"  resolution messages: {measured} (model {expected})"
          f" {'OK' if measured == expected else 'MISMATCH'}")
    print(f"  per kind: {dict(result.messages_for_action('A1'))}")
    commits = result.commit_entries("A1")
    if commits:
        print(f"  resolver: {commits[0].subject} -> "
              f"{commits[0].details['exception']}")
    print(f"  status: {result.status('A1').value}; "
          f"virtual duration {result.duration:.1f}")
    return 0 if measured == expected else 1


def cmd_chart(args: argparse.Namespace) -> int:
    from repro.analysis import render_sequence_chart
    from repro.workloads.generator import (
        example1_scenario,
        example2_scenario,
        figure3_scenario,
    )

    scenarios = {
        "example1": (example1_scenario, ["O1", "O2", "O3"]),
        "example2": (example2_scenario, ["O1", "O2", "O3", "O4"]),
        "figure3": (figure3_scenario, ["O0", "O1", "O2", "O3"]),
    }
    factory, lanes = scenarios[args.scenario]
    result = factory().run()
    print(render_sequence_chart(result.runtime.trace, lanes, max_rows=args.rows))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.report import cr_comparison, cr_growth

    rows = cr_comparison(int(x) for x in args.sweep.split(","))
    print(f"{'N':>4} {'CR msgs':>10} {'new msgs':>10} {'ratio':>7}")
    for n, cr, new in rows:
        print(f"{n:>4} {cr:>10} {new:>10} {cr / new:>6.1f}x")
    if len(rows) >= 2:
        cr_fit, new_fit = cr_growth(rows)
        print(
            f"growth: CR ~ N^{cr_fit.exponent:.2f}, "
            f"new ~ N^{new_fit.exponent:.2f} (paper: O(N^3) vs O(N^2))"
        )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.workloads.fuzz import build_random_scenario, check_invariants

    failures = 0
    for seed in range(args.start, args.start + args.count):
        scenario, plan = build_random_scenario(
            seed, n_participants=args.participants, max_depth=args.depth
        )
        try:
            result = scenario.run(max_events=600_000)
            problems = check_invariants(result, plan)
        except Exception as exc:  # report, keep fuzzing
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures += 1
            print(f"FAIL seed={seed}: {problems}")
            print(f"     {plan.describe()}")
        elif args.verbose:
            print(f"ok   seed={seed}: {plan.describe()}")
    print(f"{args.count - failures}/{args.count} scenarios upheld all invariants")
    return 1 if failures else 0


#: Scenarios the observability commands can run.  Worked examples replay
#: the paper's sections; the rest is the N/P/Q workload under each servable
#: variant of the registry — ``base`` under its older name ``general``.
TRACEABLE_SCENARIOS = (
    "example1", "example2", "figure3",
    *("general" if tag == "base" else tag for tag in SERVABLE),
)


def _run_traced_scenario(args: argparse.Namespace):
    """Run the requested scenario at FULL trace; returns its Runtime."""
    name = args.scenario
    if name in ("example1", "example2", "figure3"):
        from repro.workloads import generator

        factory = {
            "example1": generator.example1_scenario,
            "example2": generator.example2_scenario,
            "figure3": generator.figure3_scenario,
        }[name]
        return factory().run().runtime
    from repro.core.variants import VARIANTS, run_action

    variant = "base" if name == "general" else name
    q = args.q if VARIANTS[variant].nests else 0
    return run_action(variant, args.n, args.p, q, seed=args.seed).runtime


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import write_span_artifacts

    runtime = _run_traced_scenario(args)
    spans = runtime.spans
    problems = write_span_artifacts(
        spans, {args.format: args.output or sys.stdout}, runtime.sim.now,
        f"repro:{args.scenario}",
    )
    for problem in problems:
        print(f"span export problem: {problem}", file=sys.stderr)
    if args.output:
        print(
            f"{len(spans)} spans ({args.format}) -> {args.output}"
            + (" [load in Perfetto / chrome://tracing]"
               if args.format == "chrome" else "")
        )
    return 1 if problems else 0


def cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs import metrics_to_text

    runtime = _run_traced_scenario(args)
    snapshot = runtime.metrics_snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(metrics_to_text(snapshot))
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    import json
    from contextlib import nullcontext

    from repro.explore import DigestCache, explore_cell, run_digest
    from repro.explore.engine import DEFAULT_WINDOW, export_schedule_trace

    window = DEFAULT_WINDOW if args.window is None else tuple(args.window)
    if args.schedule is not None:
        # Replay one schedule (the one-line repro from a finding).
        outcome = run_digest(args.cell, args.schedule, window=window)
        payload = {
            "cell": outcome.cell_id,
            "schedule": outcome.schedule,
            "classification": outcome.classification,
            "violations": list(outcome.violations),
            "digest": repr(outcome.digest),
            "choice_points": outcome.choice_points,
            "trace_hash": outcome.trace_hash,
        }
        if args.artifacts:
            paths = export_schedule_trace(
                args.cell, args.schedule, args.artifacts
            )
            payload["artifacts"] = [str(p) for p in paths]
        print(json.dumps(payload, indent=2))
        return 0 if outcome.classification == "OK" else 1

    if args.workers != 1 and args.mode != "random":
        print(
            "--workers applies to --mode random only (dfs and delay "
            "searches are sequential)",
            file=sys.stderr,
        )
        return 2
    with (
        DigestCache(args.cache) if args.cache is not None else nullcontext()
    ) as cache:
        result = explore_cell(
            args.cell,
            mode=args.mode,
            schedules=args.schedules,
            seed=args.seed,
            bound=args.bound,
            max_runs=args.max_runs,
            window=window,
            por=not args.no_por,
            workers=args.workers,
            cache=cache,
        )
    payload = result.to_payload()
    if args.artifacts and result.findings:
        exported = []
        for finding in result.findings:
            exported += [
                str(p)
                for p in export_schedule_trace(
                    args.cell, finding.minimized, args.artifacts
                )
            ]
        payload["artifacts"] = exported
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{payload['cell']} [{payload['mode']}] "
            f"schedules={payload['schedules_run']} pruned={payload['pruned']} "
            f"exhaustive={payload['exhaustive']} "
            f"digests={payload['distinct_digests']}"
        )
        for finding in result.findings:
            print(f"  {finding.classification}: {finding.minimized}")
            for violation in finding.violations:
                print(f"    {violation}")
            print(f"    repro: {finding.repro_command()}")
        if not result.findings:
            print("  all interleavings agree with the FIFO baseline")
    return 0 if result.ok else 1


def cmd_rt_conformance(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.rt import ProtocolHarness, conformance_cells
    from repro.rt.harness import fault_cells

    ns = tuple(int(x) for x in args.ns.split(","))
    backends = tuple(args.backends.split(","))
    harness = ProtocolHarness(backends=backends, time_scale=args.time_scale)
    trace_dir = Path(args.artifacts) if args.artifacts else None
    report = harness.run(
        conformance_cells(ns=ns, seed=args.seed), trace_dir=trace_dir
    )
    fault_report = None
    if args.faults:
        fault_harness = ProtocolHarness(
            backends=("asyncio",), time_scale=args.time_scale
        )
        fault_report = fault_harness.run(
            fault_cells(ns=ns, seed=args.seed), trace_dir=trace_dir
        )
    if args.json:
        payload = {"conformance": report.to_payload()}
        if fault_report is not None:
            payload["faults"] = fault_report.to_payload()
        print(json.dumps(payload, indent=2))
    else:
        for result in report.results:
            verdict = "MATCH" if result.healthy else "DIVERGED"
            runs = " ".join(
                f"{r.backend}={r.classification}" for r in result.runs
            )
            print(f"{verdict:8s} {result.cell.cell_id:42s} {runs}")
        if fault_report is not None:
            for result in fault_report.results:
                run = result.runs[0]
                verdict = "OK" if result.healthy else "BAD"
                print(f"{verdict:8s} {result.cell.cell_id:42s} "
                      f"asyncio={run.classification}")
    ok = report.ok and (fault_report is None or fault_report.ok)
    return 0 if ok else 1


def cmd_rt_run(args: argparse.Namespace) -> int:
    import json

    from repro.rt import ProtocolHarness, tcp_transport
    from repro.rt.harness import cell_horizon, oracle_digest
    from repro.workloads.campaigns import (
        classify_observation,
        observe_cell,
        parse_cell_id,
    )

    cell = parse_cell_id(args.cell)
    if args.tcp:
        if args.backend != "asyncio":
            print("--tcp requires --backend asyncio", file=sys.stderr)
            return 2
        with tcp_transport(time_scale=args.time_scale) as bridges:
            obs = observe_cell(cell, run_until=cell_horizon(cell))
        frames = sum(b.frames_delivered for b in bridges)
    else:
        harness = ProtocolHarness(
            backends=(args.backend,), time_scale=args.time_scale
        )
        run = harness.run_cell(cell, args.backend)
        print(json.dumps(
            {k: list(v) if isinstance(v, tuple) else v
             for k, v in run.digest.items()},
            indent=2,
        ))
        return 0 if run.classification in ("OK", "STALLED-EXPECTED") else 1
    classification, violations = classify_observation(cell, obs)
    digest = oracle_digest(cell, obs, classification, violations)
    digest["tcp_frames"] = frames
    print(json.dumps(
        {k: list(v) if isinstance(v, tuple) else v for k, v in digest.items()},
        indent=2,
    ))
    return 0 if classification in ("OK", "STALLED-EXPECTED") else 1


def cmd_rt_hub(args: argparse.Namespace) -> int:
    import asyncio

    from repro.rt.tcp import TcpHub

    hub = TcpHub(host=args.host, port=args.port)

    async def serve() -> None:
        task = asyncio.ensure_future(hub.serve())
        await hub.ready.wait()
        print(f"hub listening on {hub.host}:{hub.port}")
        await task

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_service_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import ResolutionServer

    server = ResolutionServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        initial_rate=args.initial_rate,
        max_rate=args.max_rate,
        flight_dir=Path(args.flight_dir) if args.flight_dir else None,
        flight_capacity=args.flight_capacity,
        stall_after=args.stall_after,
        p99_budget_ms=args.p99_budget_ms,
    )

    # The listener sets the real port before any request is served; print
    # it as soon as the loop starts so wrappers (benchmarks, CI smoke) can
    # connect to an ephemeral --port 0.
    def announce() -> None:
        if server.ready.is_set():
            print(
                f"service listening on {server.host}:{server.port}",
                flush=True,
            )
        else:
            server.kernel.loop.call_later(0.01, announce)

    server.kernel.loop.call_soon(announce)
    try:
        server.serve_forever(max_seconds=args.max_seconds)
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        # Bind/listen failure (port taken, privileged port, bad address):
        # one line, non-zero exit — not a traceback.
        print(
            f"serve failed on {args.host}:{args.port}: "
            f"{exc.strerror or exc}",
            file=sys.stderr,
        )
        return 1
    finally:
        snapshot = server.stats_snapshot()
        server.close()
    counters = snapshot.get("counters", {})
    print(
        "service stopped: "
        f"completed={counters.get('service.completed', 0)} "
        f"shed={counters.get('service.shed', 0)} "
        f"sessions={counters.get('service.sessions_opened', 0)}"
    )
    return 0


def cmd_service_load(args: argparse.Namespace) -> int:
    import json

    from repro.service import LoadSpec, request_shutdown, run_load

    spec = LoadSpec(
        rate=args.rate,
        duration=args.duration,
        arrivals=args.arrivals,
        connections=args.connections,
        mix=args.mix,
        max_n=args.max_n,
        variant=args.variant,
        seed=args.seed,
        drain_seconds=args.drain,
        trace=args.trace,
        engine_trace_every=args.engine_trace_every,
    )
    try:
        report = run_load(args.host, args.port, spec, fetch_stats=args.stats)
    except (TimeoutError, OSError) as exc:
        # Unreachable/refused/wedged server: a load run that never got off
        # the ground is an error message, not a traceback.
        print(f"service load failed: {exc}", file=sys.stderr)
        return 1
    payload = report.to_payload()
    if args.stats:
        payload["server_stats"] = report.server_stats
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        lat = payload["latency_ms"]

        def ms(value):
            return f"{value:.1f}ms" if value is not None else "n/a"

        print(
            f"offered {args.rate:.0f}/s for {args.duration:.0f}s "
            f"({args.arrivals}, mix={args.mix}, variant={args.variant})"
        )
        print(
            f"  submitted={report.submitted} completed={report.completed} "
            f"shed={report.shed} errors={report.errors} "
            f"unanswered={report.unanswered}"
        )
        print(
            f"  goodput={report.goodput:.1f}/s  latency p50={ms(lat['p50'])} "
            f"p90={ms(lat['p90'])} p99={ms(lat['p99'])}  "
            f"max in-flight={report.max_inflight}"
        )
    if args.shutdown:
        try:
            acked = request_shutdown(args.host, args.port)
        except (TimeoutError, OSError) as exc:
            print(f"shutdown request failed: {exc}", file=sys.stderr)
            return 1
        # With --json, stdout is machine-readable; status goes to stderr.
        print(
            f"shutdown {'acknowledged' if acked else 'NOT acknowledged'}",
            file=sys.stderr if args.json else sys.stdout,
        )
    return 0 if report.completed and not report.errors else 1


def cmd_service_stats(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import time

    from repro.obs import metrics_to_text
    from repro.service import fetch_server_stats

    def fetch() -> dict:
        return asyncio.run(
            fetch_server_stats(args.host, args.port, timeout=args.timeout)
        )

    try:
        snapshot = fetch()
    except (TimeoutError, OSError) as exc:
        print(f"stats fetch failed: {exc}", file=sys.stderr)
        return 1
    if args.watch is None:
        print(json.dumps(snapshot, indent=2) if args.json
              else metrics_to_text(snapshot))
        return 0
    # Watch mode: poll at the given interval and render *deltas* — what a
    # dashboard wants (current throughput, queue depth, fresh sheds), not
    # monotonically growing totals.
    previous, previous_at = snapshot, time.monotonic()
    remaining = args.count
    try:
        while remaining is None or remaining > 0:
            time.sleep(args.watch)
            try:
                snapshot = fetch()
            except (TimeoutError, OSError) as exc:
                print(f"stats fetch failed: {exc}", file=sys.stderr)
                return 1
            now_at = time.monotonic()
            elapsed = max(now_at - previous_at, 1e-9)
            counters = snapshot.get("counters", {})
            prev_counters = previous.get("counters", {})
            gauges = snapshot.get("gauges", {})

            def delta(name):
                return counters.get(name, 0) - prev_counters.get(name, 0)

            line = (
                f"rate={delta('service.completed') / elapsed:7.1f}/s  "
                f"shed=+{delta('service.shed')}"
                f" (total {counters.get('service.shed', 0)})  "
                f"queue={gauges.get('service.queue_depth', 0):.0f}  "
                f"admit={gauges.get('service.admit_rate', 0):.0f}/s  "
                f"flight-dumps={counters.get('service.flight.dumps', 0)}"
            )
            if args.json:
                print(json.dumps({
                    "interval_seconds": round(elapsed, 3),
                    "completed_per_second":
                        round(delta("service.completed") / elapsed, 1),
                    "shed_delta": delta("service.shed"),
                    "shed_total": counters.get("service.shed", 0),
                    "queue_depth": gauges.get("service.queue_depth", 0),
                    "admit_rate": gauges.get("service.admit_rate", 0),
                    "flight_dumps":
                        counters.get("service.flight.dumps", 0),
                }))
            else:
                print(time.strftime("[%H:%M:%S] ") + line, flush=True)
            previous, previous_at = snapshot, now_at
            if remaining is not None:
                remaining -= 1
    except KeyboardInterrupt:
        pass
    return 0


def cmd_service_trace(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs import render_span_tree, write_span_artifacts
    from repro.service import ActionRequest, run_traced_requests

    requests = [
        ActionRequest(
            id=index, variant=args.variant, n=args.n, p=args.p, q=args.q,
            seed=args.seed + index, trace=not args.no_engine,
        )
        for index in range(args.count)
    ]
    try:
        spans, outcomes = run_traced_requests(
            args.host, args.port, requests, timeout=args.timeout
        )
    except (TimeoutError, OSError) as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        # The client's spans are on the event loop's clock: time.monotonic().
        problems = write_span_artifacts(
            spans, {"chrome": args.out}, time.monotonic(), "service-trace"
        )
        if problems:
            print(f"chrome trace INVALID: {problems[:3]}", file=sys.stderr)
            return 1
        print(f"chrome trace written to {args.out}", file=sys.stderr)
    # Render wall-clock spans relative to the first send, in milliseconds —
    # raw loop.time() epochs are unreadable.
    if len(spans):
        origin = min(span.start for span in spans)
        for span in spans:
            span.start = round((span.start - origin) * 1000.0, 3)
            if span.end is not None:
                span.end = round((span.end - origin) * 1000.0, 3)
    if args.json:
        print(json.dumps({"outcomes": outcomes}, indent=2, default=str))
    else:
        print(render_span_tree(spans))
        for outcome in outcomes:
            print(
                f"request {outcome.get('id')}: {outcome.get('type')} "
                f"status={outcome.get('status', '-')} "
                f"latency={outcome.get('latency_ms', 0.0):.2f}ms"
            )
    bad = [o for o in outcomes if o.get("type") not in ("outcome", "overloaded")]
    return 1 if bad else 0


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.report import generate_report

    text = generate_report()
    if args.output:
        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0 if "DISCREPANCIES" not in text else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_formulas = sub.add_parser("formulas", help="Section 4.4 predictions")
    p_formulas.add_argument("n", type=int)
    p_formulas.add_argument("p", type=int)
    p_formulas.add_argument("q", type=int)
    p_formulas.set_defaults(fn=cmd_formulas)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("n", type=int)
    p_run.add_argument("p", type=int)
    p_run.add_argument("q", type=int)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(fn=cmd_run)

    p_chart = sub.add_parser("chart", help="sequence chart of a worked example")
    p_chart.add_argument(
        "scenario", choices=["example1", "example2", "figure3"]
    )
    p_chart.add_argument("--rows", type=int, default=300)
    p_chart.set_defaults(fn=cmd_chart)

    p_compare = sub.add_parser("compare", help="new algorithm vs CR baseline")
    p_compare.add_argument("--sweep", default="2,4,8,16")
    p_compare.set_defaults(fn=cmd_compare)

    p_report = sub.add_parser(
        "report", help="rerun every registered experiment, emit a markdown report"
    )
    p_report.add_argument("--output", default=None)
    p_report.set_defaults(fn=cmd_report)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", choices=TRACEABLE_SCENARIOS)
        p.add_argument("--n", type=int, default=4)
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--q", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)

    p_trace = sub.add_parser(
        "trace", help="export a scenario's causal span forest"
    )
    add_scenario_args(p_trace)
    p_trace.add_argument(
        "--format", choices=["tree", "jsonl", "chrome"], default="tree"
    )
    p_trace.add_argument("--output", "-o", default=None)
    p_trace.set_defaults(fn=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="print a scenario's metrics registry"
    )
    add_scenario_args(p_metrics)
    p_metrics.add_argument("--json", action="store_true")
    p_metrics.set_defaults(fn=cmd_metrics)

    p_explore = sub.add_parser(
        "explore", help="schedule-space exploration of a campaign cell"
    )
    p_explore.add_argument(
        "--cell", required=True,
        help="campaign cell id, e.g. paper:ct:none:n3p1q1:s0",
    )
    p_explore.add_argument(
        "--mode", choices=("dfs", "random", "delay"), default="dfs"
    )
    p_explore.add_argument(
        "--schedule", default=None,
        help="replay one schedule string (fifo | rw:<seed> | ch:<pos>=<idx>,...)",
    )
    p_explore.add_argument("--schedules", type=int, default=200,
                           help="random walks to run (mode=random)")
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--bound", type=int, default=2,
                           help="max deviations from FIFO (mode=delay)")
    p_explore.add_argument("--max-runs", type=int, default=5000)
    p_explore.add_argument(
        "--window", type=float, nargs=2, metavar=("START", "END"),
        default=None, help="exploration window in sim time",
    )
    p_explore.add_argument(
        "--workers", type=int, default=1,
        help="processes to run the random walks on (mode=random only)",
    )
    p_explore.add_argument(
        "--cache", default=None, metavar="FILE",
        help="persistent cross-run digest cache (append-only jsonl)",
    )
    p_explore.add_argument("--no-por", action="store_true",
                           help="disable partial-order reduction (dfs)")
    p_explore.add_argument("--artifacts", default=None,
                           help="directory for counterexample span traces")
    p_explore.add_argument("--json", action="store_true")
    p_explore.set_defaults(fn=cmd_explore)

    p_rt = sub.add_parser(
        "rt", help="real-concurrency backend (asyncio timers, TCP wire)"
    )
    rt_sub = p_rt.add_subparsers(dest="rt_command", required=True)

    p_conf = rt_sub.add_parser(
        "conformance", help="sim-vs-asyncio oracle-digest comparison"
    )
    p_conf.add_argument("--ns", default="2,3,5",
                        help="comma-separated participant counts")
    p_conf.add_argument("--backends", default="sim,asyncio")
    p_conf.add_argument("--time-scale", type=float, default=0.005,
                        help="wall seconds per virtual unit (asyncio)")
    p_conf.add_argument("--seed", type=int, default=0)
    p_conf.add_argument("--faults", action="store_true",
                        help="also run the asyncio drop/crash cells")
    p_conf.add_argument("--artifacts", default=None,
                        help="directory for span traces on divergence")
    p_conf.add_argument("--json", action="store_true")
    p_conf.set_defaults(fn=cmd_rt_conformance)

    p_rt_run = rt_sub.add_parser(
        "run", help="one campaign cell on a real backend"
    )
    p_rt_run.add_argument("--cell", required=True,
                          help="campaign cell id, e.g. paper:ct:none:n3p1q1:s0")
    p_rt_run.add_argument("--backend", choices=("sim", "asyncio"),
                          default="asyncio")
    p_rt_run.add_argument("--time-scale", type=float, default=0.005)
    p_rt_run.add_argument("--tcp", action="store_true",
                          help="route every delivery over a localhost socket")
    p_rt_run.set_defaults(fn=cmd_rt_run)

    p_hub = rt_sub.add_parser(
        "hub", help="standalone TCP frame hub (multi-process experiments)"
    )
    p_hub.add_argument("--host", default="127.0.0.1")
    p_hub.add_argument("--port", type=int, default=9321)
    p_hub.set_defaults(fn=cmd_rt_hub)

    p_service = sub.add_parser(
        "service", help="CA-action resolution service (server + loadgen)"
    )
    service_sub = p_service.add_subparsers(dest="service_command", required=True)

    p_serve = service_sub.add_parser(
        "serve", help="run the long-running resolution server"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9400,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--queue-limit", type=int, default=2048,
                         help="admission queue slots (the in-flight bound)")
    p_serve.add_argument("--initial-rate", type=float, default=100.0,
                         help="slow-start starting admission rate (actions/s)")
    p_serve.add_argument("--max-rate", type=float, default=20000.0)
    p_serve.add_argument("--max-seconds", type=float, default=None,
                         help="stop after this much wall time (default: run "
                              "until a shutdown frame or Ctrl-C)")
    p_serve.add_argument("--flight-dir", default=None,
                         help="directory for flight-recorder trace dumps "
                              "(default: in-memory ring only, no files)")
    p_serve.add_argument("--flight-capacity", type=int, default=256,
                         help="completed request traces kept in the ring")
    p_serve.add_argument("--stall-after", type=float, default=30.0,
                         help="seconds before an open request counts as "
                              "stalled (fires a flight-recorder dump)")
    p_serve.add_argument("--p99-budget-ms", type=float, default=None,
                         help="rolling p99 latency budget in ms; breaches "
                              "fire a flight-recorder dump (default: off)")
    p_serve.set_defaults(fn=cmd_service_serve)

    p_load = service_sub.add_parser(
        "load", help="open-loop traffic generator against a running server"
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=9400)
    p_load.add_argument("--rate", type=float, default=500.0,
                        help="offered actions/sec (open loop)")
    p_load.add_argument("--duration", type=float, default=10.0)
    p_load.add_argument("--arrivals", choices=("poisson", "bursty"),
                        default="poisson")
    p_load.add_argument("--connections", type=int, default=4)
    p_load.add_argument("--mix", choices=("heavy", "small", "uniform"),
                        default="heavy", help="action-size distribution")
    p_load.add_argument("--max-n", type=int, default=32,
                        help="largest action in the mix")
    p_load.add_argument("--variant", choices=SERVABLE, default="base")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--drain", type=float, default=5.0,
                        help="seconds to wait for straggler replies")
    p_load.add_argument("--stats", action="store_true",
                        help="fetch the server's live metrics snapshot")
    p_load.add_argument("--shutdown", action="store_true",
                        help="send a shutdown frame after the run")
    p_load.add_argument("--trace", action="store_true",
                        help="attach distributed-trace context to every "
                             "request and join the server spans client-side")
    p_load.add_argument("--engine-trace-every", type=int, default=0,
                        help="with --trace: request an engine-level FULL "
                             "span forest on every Nth request (0 = never)")
    p_load.add_argument("--json", action="store_true")
    p_load.set_defaults(fn=cmd_service_load)

    p_sstats = service_sub.add_parser(
        "stats", help="fetch (or continuously watch) a server's metrics"
    )
    p_sstats.add_argument("--host", default="127.0.0.1")
    p_sstats.add_argument("--port", type=int, default=9400)
    p_sstats.add_argument("--watch", type=float, default=None, metavar="SEC",
                          help="poll every SEC seconds, printing deltas "
                               "(rate, queue depth, fresh sheds)")
    p_sstats.add_argument("--count", type=int, default=None,
                          help="with --watch: stop after this many samples "
                               "(default: until Ctrl-C)")
    p_sstats.add_argument("--timeout", type=float, default=5.0,
                          help="per-fetch wall-clock timeout in seconds")
    p_sstats.add_argument("--json", action="store_true")
    p_sstats.set_defaults(fn=cmd_service_stats)

    p_trace = service_sub.add_parser(
        "trace", help="submit traced requests and print the span forest"
    )
    p_trace.add_argument("--host", default="127.0.0.1")
    p_trace.add_argument("--port", type=int, default=9400)
    p_trace.add_argument("--count", type=int, default=1,
                         help="requests to submit (sequentially)")
    p_trace.add_argument("--variant", choices=SERVABLE, default="base")
    p_trace.add_argument("-n", type=int, default=6, help="participants")
    p_trace.add_argument("-p", type=int, default=2, help="raisers")
    p_trace.add_argument("-q", type=int, default=1, help="nested members")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--no-engine", action="store_true",
                         help="skip the engine-level FULL span forest "
                              "(wall-clock stages only)")
    p_trace.add_argument("--timeout", type=float, default=5.0,
                         help="per-request reply timeout in seconds")
    p_trace.add_argument("--out", default=None, metavar="PATH",
                         help="also write the forest as Chrome trace JSON")
    p_trace.add_argument("--json", action="store_true",
                         help="print raw outcome frames instead of the tree")
    p_trace.set_defaults(fn=cmd_service_trace)

    p_fuzz = sub.add_parser("fuzz", help="random-scenario invariant check")
    p_fuzz.add_argument("--count", type=int, default=50)
    p_fuzz.add_argument("--start", type=int, default=0)
    p_fuzz.add_argument("--participants", type=int, default=4)
    p_fuzz.add_argument("--depth", type=int, default=3)
    p_fuzz.add_argument("--verbose", action="store_true")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
