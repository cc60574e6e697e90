"""E17 (extension) — surviving participant crashes during resolution.

The paper's fault model includes node crashes (Section 2), yet the
Section 4.2 algorithm waits for ACKs from *every* participant — a peer
that dies mid-protocol stalls resolution forever.  The crash-tolerant
variant (:mod:`repro.core.crash_tolerant`, a documented extension) adds a
heartbeat failure detector, waives what suspected members owe, and
re-elects the resolver among alive raisers.

Two measurements:

* **liveness**: time from raise to the survivors' Commit, as the crash
  victim varies (none / bystander / a raiser / the elected resolver);
  the base algorithm's behaviour on the resolver-crash case is shown for
  contrast (it never commits — reported as STALLED);
* **price of the detector**: heartbeat traffic grows with N while the
  resolution message count stays at the base algorithm's order.
"""

from _harness import record_table

from repro.core.variants import run_action
from repro.net.failures import CrashWindow, FailurePlan
from repro.workloads.generator import all_raise_case

N = 5


def base_algorithm_stalls_on_resolver_crash() -> str:
    """Run the base algorithm and crash the would-be resolver mid-protocol."""
    scenario = all_raise_case(N)
    scenario.failure_plan = FailurePlan(
        crashes=[CrashWindow("O0004", 10.2)]  # the biggest raiser dies
    )
    result = scenario.run(until=500.0, max_events=500_000)
    commits = result.commit_entries("A1")
    return f"commit at t={commits[0].time:.1f}" if commits else "STALLED"


def run_cases():
    rows = []
    cases = [
        ("no crash", ()),
        ("bystander (suspended) dies", ("O0004",)),
        ("a raiser dies", ("O0001",)),
        ("the resolver dies", ("O0004",)),
    ]
    for label, crash in cases:
        raisers = N if label != "bystander (suspended) dies" else 2
        result = run_action("ct", N, raisers, crashes=[(v, 10.2) for v in crash])
        commits = [
            e
            for e in result.runtime.trace.by_category("ct.commit")
            if e.subject not in crash
        ]
        rows.append(
            (
                label,
                ",".join(crash) or "-",
                f"t={commits[0].time:.1f}" if commits else "STALLED",
                commits[0].subject if commits else "-",
                "yes" if result.all_handled() else "NO",
                len(result.handled_exceptions()),
            )
        )
    return rows, base_algorithm_stalls_on_resolver_crash()


def test_crash_tolerance(benchmark):
    rows, base_outcome = benchmark.pedantic(run_cases, rounds=1, iterations=1)
    record_table(
        "E17",
        f"crash-tolerant resolution (N={N}, heartbeat detector)",
        ["scenario", "crashed", "survivors' commit", "resolver",
         "all survivors handled", "distinct verdicts"],
        rows,
        notes=(
            f"base Section 4.2 algorithm on the resolver-crash case: "
            f"{base_outcome} (it waits for the dead peer's ACK forever); "
            "the variant re-elects and commits"
        ),
    )
    assert base_outcome == "STALLED"
    for label, crashed, commit, resolver, handled, verdicts in rows:
        assert handled == "yes"
        assert commit != "STALLED"
        assert verdicts == 1
    # Resolver-crash case: the next-biggest raiser took over.
    assert rows[-1][3] == "O0003"
