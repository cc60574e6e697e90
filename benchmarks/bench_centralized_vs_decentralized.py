"""E18 (extension) — centralised vs decentralised resolution (Section 4.5).

The paper's meta-object sketch "would allow the dynamic change of
different resolution algorithms (e.g. centralised or decentralised)".
This bench runs both poles on the same flat workloads and reports the
trade exactly:

* the coordinator variant is **linear** (3N − 2 + P messages) where the
  decentralised algorithm is quadratic ((N−1)(2P+1));
* but every resolution funnels through one process — the coordinator
  sends/receives a constant fraction of ALL messages, and a coordinator
  crash stalls recovery for everyone (measured), while the decentralised
  algorithm has no such single point (any suspended object's crash is
  survivable with the E17 detector, and the resolver role is elected, not
  configured).
"""

from _harness import record_table

from repro.analysis.metrics import traffic_breakdown
from repro.analysis import centralized_messages, general_messages
from repro.core.centralized_variant import CD_KINDS
from repro.core.variants import run_action
from repro.workloads.generator import all_raise_case


def run_comparison():
    rows = []
    for n in (4, 8, 16, 32):
        central = run_action("cd", n, n)
        decentral = all_raise_case(n).run()
        breakdown = traffic_breakdown(
            central.runtime.trace, kinds=set(CD_KINDS)
        )
        coord_share = breakdown.by_sender.get("coord", 0) / breakdown.total()
        rows.append(
            (
                n,
                central.messages(),
                centralized_messages(n, n),
                decentral.resolution_message_total(),
                general_messages(n, n, 0),
                f"{coord_share:.0%}",
            )
        )
    crash = run_action("cd", 6, 2, until=400.0, crashes=[("coord", 10.5)])
    crash_outcome = "STALLED" if not crash.all_handled() else "recovered"
    return rows, crash_outcome


def test_centralized_vs_decentralized(benchmark):
    rows, crash_outcome = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    record_table(
        "E18",
        "centralised coordinator vs the decentralised algorithm (P=N)",
        ["N", "central msgs", "model 3N-2+P", "decentral msgs",
         "model (N-1)(2N+1)", "coordinator's send share"],
        rows,
        notes=(
            "centralised is linear but funnels through one process; "
            f"coordinator crash mid-resolution: {crash_outcome} — the "
            "decentralised algorithm elects its resolver instead"
        ),
    )
    assert crash_outcome == "STALLED"
    for n, central, central_model, decentral, decentral_model, share in rows:
        assert central == central_model
        assert decentral == decentral_model
        assert central < decentral
        # The coordinator originates a large constant share of traffic.
        assert float(share.strip("%")) >= 40.0
