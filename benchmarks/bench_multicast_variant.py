"""E12 — Section 4.5: the resolution algorithm over reliable multicast.

"If a reliable multicast can be used, acknowledgement messages will be no
longer necessary and so communications in our algorithm would consist of
only several multicasts (Exception, Commit, HaveNested, and
NestedCompleted)."

The bench compares, on the Section 4.4 workload shape:

* multicast *operations* (the variant's natural unit): N + Q + 1;
* the unicasts hiding under those multicasts: (N + Q + 1)(N - 1);
* the base algorithm's unicast bill: (N - 1)(2P + 3Q + 1).

Crossover: the multicast variant's unicast bill wins once 2P + 2Q > N.
"""

from _harness import record_table

from repro.analysis import general_messages, multicast_operations
from repro.core.variants import run_action

SWEEP = [
    (8, 1, 0),
    (8, 2, 2),
    (8, 4, 0),   # crossover boundary: 2P+2Q == N
    (8, 6, 0),
    (8, 4, 4),
    (16, 2, 2),
    (16, 6, 6),
    (16, 12, 0),
]


def run_sweep():
    rows = []
    for n, p, q in SWEEP:
        result = run_action("mc", n, p, q)
        ops = result.messages()
        unicasts = result.unicasts()
        base = general_messages(n, p, q)
        winner = "multicast" if unicasts < base else (
            "base" if base < unicasts else "tie"
        )
        rows.append(
            (n, p, q, multicast_operations(n, p, q), ops, unicasts, base, winner)
        )
    return rows


def test_multicast_variant(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=2, iterations=1)
    record_table(
        "E12",
        "multicast variant: operations vs the base algorithm's unicasts",
        ["N", "P", "Q", "ops (model)", "ops", "unicasts", "base msgs", "winner"],
        rows,
        notes=(
            "no ACK kind exists in the variant; unicast crossover sits at "
            "2P + 2Q = N as derived in the module docs"
        ),
    )
    for n, p, q, ops_model, ops, unicasts, base, winner in rows:
        assert ops == ops_model
        if 2 * p + 2 * q > n:
            assert winner == "multicast"
        elif 2 * p + 2 * q < n:
            assert winner == "base"
