"""E6 — Section 3.3's domino effect under reduced handler trees.

The paper's example: a chain-shaped tree T_A = e1 <- e2 <- ... <- e8 with
the odd positions handled by O1 and the even ones by O2.  "If exception e8
is raised in O2 ... any exception will always lead to further exceptions
until the root of the exception tree is reached."

Under the CR mechanism we measure the cascade (number of raises and the
message bill it runs up); under the new algorithm — whose assumption of
complete handler sets is precisely the paper's fix — the same fault costs
one raise and 3(N-1) messages.
"""

from _harness import record_table

from repro.analysis import fit_power_law
from repro.core.cr_baseline import run_cr_domino
from repro.workloads.generator import single_exception_case

SWEEP = (2, 4, 8, 12, 16)


def run_domino():
    rows = []
    points = []
    for n in SWEEP:
        cr = run_cr_domino(n)  # chain length 2N+1, interleaved handlers
        new = single_exception_case(n).run()
        rows.append(
            (
                n,
                2 * n + 1,
                sum(len(p.raised) for p in cr.participants.values()),
                cr.messages(),
                new.resolution_message_total(),
                sorted(cr.handled_exceptions())[0],
            )
        )
        points.append((n, cr.messages()))
    fit = fit_power_law(points[1:])
    return rows, fit


def test_domino_effect(benchmark):
    rows, fit = benchmark.pedantic(run_domino, rounds=1, iterations=1)
    record_table(
        "E6",
        "Section 3.3 domino: chain tree with reduced handler sets",
        ["N", "chain len", "CR raises", "CR msgs", "new msgs", "CR resolves to"],
        rows,
        notes=(
            f"CR cascades to the root every time and grows ~N^{fit.exponent:.2f}; "
            "the new algorithm's complete-handler assumption needs 1 raise "
            "and 3(N-1) messages"
        ),
    )
    for n, chain_len, raises, cr_msgs, new_msgs, resolved in rows:
        assert resolved == "Chain_0"        # the cascade reached the root
        assert raises >= chain_len           # every level was re-raised
        assert cr_msgs > new_msgs
    assert fit.exponent > 2.5
