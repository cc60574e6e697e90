"""E5 — Section 4.4 comparison: the new algorithm (O(N²)) vs CR (O(N³)).

Paper claim: "Note that the CR algorithm [5] is of complexity O(N³).  Our
new algorithm is less complex because only one object (rather than all the
objects) resolves multiple exceptions and only one object needs to send
the commit message."

Workload: all N objects detect errors quasi-simultaneously (the paper's
motivating situation).  Under CR every participant re-resolves and
re-broadcasts its proposal after each exception — Θ(N) rounds of Θ(N²)
messages; the new algorithm runs the same workload in exactly
(N−1)(2N+1).  We report absolute counts, the winner's factor, and the
fitted log–log growth exponents (expected ≈3 for CR, ≈2 for the new
algorithm).
"""

from _harness import record_table

from repro.analysis.report import cr_comparison, cr_growth

SWEEP = (2, 4, 8, 12, 16, 24)


def run_comparison():
    counts = cr_comparison(SWEEP)
    cr_fit, new_fit = cr_growth(counts[1:])  # N=2 is below the asymptote
    rows = [(n, cr, new, f"{cr / new:.1f}x") for n, cr, new in counts]
    return rows, cr_fit, new_fit


def test_new_algorithm_beats_cr(benchmark):
    rows, cr_fit, new_fit = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    record_table(
        "E5",
        "new algorithm vs Campbell-Randell baseline (concurrent raisers)",
        ["N", "CR msgs", "new msgs", "CR/new"],
        rows,
        notes=(
            f"fitted growth: CR ~ N^{cr_fit.exponent:.2f} "
            f"(r2={cr_fit.r_squared:.3f}), "
            f"new ~ N^{new_fit.exponent:.2f} (r2={new_fit.r_squared:.3f}); "
            "paper: O(N^3) vs O(N^2)"
        ),
    )
    # Shape checks: the new algorithm always wins and the gap widens.
    ratios = [float(r[3][:-1]) for r in rows]
    assert all(r[1] > r[2] for r in rows)
    assert ratios == sorted(ratios)
    assert 2.6 < cr_fit.exponent < 3.4
    assert 1.8 < new_fit.exponent < 2.2
