"""The paper's closed-form message counts (Section 4.4).

Quoting the paper, for N participants of the outermost CA action:

1. "when only one exception is raised and there are no nested actions,
   then the number of messages is 3 × (N − 1)";
2. "when one exception is raised and all other objects have nested
   actions, then the number of messages is 3N × (N − 1)";
3. "when all N objects have the exceptions raised simultaneously, then
   the number is (N − 1) × (2N + 1)";
4. generally, for P raisers and Q nested objects:
   "(N − 1) × (2P + 3Q + 1)".

These functions are the reference values the benchmark harness compares
simulated counts against — and the one home of every closed form in the
repo: the variants' counts (Section 4.5 and this repo's extensions) sit
beside the paper's four, and :data:`repro.core.variants.VARIANTS` points
each variant at its function here.
"""

from __future__ import annotations


def _validate(n: int, p: int = 1, q: int = 0) -> None:
    if n < 1:
        raise ValueError(f"N must be positive: {n}")
    if not 0 <= p <= n:
        raise ValueError(f"P must be in [0, N]: p={p}, n={n}")
    if not 0 <= q <= n - p:
        raise ValueError(f"Q must be in [0, N-P]: q={q}, n={n}, p={p}")


def case1_messages(n: int) -> int:
    """One exception, no nested actions: ``3(N-1)``."""
    _validate(n)
    return 3 * (n - 1)


def case2_messages(n: int) -> int:
    """One exception, all other objects nested: ``3N(N-1)``."""
    _validate(n, p=1, q=n - 1)
    return 3 * n * (n - 1)


def case3_messages(n: int) -> int:
    """All N objects raise simultaneously: ``(N-1)(2N+1)``."""
    _validate(n, p=n, q=0)
    return (n - 1) * (2 * n + 1)


def general_messages(n: int, p: int, q: int) -> int:
    """``(N-1)(2P + 3Q + 1)``; zero when nothing is raised."""
    _validate(n, p, q)
    if p == 0:
        return 0
    return (n - 1) * (2 * p + 3 * q + 1)


def resolver_group_messages(n: int, p: int, q: int, k: int) -> int:
    """The k-resolver extension of Section 4.4: ``(N-1)(2P + 3Q + k)``.

    The k biggest-named raisers (so k ≤ P) each resolve the same LE set
    and each broadcasts Commit; receivers act on the first and discard the
    agreeing duplicates — "only a constant factor".  The claim covers
    redundant Commit *delivery*; surviving a resolver crash additionally
    needs a failure detector (the ``ct`` variant).
    """
    _validate(n, p, q)
    if k < 1:
        raise ValueError(f"k must be at least 1: {k}")
    if p == 0:
        return 0
    return (n - 1) * (2 * p + 3 * q + min(k, p))


def multicast_operations(n: int, p: int, q: int) -> int:
    """The Section 4.5 variant: ``N + Q + 1`` multicast operations."""
    _validate(n, p, q)
    if p == 0:
        return 0
    return n + q + 1


def centralized_messages(n: int, p: int, q: int = 0) -> int:
    """The centralised variant: ``P exceptions + (N-1) suspends + (N-1)
    statuses + N commits = 3N - 2 + P`` (flat: Q does not enter)."""
    _validate(n, p)
    if p == 0:
        return 0
    return 3 * n - 2 + p


def crash_tolerant_messages(n: int, p: int, q: int = 0) -> int:
    """The crash-tolerant variant, fault-free: ``(N-1)(2P + 2Q + 1)`` —
    HaveNested is one broadcast per nested member, not one per raiser."""
    _validate(n, p, q)
    if p == 0:
        return 0
    return (n - 1) * (2 * p + 2 * q + 1)


def consistency_checks() -> list[str]:
    """Cross-checks tying the named cases to the general formula.

    Returns an empty list when all identities hold (used by tests).
    """
    problems = []
    for n in range(1, 40):
        if general_messages(n, 1, 0) != case1_messages(n):
            problems.append(f"case1 mismatch at N={n}")
        if n >= 2 and general_messages(n, 1, n - 1) != case2_messages(n):
            problems.append(f"case2 mismatch at N={n}")
        if general_messages(n, n, 0) != case3_messages(n):
            problems.append(f"case3 mismatch at N={n}")
    return problems
