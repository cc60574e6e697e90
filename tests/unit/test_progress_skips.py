"""A receipt that skips its ``PROGRESS`` row skips only a no-op.

The base engine's ``live`` effects return ``None`` instead of their context
when their write cannot enable the current state's row (an Exception in X,
a HaveNested in X or S, an ACK that leaves its set non-empty, ...), so
``_dispatch`` runs no row.  Each such skip is checked here: every ``live``
and ``nested`` entry of ``RECEIVE`` is wrapped (``_abort_nested`` reads the
table, so its inner receipt is wrapped too), and when a wrapped effect
returns ``None`` while its context is still the engine's, the row runs
anyway.  It must change nothing: not the state, ``sent_commit``, ``commit``
or ``handler_scheduled``, not a send, not a trace record.

The worlds are the base cells of the smoke campaign matrix, 100 fuzz worlds
(nested up to depth 3, a third of them retrying their root action), the
general case for n = 3..16 under both nested policies, the
backward-recovery world whose root action fails its acceptance test twice
and a world whose Commit overtakes an Exception.
"""

from __future__ import annotations

from collections import Counter

from repro.core.action import NestedPolicy
from repro.core.algorithm import KINDS, PROGRESS, RECEIVE
from repro.core.messages import KIND_ACK, KIND_COMMIT, KIND_EXCEPTION
from repro.workloads.campaigns import default_matrix, observe_cell
from repro.workloads.fuzz import build_random_scenario
from repro.workloads.generator import general_case

#: The relations whose effects advance a context: the only ones that skip.
ADVANCING = ("live", "nested")
#: The fuzz world (n=3, depth 3) in which an Exception reaches a suspended
#: participant that already holds the Commit naming its raiser.
COMMIT_FIRST_SEED = 483


def snapshot(engine, ctx) -> tuple:
    runtime = engine.p.runtime
    return (
        ctx.state, ctx.sent_commit, ctx.commit, ctx.handler_scheduled,
        runtime.network.total_sent(), dict(runtime.trace.counts),
    )


def checked(effect, seen: Counter):
    """``effect`` that counts each receipt by ``(kind, state, Commit held,
    row skipped)`` and runs the row of every skip, which must be a no-op."""

    def entry(engine, ctx, message):
        result = effect(engine, ctx, message)
        if ctx is None or engine.ctx is not ctx:
            return result
        skipped = result is None
        seen[message.kind, ctx.state.value, ctx.commit is not None, skipped] += 1
        if skipped:
            before = snapshot(engine, ctx)
            PROGRESS[ctx.state](engine, ctx)
            assert snapshot(engine, ctx) == before, (
                f"{engine.p.name} skipped a row that acts: {effect.__name__} "
                f"on {message} in {before[0].value}"
            )
        return result

    return entry


def worlds():
    for cell in default_matrix(smoke=True, seed=0):
        if cell.variant == "base":
            yield lambda cell=cell: observe_cell(cell)
    for seed in range(100):
        yield lambda seed=seed: build_random_scenario(
            seed, n_participants=3 + seed % 3, max_depth=3,
            failing_attempts=2 if seed % 3 == 0 else 0,
        )[0].run()
    for n in range(3, 17):
        for policy in NestedPolicy:
            yield lambda n=n, policy=policy: general_case(
                n, max(1, n // 2), n // 4, policy=policy
            ).run()
    yield lambda: build_random_scenario(23, n_participants=4, failing_attempts=2)[0].run()
    # A Commit overtakes a raiser's Exception to a suspended participant,
    # whose row must then run on that Exception (rare: 1 of 1,500 fuzz worlds searched).
    yield lambda: build_random_scenario(COMMIT_FIRST_SEED, n_participants=3)[0].run()


def test_every_skipped_row_is_a_no_op(monkeypatch):
    seen: Counter = Counter()
    for relation in ADVANCING:
        for kind in KINDS:
            key = (relation, kind)
            monkeypatch.setitem(RECEIVE, key, checked(RECEIVE[key], seen))
    for run in worlds():
        run()
    # Not vacuous: every kind but the Commit, whose row always runs, skips ...
    skipped = {kind for kind, _, _, skip in seen if skip}
    assert skipped == set(KINDS) - {KIND_COMMIT}, seen
    # ... and the receipts whose rows must run are met: the ACK that
    # empties its set, and an Exception in S with the Commit held.
    assert seen[KIND_ACK, "X", False, False], seen
    assert seen[KIND_EXCEPTION, "S", True, False], seen
