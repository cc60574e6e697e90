"""Regression: crash-tolerant ACK must not overtake HaveNested.

Found by ``repro explore`` (delay-bounded search, d=1) on
``paper:ct:none:n3p1q1:s0``: when a nested member replied to the
resolver's Exception broadcast with its ACK *before* broadcasting
``CT_HAVE_NESTED``, a cross-channel interleaving could deliver every
peer's ACK to the resolver before the nested announcement.  The resolver
then saw ``acks_missing`` empty with ``nested_members`` empty and
committed prematurely — the nested member's abortion was silently
overtaken (its ``CT_NESTED_COMPLETED`` round and abort signal dropped,
message count 8 instead of the invariant 10).

The fix reverses the send order in ``_on_exception``: per-channel FIFO
then guarantees the resolver processes our HaveNested no later than our
ACK.  The minimized counterexample schedule is replayed here and must
now match the FIFO baseline bit-for-bit.

Repro on pre-fix code:

    PYTHONPATH=src python -m repro explore \
        --cell 'paper:ct:none:n3p1q1:s0' --schedule 'ch:3=1'

(``ch:6=1`` when it was found: the failure detector then armed a beat timer
and a check timer per member, three more choice points ahead of this one.)
"""

from repro.explore import run_digest

CELL = "paper:ct:none:n3p1q1:s0"

#: The ddmin-minimized counterexample: one deviation at choice point 3
#: (deliver the plain peer's ACK ahead of the nested peer's HaveNested).
MINIMIZED = "ch:3=1"


def test_minimized_counterexample_schedule_is_green():
    baseline = run_digest(CELL)
    assert baseline.classification == "OK"
    outcome = run_digest(CELL, MINIMIZED)
    assert outcome.classification == "OK", outcome.violations
    assert outcome.digest == baseline.digest


def test_neighbourhood_of_the_race_is_order_invariant():
    # Every single-deviation schedule around the ACK round must agree
    # with FIFO — the premature-commit window spanned several adjacent
    # choice points pre-fix.
    baseline = run_digest(CELL)
    for pos in range(1, 9):
        for idx in (1, 2):
            outcome = run_digest(CELL, f"ch:{pos}={idx}")
            assert outcome.classification == "OK", (
                pos, idx, outcome.violations
            )
            assert outcome.digest == baseline.digest, (pos, idx)


def test_nested_member_announces_before_acking():
    # Structural check, independent of schedule-position drift: on the
    # nested member's outgoing channel the HaveNested frame must carry a
    # smaller transport seq than the ACK.
    from repro.workloads.campaigns import observe_cell, parse_cell_id

    obs = observe_cell(parse_cell_id(CELL))
    runtime = obs.runtime
    order = [
        (entry.details["kind"], entry.subject)
        for entry in runtime.trace.by_category("msg.send")
        if entry.details["kind"] in ("CT_ACK", "CT_HAVE_NESTED")
    ]
    senders_seen: dict[str, list[str]] = {}
    for kind, actor in order:
        senders_seen.setdefault(actor, []).append(kind)
    for actor, kinds in senders_seen.items():
        if "CT_HAVE_NESTED" in kinds and "CT_ACK" in kinds:
            assert kinds.index("CT_HAVE_NESTED") < kinds.index("CT_ACK"), (
                actor, kinds
            )
