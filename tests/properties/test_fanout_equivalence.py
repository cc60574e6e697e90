"""Batched ≡ loop, for every caller of ``send_many``.

Every engine and the failure detector fan out through one call,
:meth:`repro.net.network.Network.send_many`, which batches on any
uniform-latency simulator network — fault plans and the ARQ transport
included — and otherwise *is* the per-send loop.  So for each variant
and each way of configuring a run, one action with ``send_many`` replaced
by the plain loop must be indistinguishable from the same action as
shipped: same message ids in the same order, same counters, same FULL
trace records (hashed — they carry every id, time and kind), same
handlers.  A handful of fingerprints are pinned as they were before any
caller was batched, so "indistinguishable from the loop" also means
"indistinguishable from the previous commit".

Run this file as a script to print the fingerprints it pins.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.participant import CAParticipant
from repro.core.variants import VARIANTS, run_action
from repro.explore import ScheduleSpec, run_digest
from repro.explore.engine import _run as explore_run
from repro.net.failures import FailurePlan, PartitionWindow
from repro.net.latency import ConstantLatency
from repro.net.message import reset_msg_ids
from repro.net.network import Network
from repro.net.reliable import ReliableNetwork
from repro.objects.runtime import runtime_hook
from repro.rt.backend import asyncio_backend
from repro.simkernel.trace import TraceEntry
from repro.workloads.campaigns import parse_cell_id
from repro.workloads.fuzz import build_random_scenario

#: (n, p, q) per variant: raisers, a nested member where the variant nests,
#: and at least one bystander.
SHAPES = {"base": (5, 2, 1), "ct": (5, 2, 1), "mc": (5, 2, 1),
          "cd": (5, 2, 0), "cr": (4, 2, 0)}


def _slow_pair(runtime) -> None:
    runtime.network.set_pair_latency("O0000", "O0001", ConstantLatency(2.5))


def _restart(runtime) -> None:
    """Close the ``crash`` row's window mid-run: sends to and from O0002 are
    dropped before t=14 and delivered after it."""
    runtime.sim.schedule(
        14.0, lambda: runtime.restart_node("node:O0002"), label="restart:O0002"
    )


def _partition() -> FailurePlan:
    """Two participants cut off from the other three over the raises of
    every variant (t=1 and t=10)."""
    return FailurePlan(partitions=[PartitionWindow(
        frozenset({"O0000", "O0001"}), frozenset({"O0002", "O0003", "O0004"}),
        0.5, 12.0,
    )])


#: name -> (run_action keywords, runtime hook or None).  Every row but
#: ``pair-latency`` takes the batched loop, faulted and reliable ones
#: included; ``pair-latency`` is one of ``send_many``'s fallbacks.
CONFIGS = {
    "stock": ({}, None),
    "drop": ({"failure_plan": lambda: FailurePlan(drop_probability=0.2),
              "until": 120.0}, None),
    "crash": ({"crashes": [("O0002", 10.5)], "until": 120.0}, None),
    # After base's Commit, before anyone's DONE: the exit barrier never fills.
    "late-crash": ({"crashes": [("O0002", 12.5)], "until": 120.0}, None),
    "reliable": ({"failure_plan": lambda: FailurePlan(drop_probability=0.2),
                  "reliable": True, "until": 120.0}, None),
    "reliable-corrupt": ({"failure_plan": lambda: FailurePlan(corrupt_probability=0.15),
                          "reliable": True, "until": 120.0}, None),
    "pair-latency": ({}, _slow_pair),
    "corrupt": ({"failure_plan": lambda: FailurePlan(corrupt_probability=0.15),
                 "until": 120.0}, None),
    "partition": ({"failure_plan": _partition, "until": 120.0}, None),
    "reliable-partition": ({"failure_plan": _partition, "reliable": True,
                            "until": 120.0}, None),
    "restart": ({"crashes": [("O0002", 10.5)], "until": 120.0}, _restart),
}


def _loop_send_many(self, src, dsts, kind, payload=None):
    return [self.send(src, dst, kind, payload) for dst in dsts]


def _batched_loop_ran(self, src, dsts, kind, payload=None):
    raise AssertionError("the batched fan-out ran in a looped run")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: What the Member variants write since the span forest became a view of
#: the trace (ISSUE 22): whole records they did not write before, all at
#: FULL only, and two details on records they did.
ADDED_RECORDS = {
    "resolution.join", "state", "raise", "mc.abort_start", "mc.abort_done",
}
ADDED_DETAILS = {"cause", "raisers"}

#: The categories the Member variants write since they took base's trace
#: vocabulary, each with a ``variant`` detail, -> the suffix of the
#: ``<variant>.<suffix>`` categories they wrote before.
RENAMED = {
    "resolution.commit": "commit", "coordinator.commit": "commit",
    "abort.start": "abort_start", "abort.done": "abort_done",
    "resolution.handle": "handle",
}


def _old_entry(entry) -> TraceEntry:
    """``entry`` as it was before the rename, without :data:`ADDED_DETAILS`."""
    category, details, dropped = entry.category, entry.details, ADDED_DETAILS
    if category in RENAMED and "variant" in details:
        category = f"{details['variant']}.{RENAMED[category]}"
        dropped = ADDED_DETAILS | {"variant"}
    return TraceEntry(
        entry.time, category, entry.subject,
        {k: v for k, v in details.items() if k not in dropped},
    )


def _dump_without_additions(trace) -> str:
    """``trace.dump()`` with the span view's additions taken out again, and
    the renamed categories under their old names."""
    return "\n".join(
        str(entry) for entry in map(_old_entry, trace.entries)
        if entry.category not in ADDED_RECORDS
    )


def fingerprint(variant: str, config: str, seed: int = 3) -> dict:
    keywords, hook = CONFIGS[config]
    keywords = {
        key: value() if callable(value) else value
        for key, value in keywords.items()
    }
    reset_msg_ids()
    if hook is None:
        run = run_action(variant, *SHAPES[variant], seed=seed, **keywords)
    else:
        with runtime_hook(hook):
            run = run_action(variant, *SHAPES[variant], seed=seed, **keywords)
    network = run.runtime.network
    return {
        "trace": _sha(run.runtime.trace.dump()),
        "trace_without_additions": _sha(_dump_without_additions(run.runtime.trace)),
        "sent": dict(sorted(network.sent_by_kind.items())),
        "delivered": dict(sorted(network.delivered_by_kind.items())),
        "handled": dict(sorted(run.handled().items())),
        "faults": (network.injector.dropped, network.injector.corrupted),
    }


def explored(variant: str) -> tuple:
    """One random walk under the explorer's ``tie_break`` (the batched
    fan-out and raw deliveries, labelled when the policy sees them): its
    oracle digest and FULL-trace hash."""
    outcome = run_digest(f"paper:{variant}:none:n4p1q1:s0", "rw:5")
    return outcome.digest, outcome.trace_hash, outcome.choice_points


@pytest.fixture
def looped(monkeypatch):
    """Replace the batched fan-out by the loop it must equal, on every
    network class, and make the batched loop itself a tripwire: a fan-out
    that still reaches it (a bound method held from before, an override
    that calls it) fails the looped run instead of comparing batched
    against batched."""
    def install():
        batched = Network.send_many
        monkeypatch.setattr(Network, "send_many", _loop_send_many)
        monkeypatch.setattr(batched, "__code__", _batched_loop_ran.__code__)
        for cls in (Network, ReliableNetwork):
            assert cls.send_many is _loop_send_many, cls
    return install


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_run_equals_looped_run(variant, config, looped):
    shipped = fingerprint(variant, config)
    assert shipped["sent"], "the run sent nothing"
    looped()
    assert fingerprint(variant, config) == shipped


@pytest.mark.parametrize("variant", VARIANTS)
def test_explorer_walk_equals_looped_walk(variant, looped):
    shipped = explored(variant)
    looped()
    assert explored(variant) == shipped


class BarrierTests:
    """Counts the exit-barrier tests of the runs it makes; ``ungate()``
    then runs the whole test after every ``DONE`` too, as before the
    barrier counted."""

    def __init__(self, monkeypatch) -> None:
        self.monkeypatch = monkeypatch
        self.count = 0
        shipped = CAParticipant._check_barrier

        def check_barrier(participant, record):
            self.count += 1
            shipped(participant, record)

        monkeypatch.setattr(CAParticipant, "_check_barrier", check_barrier)

    def ungate(self) -> None:
        gated = CAParticipant._on_done

        def on_done(participant, message):
            gated(participant, message)
            record = participant.contexts.find(message.payload.action)
            if record is not None:
                participant._check_barrier(record)

        self.monkeypatch.setattr(CAParticipant, "_on_done", on_done)

    def run(self, run) -> tuple:
        """``run()``'s result and the barrier tests it made."""
        self.count = 0
        return run(), self.count


@pytest.fixture
def barrier_tests(monkeypatch):
    return BarrierTests(monkeypatch)


@pytest.mark.parametrize(
    "config", ["stock", "reliable", "late-crash", "pair-latency"]
)
def test_counted_barrier_equals_a_test_on_every_done(config, barrier_tests):
    shipped, counted = barrier_tests.run(lambda: fingerprint("base", config))
    assert shipped["delivered"]["DONE"], "nobody reached the exit line"
    barrier_tests.ungate()
    ungated, every_done = barrier_tests.run(lambda: fingerprint("base", config))
    assert ungated == shipped
    assert every_done > counted, "the barrier was never ungated"


def _retried_world(seed: int) -> str:
    """FULL-trace dump of a random nested world whose root action fails its
    acceptance test twice (``max_attempts`` = 3)."""
    reset_msg_ids()
    scenario, _ = build_random_scenario(seed, n_participants=5, failing_attempts=2)
    return scenario.run().runtime.trace.dump()


@pytest.mark.parametrize("seed", range(6))
def test_counted_barrier_equals_a_test_on_every_done_across_retries(
    seed, barrier_tests
):
    shipped, counted = barrier_tests.run(lambda: _retried_world(seed))
    assert shipped.count(" action.retry ") >= 2
    barrier_tests.ungate()
    ungated, every_done = barrier_tests.run(lambda: _retried_world(seed))
    assert ungated == shipped
    assert every_done > counted, "the barrier was never ungated"


@pytest.mark.parametrize("variant", ["base", "ct", "mc", "cd"])
def test_asyncio_kernel_reaches_the_same_verdict(variant, looped):
    """Wall-clock timers decide the order there, so the comparison is the
    conformance kit's: who handled what, and the exact count."""
    def verdict():
        with asyncio_backend(time_scale=0.002):
            run = run_action(variant, 3, 1, until=VARIANTS[variant].horizon)
        return run.handled(), run.messages()

    shipped = verdict()
    assert len(shipped[0]) == 3
    looped()
    assert verdict() == shipped


#: FULL-trace hashes pinned at c3437ca, where only ``base`` called
#: ``send_many`` and everything below was a per-peer ``send`` loop; they
#: held through d35acb6.  ISSUE 22 then added records to the trace on
#: purpose, so each row pins two things: the hash of the run's dump with
#: those additions taken out again — still the c3437ca value, so nothing
#: else moved — and the hash of the dump as it is now.  ``cr`` writes none
#: of the additions and keeps one hash.  Two rows moved on purpose since:
#: heartbeats became unsequenced datagrams on the reliable transport (no
#: frame, transport ACK or retransmission per beat), which re-pinned
#: ``("ct", "reliable")`` (was d0555b4faf5ce4f6 / 8ab99ef18fd53bf7), and the
#: detector's beat and check timers became one ``hb:`` tick, which re-pinned
#: the ``ct`` walk's labels (was d2cc60295185711b / 1682eb041f79225b).  The
#: other ``reliable`` and ``reliable-corrupt`` rows were pinned at 77feb82,
#: before the ARQ transport's per-frame path was rewritten, so that rewrite
#: (one slotted frame per send, its timer straight on the queue) is held to
#: the exact records, ids and times of the transport it replaced.  The
#: ``corrupt``, ``partition``, ``reliable-partition`` and ``restart`` rows
#: were pinned at 39e2b1b, while every faulted or reliable fan-out was
#: still a per-send loop, so batching those holds to that loop's records.
#: When the Member variants took base's trace vocabulary (``ct.commit`` ->
#: ``resolution.commit`` with ``variant="ct"``, see :data:`RENAMED`), the
#: second hash of every ct, mc and cd row that writes such a record, and
#: each walk's ``trace_hash``, moved on purpose; the first hashes, which
#: map the names back, did not.  The ct and mc second hashes and walk
#: hashes moved once more when their handler records began to carry the
#: Commit's message id as ``cause`` (an :data:`ADDED_DETAILS` detail).
GOLDEN = {
    ("ct", "stock"): ("b64dca26ee0b6b99", "a8d978349036e561"),
    ("ct", "crash"): ("f6e50dfa55dd12dc", "086e5fe5d788673b"),
    ("ct", "reliable"): ("f4b0a5825ea052a2", "d74d7b75d27ecb8c"),
    ("ct", "reliable-corrupt"): ("47145101d6c46b44", "b23c1f2cf5e72f43"),
    ("base", "reliable"): ("7e2f6be712fda094", "e77038d3c477486f"),
    ("base", "reliable-corrupt"): ("a5aee8f4499753a9", "b55d00b01d1b55e8"),
    ("mc", "reliable"): ("75dd0e7889f9fd10", "5497283c761a1b3c"),
    ("cd", "reliable"): ("d1ae9949e9f705dd", "633d19b1b59ef67c"),
    ("mc", "drop"): ("970718c78792f9e4", "ca581049eafa9a9a"),
    ("cd", "stock"): ("ad795564800c247c", "b0eeac5f832be8c3"),
    ("cr", "stock"): ("8d2e64ef515f992e", "8d2e64ef515f992e"),
    ("base", "corrupt"): ("ce24651001c1ea8b", "3d55015a6cfe9e25"),
    ("ct", "corrupt"): ("b64dca26ee0b6b99", "a8d978349036e561"),
    ("mc", "corrupt"): ("2cc8b6d3237efe55", "f2df0d553a94233d"),
    ("cd", "corrupt"): ("ad795564800c247c", "b0eeac5f832be8c3"),
    ("cr", "corrupt"): ("8d2e64ef515f992e", "8d2e64ef515f992e"),
    ("base", "partition"): ("2ce374fe98c446b5", "5dd9d4629a9ed6a8"),
    ("ct", "partition"): ("3b85772362aa386c", "096a23fe5a4b2139"),
    ("mc", "partition"): ("f08a870edf3f5426", "bdb1b86402c9d6e2"),
    ("cd", "partition"): ("ad795564800c247c", "b0eeac5f832be8c3"),
    ("cr", "partition"): ("b69f0042679328cd", "b69f0042679328cd"),
    ("base", "reliable-partition"): ("f47cf3c98da22797", "f6957c2b2c88548e"),
    ("ct", "reliable-partition"): ("524fed29fa9da0ff", "a85fe19c8298fc3c"),
    ("mc", "reliable-partition"): ("7801aac997db4dea", "7205a20eca1796a8"),
    ("cd", "reliable-partition"): ("7581012fe035cf6b", "c2b357326453d95e"),
    ("cr", "reliable-partition"): ("1e2dc5124da10305", "1e2dc5124da10305"),
    ("base", "restart"): ("00a8da37a4366875", "14d8906c93f975e8"),
    ("ct", "restart"): ("88c13e385b66faa8", "0f2de4072e55e397"),
    ("mc", "restart"): ("55ca3f887c221c38", "905c53a23e943615"),
    ("cd", "restart"): ("c21ab978b9f203fd", "ed4bc538d2e66f64"),
    ("cr", "restart"): ("b2c0a28a4c185ff2", "b2c0a28a4c185ff2"),
}

GOLDEN_WALKS = {
    "ct": ("165c4e60f9b3ece9", "e4035b68f512d049"),
    "mc": ("fc75d6d3bb3e99e6", "a96c133ac36cf3a0"),
}


def walk_hashes(variant: str) -> tuple[str, str]:
    """(hash without the additions, ``trace_hash``) of :func:`explored`'s walk."""
    outcome, _, runtime = explore_run(
        parse_cell_id(f"paper:{variant}:none:n4p1q1:s0"), ScheduleSpec.parse("rw:5")
    )
    return _sha(_dump_without_additions(runtime.trace)), outcome.trace_hash


@pytest.mark.parametrize("key", GOLDEN)
def test_fingerprints_are_those_of_the_per_peer_loops(key):
    run = fingerprint(*key)
    assert (run["trace_without_additions"], run["trace"]) == GOLDEN[key]


@pytest.mark.parametrize("variant", GOLDEN_WALKS)
def test_walks_are_those_of_the_per_peer_loops(variant):
    assert walk_hashes(variant) == GOLDEN_WALKS[variant]


if __name__ == "__main__":  # pragma: no cover - prints the goldens
    for variant in VARIANTS:
        for config in CONFIGS:
            print((variant, config), fingerprint(variant, config))
        print(variant, "walk", explored(variant), walk_hashes(variant))
