"""Tier-1 guards on what one beat, one broadcast and one delivery cost.

``py_calls_per_action`` of the perf benchmark (``benchmarks/perf``) is what
proves that every fan-out is batched and every delivery takes a constant
number of calls, but it takes 35 s and is not part of tier-1.  These run
one crash-tolerant N=16 action and one base N=32 action under ``cProfile``
— the same ``call`` + ``c_call`` events the benchmark counts, summed the
way it sums them — so a per-peer loop that creeps back into the detector or
an engine, or a per-``DONE`` barrier test, fails here in well under a
second.  Likewise one fault-free campaign cell per Member variant,
oracles included, at the ``COUNTS`` level ``run_cell`` runs it at: a record
written for nobody or an oracle query fails here, not only in the
benchmark's ``faults`` workload; one lossy cell per
variant, where the ARQ transport's per-frame path is most of the work; and
three faulted ct cells, whose fan-outs must stay one batched loop with no
fate scanning the plan's windows; and one nested base world that retries
its root action twice, whose every exit goes through one ``_leave``.

``docs/SUBSTRATES.md`` states what a delivery of each kind costs, what each
step of a sequenced frame costs and what a copy of a fan-out costs under
each fault; the three tables are generated here and checked.  Regenerate on purpose:
``PYTHONPATH=src python tests/unit/test_call_count_guard.py``.
"""

from __future__ import annotations

import cProfile
import gc
import sys
from pathlib import Path
from types import FunctionType

import pytest

from repro.core.algorithm import PROGRESS
from repro.core.messages import AckMsg
from repro.core.participant import CAParticipant
from repro.core.variants import VARIANTS, run_action
from repro.net.failures import CrashWindow, FailureInjector, FailurePlan, PartitionWindow
from repro.net.message import Message
from repro.net.network import Network
from repro.net.reliable import (
    KIND_TRANSPORT_ACK,
    UNSEQUENCED_KINDS,
    ReliableNetwork,
    _Frame,
)
from repro.simkernel.events import EventQueue
from repro.simkernel.rng import RngRegistry
from repro.simkernel.scheduler import Simulator
from repro.simkernel.trace import TraceLevel, TraceRecorder
from repro.workloads.campaigns import OK, default_matrix, observe_cell, run_cell
from repro.workloads.fuzz import build_random_scenario
from repro.workloads.generator import general_case

N, P, Q = 16, 3, 2
#: Measured 9,774 on CPython 3.11, every profile row counted (19,685 at
#: da31896, 56 of them invisible to ``pstats``: the nine generated
#: dataclass ``__init__``s share one ``pstats`` key; 12,366 before the
#: detector's beat and check timers became one tick and a delivered beat
#: stopped reading the clock); 9,710 → 9,024 once ct's progress step became
#: rows of its ``PROGRESS`` table over one ``ResolutionCtx`` (no
#: per-advance helper calls, comprehensions or ``is_suspected`` probes).
#: The ceiling is 5 % above the latter.  Later interpreters inline
#: comprehensions and count fewer events, never more.
CALL_CEILING = 9_475

#: The base engine's budget action: small enough for tier-1, big enough
#: that per-delivery terms outweigh the fixed ones.
BASE_N, BASE_P, BASE_Q = 32, 16, 8
#: Measured at N=32, da31896 → ISSUE 23, each ceiling 5 % above the
#: latter: calls per delivery 17.70 → 11.32 (fixed costs weigh more than at
#: N=256, where it is 14.8 → 8.2), ``dict.get`` c-calls 10,812 → 2,539;
#: calls per delivery 8.52 → 7.72 once a receipt whose write cannot enable
#: its state's ``PROGRESS`` row stopped running it (the ceiling is 5 %
#: above the latter).
CALLS_PER_DELIVERY_CEILING = 8.11
DICT_GET_CEILING = 2_666

#: ``run_cell`` on the first fault-free paper cell of each Member variant
#: (``default_matrix(seed=0)``: n=6, p=4, q=0), whose oracles read
#: participant state and the send counters, not the trace.
#: Measured ct 4,902 → 3,075, mc 1,105 → 783, cd 850 → 630 once
#: ``by_category`` stopped materializing every record; ct 3,075 → 2,807 and
#: mc 776 → 756 once their progress steps became ``PROGRESS`` rows (cd
#: 630 → 639: a ``ResolutionCtx`` per member and the shared commit step);
#: ct 2,343 → 1,774, mc 704 → 565, cd 603 → 491 once ``run_cell`` ran
#: paper cells at ``COUNTS`` (ct's heartbeats write no records).
#: Each ceiling is 5 % above the lowest measure.
CELL_CALL_CEILINGS = {"ct": 1_863, "mc": 593, "cd": 516}

#: ``run_cell`` on the first ``drop`` paper cell of each variant (n=6, p=4,
#: q=0, 20 % loss over the ARQ transport).  Measured base 6,846 → 5,396, ct
#: 8,543 → 7,701, mc 2,823 → 2,097, cd 1,721 → 1,346 once a frame became one
#: slotted object with its timer pushed straight on the queue and its
#: delivery unwrapped in place; ct 7,701 → 7,438, mc 2,097 → 2,080 (cd
#: 1,346 → 1,355) once the ct/mc progress steps became ``PROGRESS`` rows;
#: base 5,396 → 5,120, ct 7,438 → 5,662, mc 2,080 → 1,904, cd 1,355 → 1,306
#: once a faulted or reliable fan-out stayed one batched ``send_many`` and a
#: fate stopped scanning the plan's windows; base 4,534 → 4,088, ct 5,023 →
#: 4,120, mc 1,846 → 1,617, cd 1,268 → 1,113 once ``run_cell`` ran paper
#: cells at ``COUNTS``.  Each ceiling is 5 % above the lowest measure.
LOSSY_CELL_CALL_CEILINGS = {"base": 4_292, "ct": 4_326, "mc": 1_698, "cd": 1_169}
#: The fuzz world (n=4, FULL trace) whose root action fails its acceptance
#: test twice: 8 retries, 14 completions and 8 abortions across 5 nested
#: actions.  Measured 11,039 → 10,650 once every exit went through
#: ``_leave`` and the classification of an unentered or resolved action
#: walked the context stack once; the ceiling is 5 % above the latter.
RETRIED_WORLD_SEED = 23
RETRIED_WORLD_CALL_CEILING = 11_182
#: Every function the ARQ transport defines: the callers the lossy cells'
#: per-frame assertions look under.
TRANSPORT = [f for f in vars(ReliableNetwork).values() if isinstance(f, FunctionType)]

#: The interpreter the stated table was counted on (comprehension inlining
#: and the like move the exact counts between versions; the ceilings hold).
MEASURED_ON = (3, 11)
DOC = Path(__file__).resolve().parents[2] / "docs" / "SUBSTRATES.md"
BEGIN = "<!-- delivery-cost: generated by tests/unit/test_call_count_guard.py -->"
END = "<!-- /delivery-cost -->"
FRAME_BEGIN = "<!-- frame-cost: generated by tests/unit/test_call_count_guard.py -->"
FRAME_END = "<!-- /frame-cost -->"
FANOUT_BEGIN = "<!-- fanout-cost: generated by tests/unit/test_call_count_guard.py -->"
FANOUT_END = "<!-- /fanout-cost -->"


def profiled(run):
    """``run()`` under cProfile: its result and one ``(code, callcount)``
    row per profiled function — ``code`` is a code
    object, or a string for a builtin.  (``pstats`` keys rows by ``(file,
    line, name)`` and so folds every generated dataclass ``__init__`` into
    one row, keeping the last.)"""
    result, stats = profiled_stats(run)
    return result, [(e.code, e.callcount) for e in stats]


def profiled_stats(run):
    """``run()`` under cProfile: its result and the raw ``getstats()``
    entries, whose ``calls`` list what each function called."""
    profile = cProfile.Profile()
    result = measured(run, profile.enable, profile.disable)
    return result, profile.getstats()


def calls_from(stats, callers, callee) -> int:
    """Calls of the function ``callee`` made directly by any of ``callers``."""
    codes = {caller.__code__ for caller in callers}
    return sum(
        sub.callcount
        for entry in stats if entry.code in codes
        for sub in entry.calls or () if sub.code is callee.__code__
    )


def measured(run, start, stop):
    """``run()`` once warm, then once between ``start()`` and ``stop()`` with
    the collector off: finalizers of earlier tests' garbage (and hypothesis's
    gc hook) would otherwise add their calls wherever a collection lands."""
    run()  # imports, the tree cache
    gc.collect()
    gc.disable()
    try:
        start()
        try:
            return run()
        finally:
            stop()
    finally:
        gc.enable()


def calls_of(rows, what) -> int:
    """Calls of one function: by code object, or by name."""
    if not isinstance(what, str):
        return sum(count for code, count in rows if code is what.__code__)
    return sum(
        count for code, count in rows
        if (code if isinstance(code, str) else code.co_name) == what
    )


def ct_action():
    return run_action(
        "ct", N, P, Q, seed=1, until=VARIANTS["ct"].horizon,
        trace_level=TraceLevel.COUNTS,
    )


def base_action():
    return general_case(
        BASE_N, BASE_P, BASE_Q, seed=1, trace_level=TraceLevel.COUNTS
    ).run()


def test_one_queue_push_per_beat_and_a_ceiling_on_calls():
    result, rows = profiled(ct_action)
    assert result.all_handled() and result.messages() == (N - 1) * (2 * P + 2 * Q + 1)
    sent = result.runtime.network.sent_by_kind
    beats, rest = divmod(sent["HEARTBEAT"], N - 1)
    assert rest == 0 and beats >= 5 * N  # nobody suspected, everyone beat
    broadcasts = P + 2 * Q + 1  # Exception, HaveNested + NestedCompleted, Commit
    # One push per fan-out — beat or broadcast — plus one per unicast ACK:
    # with a per-peer loop anywhere this is (N-1) times bigger.
    assert calls_of(rows, "push_raw") == beats + broadcasts + sent["CT_ACK"]
    # A broadcast passes the participant's wrapper and the network; a beat
    # goes to the network's bound send_many directly.
    assert calls_of(rows, "send_many") == beats + 2 * broadcasts
    assert sum(count for _, count in rows) <= CALL_CEILING


def test_a_delivery_costs_a_constant_number_of_calls():
    result, rows = profiled(base_action)
    n = BASE_N
    delivered = result.runtime.network.delivered_by_kind
    assert result.status("A1").name == "COMPLETED"
    assert delivered["DONE"] == n * (n - 1)
    assert result.resolution_message_total() == (n - 1) * (2 * BASE_P + 3 * BASE_Q + 1)
    total = sum(count for _, count in rows)
    assert total / sum(delivered.values()) <= CALLS_PER_DELIVERY_CEILING
    # The whole barrier test runs when a participant asks to leave (once
    # normally, once more after its handler) and when the DONE that completes
    # its set arrives — not once per DONE, which is N(N-1)+1 of them.
    assert calls_of(rows, CAParticipant._check_barrier) <= 2 * n
    # One ACK payload per (context, ref kind), not one per reply.
    assert calls_of(rows, AckMsg.__init__) <= 2 * n
    # A PROGRESS row runs on a receipt that can enable it (a join, the ACK
    # that empties its set, a NestedCompleted, the Commit, a receipt in N),
    # not on each of the 2P+3Q+1 resolution messages a participant gets:
    # O(N) rows per participant (367 here; 1,815 when every receipt ran one).
    progress = sum(calls_of(rows, row) for row in set(PROGRESS.values()))
    assert progress <= 2 * n * (BASE_Q + 1) < n * (2 * BASE_P + 3 * BASE_Q + 1)
    assert calls_of(rows, "<method 'get' of 'dict' objects>") <= DICT_GET_CEILING


@pytest.mark.parametrize("variant", sorted(CELL_CALL_CEILINGS))
def test_a_fault_free_cell_and_its_oracles_under_a_ceiling(variant):
    cell = first_paper_cell(variant, "none")
    outcome, rows = profiled(lambda: run_cell(cell))
    assert outcome.classification == OK
    assert sum(count for _, count in rows) <= CELL_CALL_CEILINGS[variant]


def first_paper_cell(variant: str, fault: str):
    return next(
        c for c in default_matrix(seed=0)
        if c.family == "paper" and c.variant == variant and c.fault == fault
    )


@pytest.mark.parametrize("variant", sorted(LOSSY_CELL_CALL_CEILINGS))
def test_a_lossy_cell_and_its_oracles_under_a_ceiling(variant):
    cell = first_paper_cell(variant, "drop")
    outcome, stats = profiled_stats(lambda: run_cell(cell))
    rows = [(entry.code, entry.callcount) for entry in stats]
    assert outcome.classification == OK
    assert sum(count for _, count in rows) <= LOSSY_CELL_CALL_CEILINGS[variant]
    network = observe_cell(cell).runtime.network  # a deterministic re-run, for its counters
    frames, resent = sum(network._next_seq.values()), network.retransmissions
    assert resent, "the cell lost no frame"
    # One queue push per frame sent or re-sent (its rto: timer) ...
    assert calls_from(stats, TRANSPORT, EventQueue.push) == frames + resent
    # ... a Message built only to re-send (a send unrolls its own, a
    # delivery unwraps the wire message in place) ...
    assert calls_of(rows, Message.__init__) == resent
    # ... and no Simulator.schedule, so no ScheduledHandle and no closure.
    assert not calls_from(stats, TRANSPORT, Simulator.schedule)
    assert not calls_from(stats, TRANSPORT, Simulator.schedule_at)


#: ct cells whose fan-outs meet every fate: a crashed peer (plain network),
#: a partition and 20 % loss (both over the ARQ transport, whose sequenced
#: kinds are framed per copy and whose beats are datagrams).
FAULTED_FANOUT_CELLS = ("crash_participant", "partition", "drop")


@pytest.mark.parametrize("fault", FAULTED_FANOUT_CELLS)
def test_a_faulted_fan_out_stays_one_fan_out(fault):
    cell = first_paper_cell("ct", fault)
    outcome, stats = profiled_stats(lambda: run_cell(cell))
    rows = [(entry.code, entry.callcount) for entry in stats]
    assert outcome.classification == OK
    network = observe_cell(cell).runtime.network
    assert network.injector.dropped, "no fan-out copy met its fault"
    # No copy of a fan-out is a send of its own, framed or not, and none
    # asks the injector for its fate ...
    fan_out = [Network.send_many]
    assert calls_of(rows, Network.send_many) > 0
    assert not calls_from(stats, fan_out, Network.send)
    assert not calls_from(stats, fan_out, FailureInjector.decide)
    # ... and no fate scans the windows: they are read once per edge the
    # clock crosses (a crash opens one, a partition opens and closes one),
    # each reading a crash window once.
    reads = calls_of(rows, FailureInjector._read_plan)
    assert 1 <= reads <= 3
    assert calls_of(rows, CrashWindow.covers) <= reads


def retried_world():
    scenario, _ = build_random_scenario(
        RETRIED_WORLD_SEED, n_participants=4, failing_attempts=2
    )
    return scenario.run()


def test_one_exit_per_left_action_in_a_retried_world():
    result, rows = profiled(retried_world)
    trace = result.runtime.trace
    assert len(trace.by_category("action.retry")) == 2 * 4
    # Each (participant, action) left — completed, failed or aborted — is
    # one ``_leave``; a retry keeps the record and leaves nothing.
    left = trace.by_category("action.exit") + trace.by_category("abort.done")
    assert len(trace.by_category("abort.done")) > 0
    assert calls_of(rows, CAParticipant._leave) == len(left)
    assert sum(count for _, count in rows) <= RETRIED_WORLD_CALL_CEILING


# -- what a delivery of each kind costs (docs/SUBSTRATES.md) ------------------


def run_messages(frame, consumed) -> list:
    """The messages a returning ``Network._deliver_run`` frame consumed."""
    start = frame.f_locals["index"]
    return frame.f_locals["bucket"][start: start + consumed]


def calls_by_kind() -> tuple[dict[str, float], dict[str, int], int]:
    """One budget action under ``sys.setprofile``: ``call`` + ``c_call``
    events by the kind of the message being delivered, deliveries by kind,
    and the events outside any delivery.  An event inside a
    ``Network._deliver`` frame (itself included) is its message's; inside
    a ``Network._deliver_run`` frame, the message the run is delivering
    owns each event, and the run's own frame is spread evenly over the
    messages of the run."""
    deliver = Network._deliver.__code__
    run = Network._deliver_run.__code__
    inside: dict[str, float] = {}
    state = {"kind": None, "outside": 0}

    def hook(frame, event, arg):
        code = frame.f_code
        if code is deliver:
            if event == "call":
                state["kind"] = frame.f_locals["message"].kind
            elif event == "return":
                state["kind"] = None
        elif code is run:
            if event == "call":
                return  # the run's own frame: spread when it returns
            if event == "return":
                messages = run_messages(frame, arg)
                for message in messages:
                    kind = message.kind
                    inside[kind] = inside.get(kind, 0) + 1 / len(messages)
                state["kind"] = None
                return
            if event == "c_call":
                state["kind"] = frame.f_locals["message"].kind
        elif event == "call" and frame.f_back.f_code is run:
            state["kind"] = frame.f_back.f_locals["message"].kind
        if event == "call" or event == "c_call":
            kind = state["kind"]
            if kind is None:
                state["outside"] += 1
            else:
                inside[kind] = inside.get(kind, 0) + 1

    result = measured(
        base_action, lambda: sys.setprofile(hook), lambda: sys.setprofile(None)
    )
    return inside, dict(result.runtime.network.delivered_by_kind), state["outside"]


def generated_block() -> str:
    inside, delivered, outside = calls_by_kind()
    lines = [
        BEGIN,
        f"One `general_case({BASE_N}, {BASE_P}, {BASE_Q})` action at `COUNTS` on "
        f"CPython {MEASURED_ON[0]}.{MEASURED_ON[1]}:",
        "",
        "| kind | deliveries | calls | calls per delivery |",
        "|---|---|---|---|",
    ]
    for kind in sorted(delivered, key=lambda k: (-delivered[k], k)):
        lines.append(
            f"| `{kind}` | {delivered[kind]:,} | {inside[kind]:,.0f} | "
            f"{inside[kind] / delivered[kind]:.2f} |"
        )
    total = sum(inside.values()) + outside
    count = sum(delivered.values())
    lines += [
        f"| outside any delivery | — | {outside:,} | — |",
        f"| **whole action** | {count:,} | {total:,.0f} | {total / count:.2f} |",
        END,
    ]
    return "\n".join(lines)


# -- what each step of a sequenced frame costs (docs/SUBSTRATES.md) -------------


#: Transport entry points by code.  ``Network.send`` is a step only for a
#: sequenced kind (a ``T_ACK`` it sends belongs to the delivery that sends
#: it), and the receive step is named by the kind it is delivering.
FRAME_STEPS = {
    ReliableNetwork._frame.__code__: "framing",
    Network.send.__code__: "unicast send",
    ReliableNetwork._receive.__code__: "frame delivery",
    ReliableNetwork._maybe_retransmit.__code__: "retransmission",
}
STEP_ORDER = (
    "framing", "unicast send", "frame delivery", "`T_ACK` delivery", "retransmission",
)


def frame_step(frame) -> str | None:
    """The transport step a Python frame starts, if any."""
    step = FRAME_STEPS.get(frame.f_code)
    if step == "unicast send" and frame.f_locals["kind"] in UNSEQUENCED_KINDS:
        return None
    if step == "frame delivery" and frame.f_locals["message"].kind == KIND_TRANSPORT_ACK:
        return "`T_ACK` delivery"
    return step


def frame_costs() -> tuple[dict[str, list[int]], int]:
    """The lossy ``base`` cell under ``sys.setprofile``: per transport step,
    ``[runs, call + c_call events inside them]``, and the frames sent.  A
    message the receive step returns goes up in the delivery loop: its
    hand-up — the trace record, the frames it released, the handler — is
    the step's, and the upper layer's handler counts as its one call, not
    its body (the body is the engine's, in the table above).  A run of a
    frame delivery is a receive step on a wire frame; a frame it released
    takes a receive step of its own, which is no run."""
    cell = first_paper_cell("base", "drop")
    receive = ReliableNetwork._receive.__code__
    dispatch = {Network._deliver.__code__, Network._deliver_run.__code__}
    costs: dict[str, list[int]] = {}
    stack: list[tuple[object, str | None]] = []  # (frame, step; None in a handler)
    up: list[str | None] = [None]  # the step whose message is going up

    def hook(frame, event, arg):
        if event == "return":
            if stack and stack[-1][0] is frame:
                step = stack.pop()[1]
                if frame.f_code is receive:
                    up[0] = step if arg is not None else None
            elif frame.f_code in dispatch:
                up[0] = None
            return
        if event == "call":
            step = frame_step(frame)
            if step is not None:
                runs = (
                    step != "frame delivery"
                    or frame.f_locals["message"].payload.__class__ is _Frame
                )
                costs.setdefault(step, [0, 0])[0] += runs
                costs[step][1] += 1
                stack.append((frame, step))
                return
            direct = frame.f_back.f_code in dispatch
        elif event == "c_call":
            direct = frame.f_code in dispatch
        else:
            return
        owner = up[0] if direct and up[0] else (stack[-1][1] if stack else None)
        if owner is None:
            return
        costs[owner][1] += 1
        if event == "call" and direct:
            stack.append((frame, None))

    measured(lambda: run_cell(cell), lambda: sys.setprofile(hook), lambda: sys.setprofile(None))
    network = observe_cell(cell).runtime.network
    return costs, sum(network._next_seq.values())


def generated_frame_block() -> str:
    costs, frames = frame_costs()
    cell = first_paper_cell("base", "drop")
    lines = [
        FRAME_BEGIN,
        f"`run_cell` on `{cell.cell_id}` ({frames} frames) on CPython "
        f"{MEASURED_ON[0]}.{MEASURED_ON[1]}:",
        "",
        "| step | runs | calls | calls per run |",
        "|---|---|---|---|",
    ]
    for step in STEP_ORDER:
        runs, calls = costs[step]
        lines.append(f"| {step} | {runs:,} | {calls:,} | {calls / runs:.2f} |")
    total = sum(calls for _, calls in costs.values())
    lines += [f"| **per frame** | {frames:,} | {total:,} | {total / frames:.2f} |", FRAME_END]
    return "\n".join(lines)


# -- what a copy of a fan-out costs (docs/SUBSTRATES.md) -----------------------


FANOUT_PEERS = 15
FANOUTS = 64
_PEERS = [f"P{i:02d}" for i in range(FANOUT_PEERS + 1)]
#: (row, network class, kind, plan): each plan touches some copies of every
#: fan-out at the send instant.
FANOUT_ROWS = (
    ("stock", Network, "K", FailurePlan()),
    ("crash", Network, "K", FailurePlan(crashes=[CrashWindow("P01", 0.0)])),
    ("partition", Network, "K", FailurePlan(partitions=[
        PartitionWindow(frozenset(_PEERS[:8]), frozenset(_PEERS[8:]), 0.0)
    ])),
    ("drop", Network, "K", FailurePlan(drop_probability=0.2)),
    ("reliable datagram", ReliableNetwork, "HEARTBEAT", FailurePlan(drop_probability=0.2)),
    ("reliable sequenced", ReliableNetwork, "K", FailurePlan(drop_probability=0.2)),
)


def fanout_cost(cls, kind: str, plan: FailurePlan) -> float:
    """``call`` + ``c_call`` events inside ``send_many`` (its own frame
    included) per copy, over ``FANOUTS`` fan-outs from rotating sources at
    one instant; nothing is delivered."""
    rng = RngRegistry(0)
    network = cls(
        Simulator(), rng=rng,
        injector=FailureInjector(plan, rng.stream("net.failures")),
        trace=TraceRecorder(level=TraceLevel.COUNTS),
    )
    for name in _PEERS:
        network.register(name, lambda message: None)
    fan_outs = [(src, [dst for dst in _PEERS if dst != src]) for src in _PEERS]
    code = Network.send_many.__code__
    state = {"depth": 0, "calls": 0}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            state["depth"] += 1
        if state["depth"] and (event == "call" or event == "c_call"):
            state["calls"] += 1
        elif event == "return" and frame.f_code is code:
            state["depth"] -= 1

    def run():
        state["calls"] = 0
        for index in range(FANOUTS):
            src, dsts = fan_outs[index % len(fan_outs)]
            network.send_many(src, dsts, kind)

    measured(run, lambda: sys.setprofile(hook), lambda: sys.setprofile(None))
    return state["calls"] / (FANOUTS * FANOUT_PEERS)


def generated_fanout_block() -> str:
    lines = [
        FANOUT_BEGIN,
        f"{FANOUTS} fan-outs of one payload to {FANOUT_PEERS} peers at `COUNTS` "
        f"on CPython {MEASURED_ON[0]}.{MEASURED_ON[1]}, deliveries not run:",
        "",
        "| fan-out | network | plan | calls per copy |",
        "|---|---|---|---|",
    ]
    for row, cls, kind, plan in FANOUT_ROWS:
        faults = [
            label for label, on in (
                ("one peer down", plan.crashes),
                ("half the peers cut off", plan.partitions),
                (f"{plan.drop_probability:.0%} loss", plan.drop_probability),
            ) if on
        ]
        lines.append(
            f"| {row} (`{kind}`) | `{cls.__name__}` | {', '.join(faults) or 'none'} | "
            f"{fanout_cost(cls, kind, plan):.2f} |"
        )
    lines.append(FANOUT_END)
    return "\n".join(lines)


BLOCKS = (
    (BEGIN, END, generated_block),
    (FRAME_BEGIN, FRAME_END, generated_frame_block),
    (FANOUT_BEGIN, FANOUT_END, generated_fanout_block),
)


@pytest.mark.skipif(
    sys.version_info[:2] != MEASURED_ON, reason="exact counts are per interpreter"
)
def test_substrates_doc_states_what_a_delivery_costs():
    text = DOC.read_text()
    stated = text[text.index(BEGIN): text.index(END) + len(END)]
    assert stated == generated_block()


@pytest.mark.skipif(
    sys.version_info[:2] != MEASURED_ON, reason="exact counts are per interpreter"
)
def test_substrates_doc_states_what_a_frame_costs():
    text = DOC.read_text()
    stated = text[text.index(FRAME_BEGIN): text.index(FRAME_END) + len(FRAME_END)]
    assert stated == generated_frame_block()


@pytest.mark.skipif(
    sys.version_info[:2] != MEASURED_ON, reason="exact counts are per interpreter"
)
def test_substrates_doc_states_what_a_fan_out_copy_costs():
    text = DOC.read_text()
    stated = text[text.index(FANOUT_BEGIN): text.index(FANOUT_END) + len(FANOUT_END)]
    assert stated == generated_fanout_block()


if __name__ == "__main__":
    text = DOC.read_text()
    for begin, end, generate in BLOCKS:
        head, tail = text[: text.index(begin)], text[text.index(end) + len(end):]
        text = head + generate() + tail
    DOC.write_text(text)
