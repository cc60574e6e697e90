"""E24: mutation-testing smoke — do the oracles actually bite?

A green test suite only means something if it *fails* when the protocol
is wrong.  This bench applies hand-rolled mutants to the protocol
engines — :mod:`repro.core.algorithm` (base Section 4.2, rows of its
receive and progress tables included), :mod:`repro.core.crash_tolerant`,
the Section 4.5 variants :mod:`repro.core.multicast_variant` and
:mod:`repro.core.centralized_variant` and the nested abortion ct and mc
share in :mod:`repro.core.variants` — to the substrate's per-delivery
shortcuts (:mod:`repro.core.participant`'s counted exit barrier, the
DONEs it holds for an attempt not begun and the reset of an action's
``SA_i`` record on retry,
:mod:`repro.net.network`'s delivery and fan-out), to the failure detector
(:mod:`repro.net.detector`'s tick) and the transport under it
(:mod:`repro.net.reliable`: its datagrams, ACK and duplicate
suppression), and to the exploration infrastructure itself
(:mod:`repro.explore.engine` search loops and
:mod:`repro.explore.independence` labels: walks that all replay one
seed, a search that hits its budget silently, a tick that commutes with
the protocol work it can trigger).
Each is a realistic implementation slip: a dropped ACK, a swapped send
order, a guard turned permissive.  For every mutant, a shadow copy of
``src/`` is patched and a fast detection suite (campaign cells with the
invariant oracles, exact Section 4.4 counts, one schedule-explorer
replay, plus search probes) runs against it in a fresh
interpreter.

The bench passes only if **at least 90 %** of the mutants are killed
(detection exits non-zero).  Before mutating anything, the detection
suite must pass on the pristine tree — a broken suite kills nothing
honestly.

One mutant is special: ``ct-ack-before-have-nested`` reintroduces the
*real* interleaving bug the schedule explorer found (commit e01eb862,
schedule ``ch:6=1`` then, ``ch:3=1`` since the failure detector's beat and
check timers became one tick); only the explorer replay kills it, which
keeps that regression pinned forever.

    PYTHONPATH=src python benchmarks/mutation_smoke.py --smoke   # CI gate
    PYTHONPATH=src python benchmarks/mutation_smoke.py           # all mutants
    PYTHONPATH=src python benchmarks/mutation_smoke.py --check   # detection only
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
# APPEND (not insert): in --check mode the mutated shadow tree arrives
# via PYTHONPATH and must win over the pristine repo sources.
if str(SRC) not in sys.path:  # allow plain `python benchmarks/...`
    sys.path.append(str(SRC))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

DEFAULT_OUT = REPO_ROOT / "BENCH_mutation.json"
PER_MUTANT_TIMEOUT = 180.0


@dataclass(frozen=True)
class Mutant:
    """One hand-rolled defect: ``old`` must occur exactly once in ``path``."""

    mutant_id: str
    path: str  # repo-relative, under src/
    description: str
    old: str
    new: str


ALG = "src/repro/core/algorithm.py"
PARTICIPANT = "src/repro/core/participant.py"
NET = "src/repro/net/network.py"
DETECTOR = "src/repro/net/detector.py"
RELIABLE = "src/repro/net/reliable.py"
MEMBER = "src/repro/core/variants.py"
CT = "src/repro/core/crash_tolerant.py"
MC = "src/repro/core/multicast_variant.py"
CD = "src/repro/core/centralized_variant.py"
ENGINE = "src/repro/explore/engine.py"
INDEPENDENCE = "src/repro/explore/independence.py"

MUTANTS: tuple[Mutant, ...] = (
    # -- base algorithm (Section 4.2) -------------------------------------------
    Mutant(
        "alg-drop-exception-ack", ALG,
        "receiver of Exception never ACKs: resolver can't reach READY",
        """        ctx.le[m.sender] = m.exception
        self._send(self.p.name, m.sender, KIND_ACK, ctx.ack_exception)""",
        """        ctx.le[m.sender] = m.exception""",
    ),
    Mutant(
        "alg-ack-noop", ALG,
        "ACKs received but never recorded",
        """        awaited = ctx.ack_awaited.get(m.ref_kind)
        if awaited is not None:
            awaited.discard(m.sender)""",
        """        awaited = ctx.ack_awaited.get(m.ref_kind)
        if awaited is not None:
            pass""",
    ),
    Mutant(
        "alg-ready-or", ALG,
        "READY on nested-complete OR acks instead of AND",
        """            not ctx.aborting
            and ctx.lo <= ctx.nested_completed
            and not any(ctx.ack_awaited.values())""",
        """            not ctx.aborting
            and (ctx.lo <= ctx.nested_completed
                 or not any(ctx.ack_awaited.values()))""",
    ),
    Mutant(
        "alg-commit-not-broadcast", ALG,
        "resolver decides but never tells anyone",
        "        self._send_many(me, definition.others(me), KIND_COMMIT, commit)",
        "        pass  # commit never broadcast",
    ),
    Mutant(
        "alg-resolver-off-by-one", ALG,
        "resolver election slice off by one: nobody resolves",
        "            top = sorted(ctx.le, reverse=True)[: ctx.definition.resolver_group_size]",
        "            top = sorted(ctx.le, reverse=True)[: ctx.definition.resolver_group_size - 1]",
    ),
    Mutant(
        "alg-drop-nested-completed-ack", ALG,
        "NestedCompleted never ACKed: sender's ack set never drains",
        """        self._send(self.p.name, m.sender, KIND_ACK, ctx.ack_nested_completed)
        ctx.nested_completed.add(m.sender)""",
        """        ctx.nested_completed.add(m.sender)""",
    ),
    Mutant(
        "alg-forget-nested-completed", ALG,
        "NestedCompleted receipt not recorded: LO never drains",
        """        ctx.nested_completed.add(m.sender)
        if m.exception is not None:""",
        """        if m.exception is not None:""",
    ),
    Mutant(
        "alg-have-nested-rebroadcast", ALG,
        "sent_have_nested never latched: HaveNested storms per receipt",
        """            ctx.sent_have_nested = True
            ctx.aborting = True""",
        """            ctx.aborting = True""",
    ),
    Mutant(
        "alg-handler-restarted", ALG,
        "handler_scheduled latch dropped: handler starts more than once",
        "        if commit is None or ctx.handler_scheduled or ctx.aborting:",
        "        if commit is None or ctx.aborting:",
    ),
    Mutant(
        "alg-commit-ignored", ALG,
        "received Commit discarded: non-resolvers never learn the verdict",
        "            ctx.commit = m",
        "            ctx.commit = None",
    ),
    Mutant(
        "alg-no-acks-awaited", ALG,
        "raiser awaits no ACKs: resolves instantly on partial LE",
        "        ctx.ack_awaited[KIND_EXCEPTION] = set(others)",
        "        ctx.ack_awaited[KIND_EXCEPTION] = set()",
    ),
    Mutant(
        "ack-payload-wrong-ref-kind", ALG,
        "the cached Exception ACK answers a NestedCompleted: the raiser's "
        "ACK set never drains",
        "        self._send(self.p.name, m.sender, KIND_ACK, ctx.ack_nested_completed)",
        "        self._send(self.p.name, m.sender, KIND_ACK, ctx.ack_exception)",
    ),
    # -- rows of the base engine's tables -----------------------------------------
    Mutant(
        "row-stale-processed", ALG,
        "stale row: traffic of an aborted action is processed as live",
        """    "stale": (_stale,) * _ALL,""",
        """    "stale": (
        _E._on_exception, _E._on_have_nested, _E._on_nested_completed,
        _E._on_ack, _E._on_commit,
    ),""",
    ),
    Mutant(
        "row-resolved-nested-completed-unacked", ALG,
        "resolved x NESTED_COMPLETED row: a late NestedCompleted is not ACKed",
        """        self.p.send(m.sender, KIND_ACK, AckMsg(m.action, self.p.name, KIND_NESTED_COMPLETED))
""",
        "",
    ),
    Mutant(
        "row-x-ignores-acks", ALG,
        "X row: a raiser becomes ready with ACKs still awaited",
        """            and ctx.lo <= ctx.nested_completed
            and not any(ctx.ack_awaited.values())
        ):""",
        """            and ctx.lo <= ctx.nested_completed
        ):""",
    ),
    # -- which receipts skip their PROGRESS row ---------------------------------------
    Mutant(
        "progress-skip-ack-emptied", ALG,
        "the ACK that empties its set skips X's row: the raiser never "
        "becomes ready",
        """            awaited.discard(m.sender)
            if awaited:
                return None""",
        """            awaited.discard(m.sender)
            return None""",
    ),
    Mutant(
        "progress-skip-commit-held", ALG,
        "an Exception to a suspended participant skips S's row though it "
        "holds the Commit: the handler never starts when the Commit "
        "overtook that Exception",
        """        if state is PState.EXCEPTIONAL or (
            state is PState.SUSPENDED and ctx.commit is None
        ):""",
        """        if state is PState.EXCEPTIONAL or state is PState.SUSPENDED:""",
    ),
    # -- the substrate's constant cost per delivery ------------------------------
    Mutant(
        "barrier-gate-off-by-one", PARTICIPANT,
        "the DONE that completes the set does not reach the barrier test: "
        "nobody leaves",
        "        if record.leaving and arrived >= record.others:",
        "        if record.leaving and arrived > record.others:",
    ),
    Mutant(
        "next-attempt-done-counted", PARTICIPANT,
        "a faster peer's DONE of the next attempt is counted against this "
        "participant's current attempt instead of held: the retry waits for "
        "a DONE already spent",
        "        if record is None or record.attempt != done.epoch:",
        "        if record is None or record.attempt > done.epoch:",
    ),
    Mutant(
        "retry-keeps-done-sent", PARTICIPANT,
        "a retried action's record keeps its DONE-sent flag: the next "
        "attempt never broadcasts DONE, so no peer leaves",
        "        record.done_sent = record.leaving = False\n",
        "        record.leaving = False\n",
    ),
    Mutant(
        "send-many-ids-misaligned", NET,
        "the block of ids is one short: the last copy of a fan-out is never built",
        "        ids = islice(_message_mod._msg_ids, count)",
        "        ids = islice(_message_mod._msg_ids, count - 1)",
    ),
    Mutant(
        "send-many-delivers-to-unreachable", NET,
        "the batched loop reads only the drop draw: a copy to a crashed or "
        "partitioned peer is sent as if the peer were up",
        "                if everyone or dst in unreachable or (drop_p and draw() < drop_p):",
        "                if everyone or (drop_p and draw() < drop_p):",
    ),
    Mutant(
        "send-many-corrupt-before-drop", NET,
        "the batched loop draws corrupt before drop: each copy's fate, and "
        "every draw after it, differs from decide()'s",
        """                if everyone or dst in unreachable or (drop_p and draw() < drop_p):
                    message.dropped = True""",
        """                if not (everyone or dst in unreachable) and corrupt_p and draw() < corrupt_p:
                    message.corrupted = True
                    injector.corrupted += 1
                elif everyone or dst in unreachable or (drop_p and draw() < drop_p):
                    message.dropped = True""",
    ),
    Mutant(
        "deliver-fallback-skipped", NET,
        "a run of deliveries drops a kind absent from the kind map instead of "
        "handing it to receive / on_unhandled",
        """                            except KeyError:
                                handler = target[0]""",
        """                            except KeyError:
                                break""",
    ),
    Mutant(
        "deliver-one-fallback-skipped", NET,
        "a single delivery (step(), the explorer, a release after a dead "
        "letter) drops a kind absent from the kind map instead of handing it "
        "to receive / on_unhandled",
        """                    except KeyError:
                        handler = target[0]""",
        """                    except KeyError:
                        return""",
    ),
    Mutant(
        "receive-step-before-crash-check", NET,
        "a run of deliveries runs the transport's receive step before the "
        "crash check: a frame that lands on a crashed endpoint consumes its "
        "seq, and its retransmission is dropped as a duplicate",
        """                while True:
                    dst = message.dst""",
        """                while True:
                    if receive is not None and (message := receive(message)) is None:
                        break
                    dst = message.dst""",
    ),
    # -- the failure detector and the transport under it -------------------------
    Mutant(
        "tick-checks-before-beating", DETECTOR,
        "the tick suspects before it beats: the peer it suspects misses the "
        "beat of that instant",
        """        self._send_many(obj.name, self.alive_peers(), KIND_HEARTBEAT)
        sim = obj.runtime.sim
        now = sim.now
        # ``start`` stamped every peer, so ``last_seen`` is total here.
        last_seen, suspected = self.last_seen, self.suspected
        for peer in self.peers:
            if peer not in suspected and now - last_seen[peer] > self.timeout:
                self._suspect(peer, now)""",
        """        sim = obj.runtime.sim
        now = sim.now
        # ``start`` stamped every peer, so ``last_seen`` is total here.
        last_seen, suspected = self.last_seen, self.suspected
        for peer in self.peers:
            if peer not in suspected and now - last_seen[peer] > self.timeout:
                self._suspect(peer, now)
        self._send_many(obj.name, self.alive_peers(), KIND_HEARTBEAT)""",
    ),
    Mutant(
        "tick-rearms-stale-generation", DETECTOR,
        "a tick of a stopped generation keeps beating and re-arming",
        """        if generation != self._generation or obj.crashed:
            return""",
        """        if obj.crashed:
            return""",
    ),
    Mutant(
        "heartbeat-sent-sequenced", RELIABLE,
        "a beat goes through ARQ again: framed, acknowledged, retransmitted",
        "    _unframed = UNSEQUENCED_KINDS",
        "    _unframed = frozenset((KIND_TRANSPORT_ACK,))",
    ),
    Mutant(
        "corrupt-datagram-delivered", RELIABLE,
        "only a corrupted ACK is checksum-dropped: a corrupted beat counts as life",
        """        if kind in UNSEQUENCED_KINDS:
            if message.corrupted:""",
        """        if kind in UNSEQUENCED_KINDS:
            if message.corrupted and kind == KIND_TRANSPORT_ACK:""",
    ),
    Mutant(
        "ack-leaves-timer-armed", RELIABLE,
        "the T_ACK retires the frame but not its timer: a ghost rto: wakeup "
        "outlives every settled exchange",
        """            if settled is not None:
                settled.timer.cancel()
            return None""",
        """            return None""",
    ),
    Mutant(
        "duplicate-frame-redelivered", RELIABLE,
        "a duplicate frame falls through to in-order delivery: handed up twice",
        """            self.trace.record(self.sim.now, "msg.duplicate", dst, src=src, seq=seq)
            return None""",
        """            self.trace.record(self.sim.now, "msg.duplicate", dst, src=src, seq=seq)""",
    ),
    Mutant(
        "tick-touches-beat-only", INDEPENDENCE,
        "the explorer treats a tick as touching only beat state: a suspicion "
        "racing a protocol delivery is never explored",
        """    if head in _LOCAL_PREFIXES and len(parts) >= 2 and parts[-1]:
        return EventMeta(label, touched=frozenset((parts[-1],)))""",
        """    if head in _LOCAL_PREFIXES and len(parts) >= 2 and parts[-1]:
        if head == "hb":
            return EventMeta(label, touched=frozenset((parts[-1] + "::beat",)))
        return EventMeta(label, touched=frozenset((parts[-1],)))""",
    ),
    # -- crash-tolerant variant ------------------------------------------------
    Mutant(
        "ct-ack-before-have-nested", CT,
        "the explorer-found ordering bug: ACK overtakes HaveNested",
        """        if self.nested_depth > 0 and not ctx.sent_have_nested:
            self._maybe_start_abort()
        self.send(payload.sender, KIND_CT_ACK, ctx.ack_exception)""",
        """        self.send(payload.sender, KIND_CT_ACK, ctx.ack_exception)
        if self.nested_depth > 0 and not ctx.sent_have_nested:
            self._maybe_start_abort()""",
    ),
    Mutant(
        "ct-no-acks-missing", CT,
        "raiser awaits no ACKs: commits before the group is informed",
        "        ctx.ack_awaited[KIND_CT_EXCEPTION] = set(self.detector.alive_peers())",
        "        ctx.ack_awaited[KIND_CT_EXCEPTION] = set()",
    ),
    Mutant(
        "ct-ack-noop", CT,
        "ACKs received but never recorded",
        "        ctx.ack_awaited[KIND_CT_EXCEPTION].discard(message.src)\n",
        "",
    ),
    Mutant(
        "ct-commit-without-acks", CT,
        "resolver skips the ACK barrier entirely",
        """            ctx.ack_awaited[KIND_CT_EXCEPTION] - suspected
            or ctx.lo - ctx.nested_completed - suspected""",
        """            ctx.lo - ctx.nested_completed - suspected""",
    ),
    Mutant(
        "ct-no-takeover", CT,
        "survivors never take over a dead resolver",
        """        if self.raisers - suspected or ctx.lo - ctx.nested_completed - suspected:
            return""",
        """        if True:
            return""",
    ),
    Mutant(
        "ct-have-nested-silent", CT,
        "nested member aborts without announcing HaveNested",
        """        ctx.sent_have_nested = True
        self._checkpoint("aborting")
        self.send_many(
            self.detector.alive_peers(), KIND_CT_HAVE_NESTED,
            HaveNestedMsg(self.action, self.name),
        )""",
        """        ctx.sent_have_nested = True
        self._checkpoint("aborting")""",
    ),
    Mutant(
        "ct-suspect-no-advance", CT,
        "suspicion recorded but progress never re-evaluated",
        """        ctx.ack_awaited[KIND_CT_EXCEPTION].discard(peer)
        self.PROGRESS[ctx.state](self)""",
        """        ctx.ack_awaited[KIND_CT_EXCEPTION].discard(peer)""",
    ),
    Mutant(
        "ct-resolver-never-handles", CT,
        "resolver commits but never starts its own handler",
        """        if self.name == max(self.raisers - suspected):
            commit_step(self, ctx, self._send_commit, self._start_handler)""",
        """        if self.name == max(self.raisers - suspected):
            commit_step(self, ctx, self._send_commit, None)""",
    ),
    Mutant(
        "ct-commit-not-adopted", CT,
        "suspended members drop the verdict instead of adopting it",
        """            ctx.commit = payload
            self._start_handler(payload.exception, message.msg_id)
            return""",
        """            return""",
    ),
    Mutant(
        "ct-progress-rows-swapped", CT,
        "PROGRESS rows X and S swapped: a raiser waits to take over, a "
        "suspended member to be the biggest raiser, and nobody commits",
        """        PState.NORMAL: _take_over, PState.EXCEPTIONAL: _ready,
        PState.SUSPENDED: _take_over,""",
        """        PState.NORMAL: _take_over, PState.EXCEPTIONAL: _take_over,
        PState.SUSPENDED: _ready,""",
    ),
    # -- ct fan-out peer sets: whole group vs unsuspected peers vs self ----------
    Mutant(
        "ct-exception-to-alive-only", CT,
        "Exception skips suspected peers: a falsely suspected one never learns",
        "            self.detector.peers, KIND_CT_EXCEPTION,",
        "            self.detector.alive_peers(), KIND_CT_EXCEPTION,",
    ),
    Mutant(
        "ct-exception-to-self-too", CT,
        "Exception broadcast includes the raiser itself",
        "            self.detector.peers, KIND_CT_EXCEPTION,",
        "            self.group, KIND_CT_EXCEPTION,",
    ),
    Mutant(
        "ct-have-nested-to-whole-group", CT,
        "HaveNested also goes to suspected peers",
        "            self.detector.alive_peers(), KIND_CT_HAVE_NESTED,",
        "            self.detector.peers, KIND_CT_HAVE_NESTED,",
    ),
    Mutant(
        "ct-nested-completed-to-whole-group", CT,
        "NestedCompleted also goes to suspected peers",
        "        self.send_many(self.detector.alive_peers(), kind, payload)",
        "        self.send_many(self.detector.peers, kind, payload)",
    ),
    Mutant(
        "ct-commit-to-alive-only", CT,
        "Commit skips suspected peers: a falsely suspected one never converges",
        """        # genuinely dead one simply never receives it (crash = silence).
        self.send_many(self.detector.peers, KIND_CT_COMMIT, commit)""",
        """        # genuinely dead one simply never receives it (crash = silence).
        self.send_many(self.detector.alive_peers(), KIND_CT_COMMIT, commit)""",
    ),
    Mutant(
        "ct-commit-to-self-too", CT,
        "Commit broadcast includes the resolver itself",
        """        # genuinely dead one simply never receives it (crash = silence).
        self.send_many(self.detector.peers, KIND_CT_COMMIT, commit)""",
        """        # genuinely dead one simply never receives it (crash = silence).
        self.send_many(self.group, KIND_CT_COMMIT, commit)""",
    ),
    Mutant(
        "ct-commit-extend-to-alive-only", CT,
        "an extended Commit skips the peers its sender suspects",
        "                self.send_many(self.detector.peers, KIND_CT_COMMIT, commit)",
        "                self.send_many(self.detector.alive_peers(), KIND_CT_COMMIT, commit)",
    ),
    Mutant(
        "ct-rejoin-req-to-self-too", CT,
        "a restarted member asks itself to rejoin",
        "            self.detector.peers, KIND_CT_REJOIN_REQ,",
        "            self.group, KIND_CT_REJOIN_REQ,",
    ),
    # -- the Member shell's nested abortion, shared by ct and mc ----------------
    Mutant(
        "member-signal-not-joined", MEMBER,
        "an aborting member leaves its own abortion signal out of its LE: "
        "it sends the signal but resolves without it",
        """        ctx.nested_completed.add(self.name)
        if signal is not None:
            ctx.le[self.name] = signal""",
        """        ctx.nested_completed.add(self.name)""",
    ),
    # -- the Section 4.5 variants: multicast and centralised -------------------
    Mutant(
        "mc-exception-no-flush", MC,
        "a peer's Exception gets no flush: the status round never completes",
        """        self.ctx.le[payload.sender] = payload.exception
        self._flush()""",
        """        self.ctx.le[payload.sender] = payload.exception""",
    ),
    Mutant(
        "mc-nested-completed-unrecorded", MEMBER,
        "a NestedCompleted is not recorded (mc and ct share the effect): "
        "the resolver awaits it forever",
        "        ctx.nested_completed.add(payload.sender)\n",
        "",
    ),
    Mutant(
        "mc-commit-before-statuses", MC,
        "a raiser resolves before every status is in: each commits its own",
        """            set(self.statuses) != self.members
            or not ctx.lo""",
        """            not ctx.lo""",
    ),
    Mutant(
        "cd-suspended-silent", CD,
        "a suspended member never sends CD_STATUS: the coordinator waits forever",
        """        self.send(
            self.coordinator,
            KIND_CD_STATUS,
            CdStatus(self.action, self.name, None),
        )""",
        "        pass  # the suspension is never answered",
    ),
    Mutant(
        "cd-commit-before-statuses", CD,
        "the coordinator commits before every status is in: the first raise wins",
        "        if self.ctx.commit is None and self.statuses == set(self.members):",
        "        if self.ctx.commit is None:",
    ),
    # -- exploration infrastructure (search drivers) ---------------------------------
    Mutant(
        "walk-seed-pinned", ENGINE,
        "every random walk of a search replays the search's first seed",
        """            (cell.cell_id, f"rw:{seed + walk}", window, max_choice_points)""",
        """            (cell.cell_id, f"rw:{seed}", window, max_choice_points)""",
    ),
    Mutant(
        "dfs-budget-silent", ENGINE,
        "DFS hits max_runs but never says the budget ran out",
        """                if schedules_run + pruned >= max_runs:
                    exhaustive = False
                    budget_exhausted = True
                    break""",
        """                if schedules_run + pruned >= max_runs:
                    exhaustive = False
                    break""",
    ),
)

#: CI subset: one per defect family, all certain kills, plus the
#: explorer-replay special and one probe per exploration-infra family.
SMOKE_IDS = (
    "alg-drop-exception-ack", "alg-ready-or", "alg-handler-restarted",
    "alg-commit-not-broadcast", "ct-ack-before-have-nested",
    "ct-no-acks-missing", "ct-resolver-never-handles", "ct-commit-not-adopted",
    "ct-commit-to-alive-only", "mc-exception-no-flush", "cd-suspended-silent",
    "walk-seed-pinned",
    "barrier-gate-off-by-one", "retry-keeps-done-sent", "deliver-fallback-skipped",
    "send-many-delivers-to-unreachable",
    "tick-checks-before-beating", "heartbeat-sent-sequenced",
    "duplicate-frame-redelivered", "tick-touches-beat-only",
    "member-signal-not-joined",
)


# -- detection suite --------------------------------------------------------------


def detection_problems() -> list[str]:
    """Fast oracle pass; any returned problem means "mutant detected".

    Runs under whatever ``repro`` is first on ``sys.path`` — the caller
    points that at a mutated shadow tree.
    """
    from repro.explore import run_digest
    from repro.workloads.campaigns import (
        CampaignCell,
        classify_observation,
        observe_cell,
    )

    problems: list[str] = []
    cells = (
        # Base: nested + suspended member + exact (N-1)(2P+3Q+1) count.
        CampaignCell("paper", "base", "none", 4, 2, 1, seed=0),
        # Crash-tolerant: nested abortion + exact (N-1)(2P+2Q+1) count.
        CampaignCell("paper", "ct", "none", 3, 1, 1, seed=0),
        # The detector must carry the protocol over a participant crash...
        CampaignCell("paper", "ct", "crash_participant", 3, 2, 0, seed=0),
        # ...and survivors must take over a crashed (sole) resolver.
        CampaignCell("paper", "ct", "crash_resolver", 3, 1, 0, seed=0),
        # The Section 4.5 variants at their exact closed forms: mc with a
        # nested member, cd with a coordinator and two raisers.
        CampaignCell("paper", "mc", "none", 4, 2, 1, seed=0),
        CampaignCell("paper", "cd", "none", 4, 2, 0, seed=0),
    )
    for cell in cells:
        try:
            obs = observe_cell(cell, run_until=200.0)
            classification, violations = classify_observation(cell, obs)
        except Exception as exc:  # any engine crash is a detection
            problems.append(f"{cell.cell_id}: {type(exc).__name__}: {exc}")
            continue
        if classification != "OK":
            problems.append(
                f"{cell.cell_id}: {classification} {list(violations)}"
            )
    # The paper's Example 2: the one base world here whose resolver raised
    # through an abortion handler's signal, so it is the NestedCompleted
    # ACKs, not the Exception ACKs, that make it ready.
    try:
        from repro.workloads.generator import example2_scenario

        handled = example2_scenario().run().handlers_started("A1")
        if len(handled) != 4 or len(set(handled.values())) != 1:
            problems.append(f"example2: handlers started in A1: {handled}")
    except Exception as exc:
        problems.append(f"example2: {type(exc).__name__}: {exc}")
    problems.extend(_rare_row_problems())
    problems.extend(_retry_problems())
    problems.extend(_held_done_problems())
    problems.extend(_verdict_problems())
    problems.extend(_signal_problems())
    # The interleaving that once broke the ct ACK/HaveNested ordering
    # (fixed in commit 01eb862; only this replay catches a reintroduction).
    try:
        outcome = run_digest("paper:ct:none:n3p1q1:s0", "ch:3=1")
        if outcome.classification != "OK":
            problems.append(
                f"explore ch:3=1: {outcome.classification} "
                f"{list(outcome.violations)}"
            )
    except Exception as exc:
        problems.append(f"explore ch:3=1: {type(exc).__name__}: {exc}")
    problems.extend(_fanout_problems())
    problems.extend(_delivery_problems())
    problems.extend(_faulted_fanout_problems())
    problems.extend(_detector_problems())
    problems.extend(_transport_problems())
    problems.extend(_explore_infra_problems())
    return problems


def _rare_row_problems() -> list[str]:
    """Base worlds that reach the receive table's rarer rows: a
    NestedCompleted that trails the Commit (still ACKed, so the Section 4.4
    count stays exact), traffic of an aborted nested action (dropped, so
    the fuzz invariants hold) and an Exception that a Commit overtook (its
    suspended receiver's row must run, or the handler never starts)."""
    from repro.net.latency import UniformLatency
    from repro.workloads.fuzz import build_random_scenario, check_invariants
    from repro.workloads.generator import expected_general_messages, general_case

    problems = []
    try:
        late = general_case(5, 2, 2, latency=UniformLatency(0.5, 3.0), seed=5).run()
        if late.resolution_message_total() != expected_general_messages(5, 2, 2):
            problems.append(f"late NestedCompleted: {late.messages_by_kind()}")
    except Exception as exc:
        problems.append(f"late NestedCompleted: {type(exc).__name__}: {exc}")
    try:
        scenario, plan = build_random_scenario(56, n_participants=4, max_depth=3)
        problems += [f"stale traffic: {v}" for v in check_invariants(scenario.run(), plan)]
    except Exception as exc:
        problems.append(f"stale traffic: {type(exc).__name__}: {exc}")
    try:
        scenario, plan = build_random_scenario(483, n_participants=3)
        problems += [f"Commit first: {v}" for v in check_invariants(scenario.run(), plan)]
    except Exception as exc:
        problems.append(f"Commit first: {type(exc).__name__}: {exc}")
    return problems


def _retry_problems() -> list[str]:
    """A nested base world whose root action fails its acceptance test
    twice: every attempt's exit line must be crossed by every member, so
    all three attempts run and every behaviour finishes."""
    from repro.workloads.fuzz import build_random_scenario, check_invariants

    try:
        scenario, plan = build_random_scenario(23, n_participants=4, failing_attempts=2)
        result = scenario.run()
        problems = [f"retried world: {v}" for v in check_invariants(result, plan)]
        attempts = result.manager.attempt_of(plan.actions[0].name)
        if attempts != 3:
            problems.append(f"retried world: {attempts} attempts, not 3")
        return problems
    except Exception as exc:
        return [f"retried world: {type(exc).__name__}: {exc}"]


def _held_done_problems() -> list[str]:
    """DONEs the exit barrier cannot count yet, which no world above sends,
    driven by hand into one member of a three-member action that fails its
    first acceptance test: a peer's DONE that arrives before this member
    enters, and a faster peer's DONE of the next attempt.  Both must be
    held and counted later, so the second attempt's barrier opens."""
    from repro.core.action import ActionRegistry, CAActionDef
    from repro.core.manager import CAActionManager
    from repro.core.messages import KIND_DONE, DoneMsg
    from repro.core.participant import CAParticipant
    from repro.exceptions import HandlerSet, ResolutionTree, UniversalException
    from repro.net.message import Message
    from repro.objects.runtime import Runtime

    verdicts = iter([False, True])
    tree = ResolutionTree(UniversalException)
    registry = ActionRegistry()
    registry.declare(CAActionDef(
        "A1", ("O1", "O2", "O3"), tree,
        acceptance=lambda: next(verdicts), max_attempts=2,
    ))
    manager, runtime = CAActionManager(registry), Runtime()
    for name in ("O1", "O2", "O3"):
        runtime.register(CAParticipant(
            name, registry, manager, {"A1": HandlerSet.completing_all(tree)}
        ))
    member = runtime.objects["O1"]
    exits: list[str] = []
    member.on_action_exit = lambda action, outcome, exc: exits.append(outcome)

    def done(sender: str, epoch: int) -> None:
        member.receive(Message(
            src=sender, dst="O1", kind=KIND_DONE, payload=DoneMsg("A1", sender, epoch)
        ))

    try:
        done("O2", 1)  # O1 has not entered A1 yet
        member.enter_action("A1")
        member.request_leave("A1")
        done("O2", 2)  # O2 is through its retry already
        done("O3", 1)  # the first attempt's barrier: O1 retries
        done("O3", 2)
        member.request_leave("A1")
    except Exception as exc:
        return [f"held DONEs: {type(exc).__name__}: {exc}"]
    return [] if exits == ["completed"] else [f"held DONEs: exits {exits}"]


def _verdict_problems() -> list[str]:
    """Two raisers of sibling leaves must be resolved to their join, the
    root: a resolver that decides before every raise is in still agrees
    with itself, at the exact count, on one raiser's leaf."""
    from repro.core.variants import run_action

    problems = []
    for variant in ("mc", "cd"):
        try:
            run = run_action(variant, 4, 2)
            if not run.all_handled() or run.handled_exceptions() != {"UniversalException"}:
                problems.append(f"verdict {variant}: {run.handled()}")
        except Exception as exc:
            problems.append(f"verdict {variant}: {type(exc).__name__}: {exc}")
    return problems


def _signal_problems() -> list[str]:
    """A nested member that signals on aborting and then resolves must
    resolve over its own signal too: the leaf and the signal are siblings,
    so every verdict is their join, the root.  ct: the raiser dies after
    its raise and the nested member, the one survivor, takes over.  mc: the
    nested member is the biggest name in LE, so it is the resolver."""
    from repro.core.multicast_variant import MulticastParticipant
    from repro.core.variants import run_action
    from repro.exceptions import (
        HandlerSet, ResolutionTree, UniversalException, declare_exception,
    )
    from repro.objects.runtime import Runtime

    problems = []
    try:
        run = run_action(
            "ct", 2, 1, 1, nested_signal=True, crashes=[("O0000", 10.2)]
        )
        if run.handled() != {"O0001": "UniversalException"}:
            problems.append(f"signal ct: {run.handled()}")
    except Exception as exc:
        problems.append(f"signal ct: {type(exc).__name__}: {exc}")
    try:
        leaf, signal = declare_exception("McLeaf"), declare_exception("McSig")
        tree = ResolutionTree(
            UniversalException, {leaf: UniversalException, signal: UniversalException}
        )
        handlers = HandlerSet.completing_all(tree)
        names = ("O0000", "O0001")
        runtime = Runtime()
        runtime.membership.create("GA", list(names))
        members = [
            MulticastParticipant(
                name, "A1", "GA", names, tree, handlers,
                nested_depth=index, abort_signal=signal if index else None,
            )
            for index, name in enumerate(names)
        ]
        for member in members:
            runtime.register(member)
        runtime.sim.schedule(1.0, lambda: members[0].raise_exception(leaf))
        runtime.run()
        handled = [m.handled.name() if m.handled else None for m in members]
        if handled != ["UniversalException"] * 2:
            problems.append(f"signal mc: {handled}")
    except Exception as exc:
        problems.append(f"signal mc: {type(exc).__name__}: {exc}")
    return problems


def _fanout_problems() -> list[str]:
    """Who each ct broadcast reaches, counted where the peer sets differ.

    Exception, Commit and RejoinReq go to the whole group bar the sender;
    HaveNested and NestedCompleted to the unsuspected peers only.  In a
    fault-free run the two sets are equal, so each world below has a
    suspected member when the broadcast in question goes out.
    """
    from repro.core.variants import run_action
    from repro.net.latency import UniformLatency

    worlds = (
        # O0003 dies at t=1 and is suspected before the raise: 3 copies of
        # the Exception and the Commit, 2 of each nested announcement.
        (
            "dead-before-raise",
            dict(n=4, p=1, q=1, crashes=[("O0003", 1.0)], raise_at=12.0),
            {"CT_EXCEPTION": 3, "CT_ACK": 2, "CT_HAVE_NESTED": 2,
             "CT_NESTED_COMPLETED": 2, "CT_COMMIT": 3},
        ),
        # Latency beyond the timeout: O0001, suspecting O0002 since t=8, is
        # passed over by the resolver, extends the Commit it is offered at
        # t=20.2 and re-broadcasts it to both others, suspected or not.
        (
            "commit-extend",
            dict(n=3, p=2, seed=1, latency=UniformLatency(0.5, 9.0),
                 hb_timeout=6.5, until=400.0),
            {"CT_EXCEPTION": 4, "CT_ACK": 3, "CT_COMMIT": 5},
        ),
        # O0003 dies mid-resolution and comes back: one RejoinReq per peer.
        (
            "restart",
            dict(n=4, p=2, crashes=[("O0003", 10.5)], hb_timeout=12.0,
                 restart_at=16.0),
            {"CT_EXCEPTION": 8, "CT_ACK": 6, "CT_COMMIT": 3,
             "CT_REJOIN_REQ": 3, "CT_REJOIN_REPLY": 3},
        ),
    )
    problems = []
    for label, world, expected in worlds:
        try:
            world = dict(world)
            run = run_action(
                "ct", world.pop("n"), world.pop("p"), world.pop("q", 0), **world
            )
            sent = {
                kind: count
                for kind, count in run.runtime.network.sent_by_kind.items()
                if kind != "HEARTBEAT"
            }
            if sent != expected or not run.all_handled():
                problems.append(
                    f"fan-out {label}: sent {sent}, handled {run.handled()}"
                )
        except Exception as exc:
            problems.append(f"fan-out {label}: {type(exc).__name__}: {exc}")
    return problems


def _faulted_fanout_problems() -> list[str]:
    """A faulted fan-out is the per-send loop, fate for fate: a copy to a
    crashed or cut-off peer is dropped at the send, and each copy draws
    drop before corrupt.  Compared on twin networks, ids aligned."""
    from repro.net.failures import (
        CrashWindow, FailureInjector, FailurePlan, PartitionWindow,
    )
    from repro.net.message import reset_msg_ids
    from repro.net.network import Network
    from repro.simkernel import RngRegistry, Simulator

    names = [f"P{i}" for i in range(6)]
    plans = {
        "crash": FailurePlan(crashes=[CrashWindow("P2", 0.0)]),
        "partition": FailurePlan(partitions=[
            PartitionWindow(frozenset(names[:3]), frozenset(names[3:]), 0.0)
        ]),
        "drop-corrupt": FailurePlan(drop_probability=0.3, corrupt_probability=0.3),
    }

    def fates(plan, batched: bool) -> tuple:
        reset_msg_ids()
        rng = RngRegistry(0)
        network = Network(
            Simulator(), rng=rng,
            injector=FailureInjector(plan, rng.stream("net.failures")),
        )
        for name in names:
            network.register(name, lambda message: None)
        sent = []
        for src in names:
            dsts = [dst for dst in names if dst != src]
            if batched:
                sent += network.send_many(src, dsts, "K")
            else:
                sent += [network.send(src, dst, "K") for dst in dsts]
        network.sim.run()
        injector = network.injector
        return (
            [(m.msg_id, m.dst, m.dropped, m.corrupted) for m in sent],
            injector.dropped, injector.corrupted, network.trace.dump(),
        )

    problems = []
    for label, plan in plans.items():
        try:
            if fates(plan, batched=True) != fates(plan, batched=False):
                problems.append(f"faulted fan-out {label}: fates differ from the loop")
        except Exception as exc:
            problems.append(f"faulted fan-out {label}: {type(exc).__name__}: {exc}")
    return problems


def _delivery_problems() -> list[str]:
    """What the network owes every endpoint, whatever it costs: a fan-out
    takes the ids the per-send loop would, and a kind the object registered
    no handler for still reaches ``on_unhandled`` — in a run of deliveries
    (``run()``) and in a single one (``step()``)."""
    from repro.net.message import reset_msg_ids
    from repro.objects.base import DistributedObject
    from repro.objects.runtime import Runtime

    class Recorder(DistributedObject):
        def __init__(self, name: str) -> None:
            super().__init__(name)
            self.unhandled: list[int] = []
            self.on_kind("KNOWN", lambda message: None)

        def on_unhandled(self, message) -> None:
            self.unhandled.append(message.msg_id)

    problems = []
    for drain in ("run", "step"):
        try:
            reset_msg_ids()
            runtime = Runtime()
            objects = [Recorder(f"R{i}") for i in range(4)]
            for obj in objects:
                runtime.register(obj)
            first = objects[0].send("R1", "KNOWN").msg_id
            ids = [m.msg_id for m in objects[0].send_many(["R1", "R2", "R3"], "UNKNOWN")]
            after = objects[0].send("R1", "KNOWN").msg_id
            if drain == "run":
                runtime.run()
            else:
                while runtime.sim.step():
                    pass
            got = [obj.unhandled for obj in objects[1:]]
            if [first, *ids, after] != [1, 2, 3, 4, 5] or got != [[2], [3], [4]]:
                problems.append(
                    f"delivery by {drain}: ids {first} {ids} {after}, unhandled {got}"
                )
        except Exception as exc:
            problems.append(f"delivery by {drain}: {type(exc).__name__}: {exc}")
    return problems


def _detector_problems() -> list[str]:
    """What the failure detector and its transport owe each other, probed
    on bare detectors: a tick beats before it checks (the peer it suspects
    still gets that instant's beat), a stopped detector beats no more, a
    beat over the reliable transport is a datagram (no transport ACK, no
    retransmission) whose corruption proves no life, and the explorer keeps
    a tick dependent with its object's protocol deliveries."""
    from repro.explore.independence import event_meta, independent
    from repro.net.detector import KIND_HEARTBEAT, Heartbeater
    from repro.net.failures import FailurePlan
    from repro.objects import DistributedObject, Runtime

    def world(names, **runtime_options):
        runtime = Runtime(**runtime_options)
        detectors = {}
        for name in names:
            obj = DistributedObject(name)
            runtime.register(obj)
            detectors[name] = Heartbeater(obj, names, interval=1.0, timeout=4.0)
        return runtime, detectors

    def beats(runtime, src, dst):
        return [
            e.time for e in runtime.trace.by_category("msg.send")
            if e.subject == src and e.details["dst"] == dst
            and e.details["kind"] == KIND_HEARTBEAT
        ]

    problems = []
    try:
        runtime, detectors = world(("a", "b", "c"))
        for detector in detectors.values():
            detector.start()
        runtime.sim.schedule(2.5, lambda: runtime.crash_node("node:c"))
        runtime.run(until=12.5)
        suspected = [
            e.time for e in runtime.trace.by_category("detector.suspect")
            if e.subject == "a"
        ]
        if suspected != [max(beats(runtime, "a", "c"))]:
            problems.append(
                f"tick order: a suspected c at {suspected}, beat it at "
                f"{beats(runtime, 'a', 'c')}"
            )
        runtime, detectors = world(("a", "b"))
        for detector in detectors.values():
            detector.start()
        runtime.run(until=2.5)
        detectors["a"].stop()
        runtime.run(until=6.5)
        if max(beats(runtime, "a", "b")) > 2.5:
            problems.append(f"stopped detector beat at {beats(runtime, 'a', 'b')}")
        runtime, detectors = world(("a", "b"), reliable=True)
        detectors["a"].obj.send("b", KIND_HEARTBEAT)
        runtime.run()
        network = runtime.network
        if network.transport_acks or network.retransmissions or network._pending:
            problems.append(
                f"beat sequenced: {network.transport_acks} transport ACKs, "
                f"{network.retransmissions} retransmissions"
            )
        runtime, detectors = world(
            ("a", "b"), reliable=True,
            failure_plan=FailurePlan(corrupt_probability=1.0),
        )
        detectors["b"].last_seen["a"] = -1.0
        detectors["a"].obj.send("b", KIND_HEARTBEAT)
        runtime.run(until=50.0)
        if detectors["b"].last_seen["a"] != -1.0:
            problems.append("a corrupted beat refreshed last_seen")
    except Exception as exc:
        problems.append(f"detector: {type(exc).__name__}: {exc}")
    tick, delivery = event_meta("hb:O0000"), event_meta("deliver:CT_ACK:O0001->O0000")
    if independent(tick, delivery):
        problems.append("explorer: a tick commutes with its object's protocol delivery")
    return problems


def _transport_problems() -> list[str]:
    """What the ARQ transport owes one sequenced frame, probed on a bare
    network: a settled exchange leaves no timer behind (the run ends when
    the ACK lands), a frame whose ACK was lost is handed up once, its
    retransmission dropped as a duplicate and acknowledged again, and a
    frame that lands on a crashed receiver is lost, not consumed: its
    retransmission is handed up once the receiver is back."""
    from repro.net.failures import CrashWindow, FailureInjector, FailurePlan
    from repro.net.latency import ConstantLatency
    from repro.net.reliable import ReliableNetwork
    from repro.simkernel import RngRegistry, Simulator

    class DropFirstAck(FailureInjector):
        def __init__(self) -> None:
            super().__init__()
            self.armed = True

        def decide(self, src: str, dst: str, time: float) -> str:
            if self.armed and src == "b":
                self.armed = False
                return self.DROP
            return self.DELIVER

    problems = []
    # (injector, when the run ends, duplicates dropped): send t=0, frame
    # t=1, ACK t=2; a lost ACK, or a receiver down at t=1, brings the
    # retransmission at t=5, t=6, t=7.
    b_down = FailureInjector(FailurePlan(crashes=[CrashWindow("b", 0.5, 3.0)]))
    for injector, end, duplicates in (
        (None, 2.0, 0), (DropFirstAck(), 7.0, 1), (b_down, 7.0, 0),
    ):
        try:
            sim = Simulator()
            net = ReliableNetwork(
                sim, latency=ConstantLatency(1.0), rng=RngRegistry(0),
                injector=injector, ack_timeout=5.0,
            )
            received = []
            net.register("a", lambda m: None)
            net.register("b", lambda m: received.append(m.payload))
            net.send("a", "b", "K", payload="x")
            sim.run()
            seen = (sim.now, received, net.duplicates_dropped)
            if seen != (end, ["x"], duplicates):
                problems.append(f"transport: (end, received, duplicates) = {seen}")
        except Exception as exc:
            problems.append(f"transport: {type(exc).__name__}: {exc}")
    return problems


def _explore_infra_problems() -> list[str]:
    """Probes over the explorer's drivers.

    Behavioral properties, not pinned constants: walk ``i`` of a search
    must run schedule ``rw:<seed+i>``, and a DFS that hits its budget must
    say so.  Each probe is exactly the wrong-skip a mutant of
    ``engine.py`` would cause.
    """
    from repro.explore import engine

    problems: list[str] = []
    cell_id = "paper:ct:none:n3p1q1:s0"

    # A three-walk search from seed 4 must run rw:4, rw:5 and rw:6.  Healthy
    # walks of this cell share one digest, so the schedules the search hands
    # to replay_cell are what a pinned seed changes.
    ran: list[str] = []
    replay = engine.replay_cell

    def recording_replay(item: tuple):
        ran.append(item[1])
        return replay(item)

    engine.replay_cell = recording_replay
    try:
        engine.explore_cell(
            cell_id, mode="random", schedules=3, seed=4, minimize=False,
            workers=1,
        )
        if ran != ["rw:4", "rw:5", "rw:6"]:
            problems.append(f"walks ran {ran}, not rw:4, rw:5, rw:6")
    except Exception as exc:
        problems.append(f"walks: {type(exc).__name__}: {exc}")
    finally:
        engine.replay_cell = replay

    # A DFS that hits max_runs must report it loudly.
    try:
        result = engine.explore_cell(
            cell_id, mode="dfs", max_runs=1, minimize=False
        )
        if not result.budget_exhausted:
            problems.append("dfs hit max_runs silently")
    except Exception as exc:
        problems.append(f"dfs budget: {type(exc).__name__}: {exc}")
    return problems


# -- mutation machinery -----------------------------------------------------------


def apply_mutant(tree: Path, mutant: Mutant) -> None:
    target = tree / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise RuntimeError(
            f"{mutant.mutant_id}: pattern occurs {count}x in {mutant.path} "
            "(expected exactly 1 — the engine drifted; update the mutant)"
        )
    target.write_text(text.replace(mutant.old, mutant.new))


def make_shadow_tree(base: Path) -> Path:
    shadow = base / "shadow"
    shutil.copytree(
        SRC, shadow / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return shadow


def run_detection(shadow: Path) -> tuple[bool, str]:
    """Detection suite against the shadow tree; True means mutant killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(shadow / "src")
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--check"],
            capture_output=True, text=True, env=env,
            timeout=PER_MUTANT_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return True, "timeout (livelock — detected)"
    if proc.returncode != 0:
        detail = (proc.stdout + proc.stderr).strip().splitlines()
        return True, detail[-1] if detail else "non-zero exit"
    return False, "SURVIVED"


#: Cells the survivor hunt explores, cheapest first: the clean n3 cells
#: where any mutant-introduced order sensitivity shows up fastest.
HUNT_CELLS = (
    "paper:ct:none:n3p1q1:s0",
    "paper:base:none:n3p1q1:s0",
)


def hunt_survivor(shadow: Path, mutant: Mutant, pin_dir: Path | None) -> dict:
    """Explore the mutated tree for a schedule that exposes the survivor.

    Any finding's minimized schedule is printed as a candidate detection
    problem (replay it in :func:`detection_problems` to turn the survivor
    into a kill) and, with ``pin_dir``, emitted as a pinned regression
    module — green on pristine code, a tripwire against reintroduction.
    """
    from repro.explore.campaign import hunt_schedule, pin_regression
    from repro.explore.engine import Finding

    hunts = []
    for cell in HUNT_CELLS:
        outcome = hunt_schedule(
            shadow / "src", cell, mode="delay", bound=2, max_runs=400,
        )
        hunts.append({"cell": cell, **{
            k: outcome.get(k)
            for k in ("ok", "error", "findings", "schedules_run", "exhaustive")
        }})
        for payload in outcome.get("findings", ()):
            print(
                f"  hunt: {mutant.mutant_id} diverges on {cell} under "
                f"{payload['minimized']} ({payload['classification']})"
            )
            if pin_dir is not None:
                finding = Finding(
                    cell_id=payload["cell"],
                    schedule=payload["schedule"],
                    minimized=payload["minimized"],
                    classification=payload["classification"],
                    violations=tuple(payload["violations"]),
                    digest=(),
                    baseline_digest=(),
                )
                path = pin_regression(
                    finding, pin_dir,
                    origin=f"mutation hunt over survivor {mutant.mutant_id}",
                    name=f"pinned_hunt_{mutant.mutant_id}",
                )
                print(f"  hunt: pinned {path}")
        if outcome.get("findings"):
            break
    return {"cells": hunts}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="run the detection suite only (internal)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset of mutants")
    parser.add_argument("--mutant", default=None,
                        help="run a single mutant by id")
    parser.add_argument("--list", action="store_true", help="list mutants")
    parser.add_argument("--hunt", action="store_true",
                        help="for each SURVIVOR, run the schedule explorer "
                             "against the mutated tree hunting for a "
                             "distinguishing interleaving (ddmin-shrunk)")
    parser.add_argument("--pin-dir", type=Path, default=None,
                        help="emit hunt findings as pinned regression "
                             "modules under this directory")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.check:
        problems = detection_problems()
        for problem in problems:
            print(f"DETECTED: {problem}")
        return 1 if problems else 0

    if args.list:
        for mutant in MUTANTS:
            print(f"{mutant.mutant_id:32s} {mutant.path:36s} {mutant.description}")
        return 0

    if args.mutant is not None:
        selected = [m for m in MUTANTS if m.mutant_id == args.mutant]
        if not selected:
            print(f"unknown mutant {args.mutant!r}", file=sys.stderr)
            return 2
    elif args.smoke:
        selected = [m for m in MUTANTS if m.mutant_id in SMOKE_IDS]
    else:
        selected = list(MUTANTS)

    from _harness import machine, record_table

    import tempfile

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-mutation-") as tmp:
        shadow = make_shadow_tree(Path(tmp))

        # A detection suite that fails on the pristine tree kills nothing
        # honestly — bail out before crediting any mutant.
        clean_killed, clean_detail = run_detection(shadow)
        if clean_killed:
            print(
                f"detection suite fails on the PRISTINE tree: {clean_detail}",
                file=sys.stderr,
            )
            return 1

        results = []
        for mutant in selected:
            original = (shadow / mutant.path).read_text()
            apply_mutant(shadow, mutant)
            killed, detail = run_detection(shadow)
            entry = {
                "mutant": mutant.mutant_id,
                "path": mutant.path,
                "description": mutant.description,
                "killed": killed,
                "detail": detail,
            }
            if not killed and args.hunt:
                # Feedback loop: a survivor means the fixed detection
                # problems are blind to it — send the schedule explorer
                # after a distinguishing interleaving in the mutated tree.
                entry["hunt"] = hunt_survivor(
                    shadow, mutant, pin_dir=args.pin_dir
                )
            (shadow / mutant.path).write_text(original)
            results.append(entry)
            print(f"{'KILLED ' if killed else 'ALIVE  '} {mutant.mutant_id}")
    elapsed = time.perf_counter() - started

    kills = sum(1 for r in results if r["killed"])
    score = kills / len(results) if results else 0.0
    payload = {
        "schema": 1,
        "experiment": "E24",
        "generated_unix": round(time.time(), 3),
        "machine": machine(),
        "config": {"smoke": args.smoke, "mutants": len(results)},
        "wall_seconds": round(elapsed, 3),
        "killed": kills,
        "score": round(score, 3),
        "survivors": [r["mutant"] for r in results if not r["killed"]],
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    record_table(
        "E24",
        "mutation smoke: oracle kill rate on hand-rolled protocol defects",
        ("mutant", "target", "verdict"),
        [
            (r["mutant"], Path(r["path"]).name,
             "killed" if r["killed"] else "SURVIVED")
            for r in results
        ],
        notes=(
            f"{kills}/{len(results)} killed ({score:.0%}); threshold 90%; "
            f"{elapsed:.1f}s"
        ),
        persist=args.out == DEFAULT_OUT,
    )
    print(f"\nwrote {args.out}")
    if score < 0.9:
        for r in results:
            if not r["killed"]:
                print(f"SURVIVOR: {r['mutant']} — {r['description']}",
                      file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
