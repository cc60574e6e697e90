"""Tier-1 guard on the per-beat and per-broadcast constants.

``py_calls_per_action`` of the perf benchmark (``benchmarks/perf``) is what
proves that every fan-out is batched, but it takes 35 s and is not part of
tier-1.  This runs one crash-tolerant N=16 action under ``cProfile`` — the
same ``call`` + ``c_call`` events the benchmark counts — so a per-peer loop
that creeps back into the detector or an engine fails here, in well under a
second.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.core.variants import VARIANTS, run_action
from repro.simkernel.trace import TraceLevel

N, P, Q = 16, 3, 2
#: Measured 19,388 on CPython 3.11 (28,094 with the per-peer loops of
#: c3437ca); the ceiling is 5 % above.  Later interpreters inline
#: comprehensions and count fewer events, never more.
CALL_CEILING = 20_357


def profiled_run():
    def run():
        return run_action(
            "ct", N, P, Q, seed=1, until=VARIANTS["ct"].horizon,
            trace_level=TraceLevel.COUNTS,
        )

    run()  # imports, the tree cache
    profile = cProfile.Profile()
    profile.enable()
    result = run()
    profile.disable()
    calls: dict[str, int] = {}
    for (_file, _line, name), (_cc, ncalls, *_rest) in pstats.Stats(profile).stats.items():
        calls[name] = calls.get(name, 0) + ncalls
    return result, calls


def test_one_queue_push_per_beat_and_a_ceiling_on_calls():
    result, calls = profiled_run()
    assert result.all_handled() and result.messages() == (N - 1) * (2 * P + 2 * Q + 1)
    sent = result.runtime.network.sent_by_kind
    beats, rest = divmod(sent["HEARTBEAT"], N - 1)
    assert rest == 0 and beats >= 5 * N  # nobody suspected, everyone beat
    broadcasts = P + 2 * Q + 1  # Exception, HaveNested + NestedCompleted, Commit
    # One push per fan-out — beat or broadcast — plus one per unicast ACK:
    # with a per-peer loop anywhere this is (N-1) times bigger.
    assert calls["push_raw"] == beats + broadcasts + sent["CT_ACK"]
    assert calls["send_many"] == 2 * (beats + broadcasts)  # object + network
    assert sum(calls.values()) <= CALL_CEILING
