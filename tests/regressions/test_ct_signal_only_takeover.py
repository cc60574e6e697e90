"""Regression: an abortion signal alone must not trigger a ct takeover.

A suspended ct member takes the resolution over only when every raiser it
knows of is suspected.  The test once read "LE non-empty and no live
raiser" instead — but LE also holds abortion signals, whose senders are
no raisers.  With the raiser's link to the highest-named member slowed to
5.0 (still below the detector's timeout, so nobody is suspected), that
member heard the nested member's NestedCompleted before the raiser's
Exception and "took over" at t=13: it committed ``CT_ABORT_SIG`` with
raisers ``('O0001',)`` — the nested member — the others started that
wrong handler and were only later upgraded through ``ct.commit_extend``
/ ``ct.handle_upgrade``, and the run sent 18 CT messages instead of
(N-1)(2P+2Q+1) = 15.
"""

from repro.analysis.formulas import crash_tolerant_messages
from repro.core.variants import run_action
from repro.net.latency import ConstantLatency
from repro.objects.runtime import runtime_hook


def slow_raiser_link(runtime) -> None:
    runtime.network.set_pair_latency("O0000", "O0003", ConstantLatency(5.0))


def test_a_signal_without_a_known_raiser_is_waited_out():
    with runtime_hook(slow_raiser_link):
        run = run_action("ct", 4, 1, 1, nested_signal=True)
    trace = run.runtime.trace
    assert not trace.by_category("detector.suspect")
    assert not trace.by_category("ct.takeover")
    assert not trace.by_category("ct.commit_extend")
    (commit,) = trace.by_category("resolution.commit")
    assert commit.subject == "O0000"
    assert commit.details["raisers"] == ("O0000", "O0001")
    assert run.messages() == crash_tolerant_messages(4, 1, 1) == 15
    assert run.handled_exceptions() == {"UniversalException"}
    assert run.all_handled()
