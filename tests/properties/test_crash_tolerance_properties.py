"""Property-based tests: crash-tolerant resolution and determinism.

Random crash victims, crash instants and latencies must never break the
survivors' guarantees; a slow channel alone must never change a
fault-free run's outcome; and any run must be bit-for-bit reproducible from
its seed (the reproduction's foundational promise).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.formulas import crash_tolerant_messages
from repro.core.variants import run_action
from repro.net.latency import ConstantLatency, UniformLatency
from repro.objects.naming import canonical_name
from repro.objects.runtime import runtime_hook


class TestCrashToleranceProperties:
    @given(
        n=st.integers(min_value=3, max_value=7),
        raisers=st.integers(min_value=1, max_value=7),
        victim_index=st.integers(min_value=0, max_value=6),
        # Raises fire at t=10; any later crash leaves the exception
        # broadcast in the system (a victim crashing before ever raising
        # correctly leads to *no* recovery — nothing happened).
        crash_at=st.floats(min_value=10.05, max_value=25.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_survivors_always_recover_and_agree(
        self, n, raisers, victim_index, crash_at, seed
    ):
        raisers = min(raisers, n)
        victim = canonical_name(victim_index % n)
        result = run_action(
            "ct", n, raisers, seed=seed, latency=UniformLatency(0.2, 2.0),
            until=400.0, crashes=[(victim, crash_at)],
        )
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1

    @given(
        n=st.integers(min_value=4, max_value=7),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_two_victims(self, n, seed):
        victims = (canonical_name(0), canonical_name(n - 1))
        result = run_action(
            "ct", n, n, seed=seed, until=400.0,
            crashes=[(v, 10.3) for v in victims],
        )
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1


@st.composite
def slowed_fault_free_runs(draw):
    """A fault-free ct workload with one ordered pair's latency raised."""
    n = draw(st.integers(min_value=2, max_value=5))
    p = draw(st.integers(min_value=1, max_value=n))
    q = draw(st.integers(min_value=0, max_value=n - p))
    src, dst = draw(st.permutations(range(n)))[:2]
    delay = draw(st.floats(min_value=0.1, max_value=5.0))
    return n, p, q, draw(st.booleans()), src, dst, delay


class TestSlowChannelProperties:
    """A slow channel alone never changes ct's outcome.

    At the default ``hb_interval`` 2 and ``hb_timeout`` 7 no beat over a
    link of latency ≤ 5.0 is late enough to raise a suspicion, so every
    run is a fault-free one: the exact count, one verdict, no takeover.
    """

    @given(slowed_fault_free_runs())
    @example((4, 1, 1, True, 0, 3, 5.0))  # the signal-only takeover
    @settings(max_examples=150, deadline=None)
    def test_a_slow_pair_keeps_the_fault_free_outcome(self, case):
        n, p, q, nested_signal, src, dst, delay = case

        def slow(runtime):
            runtime.network.set_pair_latency(
                canonical_name(src), canonical_name(dst), ConstantLatency(delay)
            )

        with runtime_hook(slow):
            run = run_action("ct", n, p, q, nested_signal=nested_signal)
        trace = run.runtime.trace
        assert not trace.by_category("detector.suspect"), case
        assert not trace.by_category("ct.takeover"), case
        assert run.messages() == crash_tolerant_messages(n, p, q), case
        assert run.all_handled(), case
        assert len(run.handled_exceptions()) == 1, case


class TestDeterminism:
    """Identical seeds must yield identical traces — the property that
    makes every number in EXPERIMENTS.md reproducible."""

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_same_trace(self, seed):
        from repro.workloads.generator import general_case

        first = general_case(
            5, 2, 2, latency=UniformLatency(0.1, 4.0), seed=seed
        ).run()
        second = general_case(
            5, 2, 2, latency=UniformLatency(0.1, 4.0), seed=seed
        ).run()
        dump_a = first.runtime.trace.dump()
        dump_b = second.runtime.trace.dump()
        # Message ids are global counters; strip them (``id=`` of a message
        # record, ``cause=`` of what it caused) before comparing.
        import re

        normalize = lambda s: re.sub(r"(id|cause)=\d+", r"\1=*", s)  # noqa: E731
        assert normalize(dump_a) == normalize(dump_b)

    def test_different_seeds_differ_under_random_latency(self):
        from repro.workloads.generator import general_case

        dumps = set()
        for seed in range(4):
            result = general_case(
                4, 2, 1, latency=UniformLatency(0.1, 4.0), seed=seed
            ).run()
            dumps.add(result.runtime.trace.dump()[:2000])
        assert len(dumps) > 1

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_fuzzed_worlds_are_reproducible(self, seed):
        from repro.workloads.fuzz import build_random_scenario

        results = []
        for _ in range(2):
            scenario, _ = build_random_scenario(seed, n_participants=4)
            result = scenario.run(max_events=600_000)
            results.append(
                (
                    result.duration,
                    result.resolution_message_total(),
                    sorted(result.manager.instances()),
                )
            )
        assert results[0] == results[1]
