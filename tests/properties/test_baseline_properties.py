"""Property-based tests: the comparison baselines stay well-behaved
across random timings (their message counts are workload- and
timing-dependent by design, but their *semantics* must not be)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cr_baseline import run_cr_domino
from repro.core.variants import VARIANTS, run_action
from repro.net.latency import ConstantLatency, ExponentialLatency, UniformLatency

latencies = st.sampled_from(
    [
        ConstantLatency(1.0),
        UniformLatency(0.2, 3.0),
        ExponentialLatency(1.5, 0.1),
    ]
)


class TestCRBaselineProperties:
    @given(
        n=st.integers(min_value=2, max_value=8),
        raisers=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
        latency=latencies,
    )
    @settings(max_examples=30, deadline=None)
    def test_concurrent_always_terminates_consistently(
        self, n, raisers, seed, latency
    ):
        result = run_action("cr", n, min(raisers, n), seed=seed, latency=latency)
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1

    @given(
        n=st.integers(min_value=2, max_value=6),
        levels=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_domino_always_reaches_the_root(self, n, levels, seed):
        result = run_cr_domino(n, levels_per_participant=levels, seed=seed)
        assert result.all_handled()
        assert result.handled_exceptions() == {"Chain_0"}
        raises = sum(len(p.raised) for p in result.participants.values())
        assert raises >= n * levels + 1


class TestMulticastVariantProperties:
    @given(
        n=st.integers(min_value=2, max_value=8),
        p=st.integers(min_value=1, max_value=8),
        q=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
        latency=latencies,
    )
    @settings(max_examples=30, deadline=None)
    def test_operation_formula_and_agreement(self, n, p, q, seed, latency):
        p = min(p, n)
        q = min(q, n - p)
        result = run_action("mc", n, p, q, seed=seed, latency=latency)
        assert result.messages() == VARIANTS["mc"].expected(
            n, p, q
        )
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1


class TestCentralizedVariantProperties:
    @given(
        n=st.integers(min_value=2, max_value=10),
        p=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
        latency=latencies,
    )
    @settings(max_examples=30, deadline=None)
    def test_linear_formula_and_agreement(self, n, p, seed, latency):
        p = min(p, n)
        result = run_action("cd", n, p, seed=seed, latency=latency)
        assert result.messages() == VARIANTS["cd"].expected(n, p, 0)
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1
