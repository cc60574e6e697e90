"""Tests for the bandwidth-aware latency model (Section 2.1's narrow
channels) and its effect on recovery time."""

import random

import pytest

from repro.analysis.metrics import resolution_timeline
from repro.net import BandwidthLatency
from repro.workloads.generator import general_case


class TestModel:
    def test_delay_decomposition(self):
        model = BandwidthLatency(
            bandwidth=10.0, propagation=1.0, size_mean=50.0, size_spread=0.0
        )
        assert model.sample(random.Random(0)) == pytest.approx(1.0 + 5.0)

    def test_size_spread_bounds(self):
        model = BandwidthLatency(
            bandwidth=10.0, propagation=0.0, size_mean=50.0, size_spread=20.0
        )
        rng = random.Random(1)
        for _ in range(200):
            assert 3.0 <= model.sample(rng) <= 7.0

    def test_jitter_adds_on_top(self):
        model = BandwidthLatency(
            bandwidth=10.0, propagation=1.0, size_mean=10.0,
            size_spread=0.0, jitter=0.5,
        )
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(100)]
        assert all(2.0 <= s <= 2.5 for s in samples)
        assert max(samples) > min(samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthLatency(bandwidth=0)
        with pytest.raises(ValueError):
            BandwidthLatency(bandwidth=1, propagation=-1)
        with pytest.raises(ValueError):
            BandwidthLatency(bandwidth=1, size_mean=10, size_spread=20)

    def test_describe(self):
        assert "bandwidth" in BandwidthLatency(bandwidth=8).describe()


class TestNarrowChannelsStretchRecovery:
    def test_halving_bandwidth_slows_recovery_not_counts(self):
        """'The time of message passing is not negligible': recovery
        latency scales with channel bandwidth while the message count —
        the algorithm's complexity — is untouched."""
        latencies = {}
        counts = set()
        for bandwidth in (64.0, 16.0, 4.0):
            result = general_case(
                5, 2, 1,
                latency=BandwidthLatency(
                    bandwidth=bandwidth, propagation=0.2, size_mean=64.0,
                    size_spread=0.0,
                ),
            ).run()
            timeline = resolution_timeline(result.runtime.trace, "A1")
            latencies[bandwidth] = timeline.last_handler_done - timeline.first_raise
            counts.add(result.resolution_message_total())
        assert len(counts) == 1
        assert latencies[4.0] > latencies[16.0] > latencies[64.0]
