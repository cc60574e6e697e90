"""Metrics registry: counters, gauges and virtual-time histograms.

Answers "where does resolution latency go as N grows?" without replaying
traces: protocol engines observe rare events (commits, abortion chains,
dead letters) into a :class:`MetricsRegistry` attached to the
:class:`~repro.objects.runtime.Runtime`; bulk counts (messages by kind,
retransmissions) are *pulled* from the live network counters at snapshot
time, so the message hot path is untouched at every trace level.

Snapshots are plain dicts — picklable, so :func:`merge_snapshots` can
aggregate the registries of runs made in other processes into one
fleet-wide view.

Histograms use **fixed virtual-time buckets** (:data:`VT_BUCKETS` by
default): fixed bounds are what make worker snapshots mergeable by plain
elementwise addition.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional, Sequence

#: Default virtual-time bucket upper bounds (an implicit +inf bucket is
#: always appended).  Chosen to resolve both the unit-latency worked
#: examples (commits around t≈15) and slow faulty runs (ARQ retries,
#: heartbeat timeouts) on one axis.
VT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: Default bucket bounds for small nonnegative integers (abortion depth,
#: rounds to resolve).
COUNT_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)


def log_spaced_buckets(
    low: float, high: float, per_decade: int = 4
) -> tuple[float, ...]:
    """Logarithmically spaced bucket edges from ``low`` to >= ``high``.

    ``per_decade`` edges per factor of 10, rounded to 3 significant digits
    (deterministic, so snapshots built by different processes still merge).
    The virtual-time defaults above mis-bin millisecond wall-clock
    latencies — a 0.3 ms admission wait and a 0.9 ms engine run both land
    in the ≤1.0 bucket — so wall-clock histograms use these instead.
    """
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got {low}/{high}")
    if per_decade < 1:
        raise ValueError(f"need >=1 edge per decade, got {per_decade}")
    edges: list[float] = []
    k = 0
    while True:
        edge = low * 10 ** (k / per_decade)
        edge = float(f"{edge:.3g}")
        if not edges or edge > edges[-1]:
            edges.append(edge)
        if edge >= high:
            return tuple(edges)
        k += 1


#: Wall-clock latency edges (milliseconds): 50 µs through 20 s, four
#: buckets per decade — the service latency/breakdown histograms' default.
MS_LATENCY_BUCKETS: tuple[float, ...] = log_spaced_buckets(0.05, 20_000.0)


def histogram_quantile(data: dict, q: float) -> Optional[float]:
    """Estimate a quantile from a snapshotted histogram dict.

    ``data`` is one entry of ``snapshot()["histograms"]`` (or any dict
    with ``bounds``/``bucket_counts``/``count``/``min``/``max``).  Returns
    the upper edge of the bucket holding the q-th sample — clamped to the
    observed ``max`` (and ``min`` from below) so the overflow bucket still
    yields a finite number.  ``None`` on an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = data.get("count", 0)
    if not total:
        return None
    bounds = data["bounds"]
    # Same rank convention as LoadReport.percentile on a sorted list:
    # the sample at 0-based index int(q*total), expressed 1-based here.
    target = min(total, int(q * total) + 1)
    cumulative = 0
    estimate: Optional[float] = None
    for i, bucket in enumerate(data["bucket_counts"]):
        cumulative += bucket
        if cumulative >= target and bucket:
            estimate = bounds[i] if i < len(bounds) else data.get("max")
            break
    if estimate is None:  # target beyond every bucket (rounding edge)
        estimate = data.get("max")
    if estimate is None:
        return None
    low, high = data.get("min"), data.get("max")
    if high is not None:
        estimate = min(estimate, high)
    if low is not None:
        estimate = max(estimate, low)
    return estimate


class CounterMetric:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class GaugeMetric:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class HistogramMetric:
    """A fixed-bucket histogram over virtual-time (or count) samples.

    ``bounds`` are inclusive upper bucket edges; one +inf bucket is
    implicit.  ``sum``/``count``/``min``/``max`` ride along so means and
    ranges survive without per-sample storage.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "sum", "count", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = VT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(map(float, bounds))
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None


class MetricsRegistry:
    """Named metrics, created on first use, snapshot-able and mergeable."""

    def __init__(self) -> None:
        self._counters: dict[str, CounterMetric] = {}
        self._gauges: dict[str, GaugeMetric] = {}
        self._histograms: dict[str, HistogramMetric] = {}

    # -- access (get-or-create) -----------------------------------------------

    def counter(self, name: str) -> CounterMetric:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = CounterMetric(name)
        return metric

    def gauge(self, name: str) -> GaugeMetric:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = GaugeMetric(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = VT_BUCKETS
    ) -> HistogramMetric:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = HistogramMetric(name, bounds)
        elif metric.bounds != tuple(map(float, bounds)):
            raise ValueError(
                f"histogram {name!r} already exists with bounds "
                f"{metric.bounds}, requested {tuple(bounds)}"
            )
        return metric

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, picklable view of every metric."""
        return {
            "counters": {n: m.value for n, m in sorted(self._counters.items())},
            "gauges": {n: m.value for n, m in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(m.bounds),
                    "bucket_counts": list(m.bucket_counts),
                    "sum": m.sum,
                    "count": m.count,
                    "min": m.min,
                    "max": m.max,
                }
                for n, m in sorted(self._histograms.items())
            },
        }

    def load_snapshot(self, snapshot: dict) -> None:
        """Merge a snapshot produced by :meth:`snapshot` into this registry
        (counters and histograms add; gauges take the incoming value)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            metric = self.histogram(name, data["bounds"])
            if list(metric.bounds) != list(data["bounds"]):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bounds differ"
                )
            for i, count in enumerate(data["bucket_counts"]):
                metric.bucket_counts[i] += count
            metric.sum += data["sum"]
            metric.count += data["count"]
            for extreme, pick in (("min", min), ("max", max)):
                incoming = data.get(extreme)
                if incoming is None:
                    continue
                current = getattr(metric, extreme)
                setattr(
                    metric, extreme,
                    incoming if current is None else pick(current, incoming),
                )


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold worker snapshots into one (the sweep-aggregation primitive)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.load_snapshot(snapshot)
    return merged.snapshot()
