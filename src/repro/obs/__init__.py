"""Observability layer: causal spans, metrics registry, exporters.

See :mod:`repro.obs.spans` for the causal-forest model,
:mod:`repro.obs.metrics` for the registry, and :mod:`repro.obs.export`
for the JSONL / Chrome-trace / text renderers.
"""

from .export import (
    metrics_to_text,
    render_span_tree,
    spans_to_chrome,
    spans_to_jsonl,
    validate_chrome_trace,
    write_span_artifacts,
)
from .metrics import (
    COUNT_BUCKETS,
    MS_LATENCY_BUCKETS,
    VT_BUCKETS,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    histogram_quantile,
    log_spaced_buckets,
    merge_snapshots,
)
from .spans import SPAN_ROWS, Span, SpanCollector, TraceContext, from_trace

__all__ = [
    "COUNT_BUCKETS",
    "MS_LATENCY_BUCKETS",
    "VT_BUCKETS",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "SPAN_ROWS",
    "Span",
    "SpanCollector",
    "TraceContext",
    "from_trace",
    "histogram_quantile",
    "log_spaced_buckets",
    "merge_snapshots",
    "metrics_to_text",
    "render_span_tree",
    "spans_to_chrome",
    "spans_to_jsonl",
    "validate_chrome_trace",
    "write_span_artifacts",
]
