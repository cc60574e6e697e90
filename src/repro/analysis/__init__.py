"""Analytical model of Section 4.4 and curve-fitting helpers.

:mod:`repro.analysis.formulas` encodes the paper's closed-form message
counts; :mod:`repro.analysis.fitting` estimates empirical growth orders
from measured sweeps (log-log regression), used to verify the O(N²) vs
O(N³) comparison without relying on absolute counts;
:mod:`repro.analysis.sequence_chart` lays a trace out as a message
sequence chart, one lane per object (``repro chart``).
"""

from repro.analysis.fitting import fit_power_law, growth_order
from repro.analysis.sequence_chart import (
    chart_rows,
    render_sequence_chart,
)
from repro.analysis.formulas import (
    case1_messages,
    case2_messages,
    case3_messages,
    centralized_messages,
    crash_tolerant_messages,
    general_messages,
    multicast_operations,
    resolver_group_messages,
)

__all__ = [
    "case1_messages",
    "case2_messages",
    "case3_messages",
    "centralized_messages",
    "chart_rows",
    "crash_tolerant_messages",
    "fit_power_law",
    "general_messages",
    "growth_order",
    "multicast_operations",
    "render_sequence_chart",
    "resolver_group_messages",
]
