"""Analysis utilities: schedulability, admission control, traces, reports."""

from repro.analysis.admission import (
    AdmissionController,
    AdmissionDecision,
    certify_infeasible,
)
from repro.analysis.reporting import (
    format_table,
    format_table1,
    series_to_csv,
)
from repro.analysis.trace import (
    TraceSummary,
    distance_to_reference,
    price_movement,
    settling_iteration,
    summarize_trace,
    tail_oscillation,
    violation_duration,
)
from repro.analysis.schedulability import (
    SchedulabilityAnalyzer,
    SchedulabilityReport,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "certify_infeasible",
    "TraceSummary",
    "summarize_trace",
    "settling_iteration",
    "tail_oscillation",
    "distance_to_reference",
    "price_movement",
    "violation_duration",
    "SchedulabilityAnalyzer",
    "SchedulabilityReport",
    "format_table",
    "format_table1",
    "series_to_csv",
]
