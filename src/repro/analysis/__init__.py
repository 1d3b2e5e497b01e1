"""Analysis: metrics, CDFs, Syria log analysis, ethics arithmetic, tables."""

from .cdf import EmpiricalCDF, ascii_cdf
from .ethics import (
    LoadComparison,
    OpenResolverStats,
    SCHOMP_2013,
    load_comparison,
    spoofed_query_load,
)
from .metrics import ConfusionCounts, link_report, run_report
from .report import render_table
from .stats import Summary, summarize_samples, wilson_interval
from .syria import (
    LogAnalysis,
    LogEntry,
    SYRIA_CENSORED_USER_FRACTION,
    SyriaLogGenerator,
    analyze_logs,
)

__all__ = [
    "ConfusionCounts",
    "EmpiricalCDF",
    "LoadComparison",
    "LogAnalysis",
    "LogEntry",
    "OpenResolverStats",
    "SCHOMP_2013",
    "SYRIA_CENSORED_USER_FRACTION",
    "SyriaLogGenerator",
    "analyze_logs",
    "ascii_cdf",
    "link_report",
    "load_comparison",
    "render_table",
    "run_report",
    "Summary",
    "summarize_samples",
    "spoofed_query_load",
    "wilson_interval",
]
