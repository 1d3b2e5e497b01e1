"""Per-measurement records and the streaming analysis pipeline.

The sweep runner's merged metrics answer "how many" — this package
answers "which ones".  Every measurement attempt a campaign executes
becomes one row in a deterministic, byte-stable JSONL record file
(:mod:`.record`), and the analysis layer (:mod:`.analyze`) folds those
rows — streamed one at a time, never materialized — into
vantage-differential target classifications, per-technique
accuracy/evasion matrices, false-block curves, and latency quantiles.
:mod:`.report` renders that analysis as text/JSON (``repro report``) and
:mod:`.dashboard` as a self-contained static HTML page with inline SVG
charts (``repro dashboard``).
"""

from .analyze import RecordAnalysis, analyze_records
from .dashboard import render_dashboard
from .record import (
    RECORD_SCHEMA,
    ROW_FIELDS,
    iter_rows,
    read_header,
    rows_from_point,
    summarize_rows,
    write_records,
)
from .report import (
    build_analysis,
    records_path,
    render_matrix_text,
    render_report_text,
)

__all__ = [
    "RECORD_SCHEMA",
    "ROW_FIELDS",
    "RecordAnalysis",
    "analyze_records",
    "build_analysis",
    "iter_rows",
    "read_header",
    "records_path",
    "render_dashboard",
    "render_matrix_text",
    "render_report_text",
    "rows_from_point",
    "summarize_rows",
    "write_records",
]
