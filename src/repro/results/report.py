"""``repro report``: render the streaming analysis as text or JSON.

Thin orchestration over :mod:`.record` and :mod:`.analyze`: locate the
campaign's record file by prefix, stream it through a
:class:`~.analyze.RecordAnalysis` (one row in memory at a time), and
render the resulting document as aligned text tables (the same
:func:`~repro.analysis.report.render_table` the rest of the CLI uses)
or as canonical JSON.  Both renderings are deterministic: same record
file, same bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.report import render_table
from .analyze import RecordAnalysis
from .record import iter_rows

__all__ = [
    "records_path",
    "build_analysis",
    "render_matrix_text",
    "render_report_text",
]


def records_path(prefix: str) -> str:
    """The record-file path a campaign run at ``prefix`` writes."""
    return f"{prefix}.records.jsonl"


def build_analysis(prefix: str) -> Dict[str, object]:
    """Stream ``PREFIX.records.jsonl`` into the analysis document."""
    return RecordAnalysis().extend(iter_rows(records_path(prefix))).as_dict()


def _fmt(value, places: int = 3) -> str:
    """Fixed-precision cell formatting ('-' for not-applicable)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{places}f}"
    return str(value)


def _success(cells: Dict[str, object]) -> str:
    """The paper's success criterion (Section 3.2): detect every blocked
    target, false-block nothing, never be attributed ('-': not judgeable)."""
    if cells["detects"] is None or cells["evasion"] is None:
        return "-"
    if cells["detects"] < 1.0 or cells["false_block_rate"] > 0.0:
        return "fails-accuracy"
    return "SUCCESS" if cells["evasion"] == 1.0 else "fails-evasion"


def render_matrix_text(
    analysis: Dict[str, object],
    title: str = "\naccuracy/evasion matrix (Figure-1 criteria, from records)",
) -> str:
    """The per-technique accuracy/evasion matrix as one text table.

    ``attrib`` is the mean attribution confidence the MVR puts on the
    measurer and ``inv`` the fraction of points where the analyst
    investigated them ('-' where no point ran with an MVR).
    """
    matrix_rows = [
        [
            technique,
            _fmt(cells["detects"]), _fmt(cells["accuracy"]),
            _fmt(cells["false_block_rate"]), _fmt(cells["evasion"]),
            _fmt(cells["attribution_confidence"]), _fmt(cells["investigated"]),
            _fmt(cells["mean_attempts"], 2), _fmt(cells["mean_confidence"]),
            cells["rows"], _success(cells),
        ]
        for technique, cells in analysis["matrix"].items()
    ]
    return render_table(
        ["technique", "detects", "accuracy", "false-block", "evasion",
         "attrib", "inv", "attempts", "conf", "rows", "verdict"],
        matrix_rows,
        title=title,
    )


def render_report_text(analysis: Dict[str, object], title: str = "") -> str:
    """The full text report: classification, matrix, curves, latency."""
    sections: List[str] = []
    if title:
        sections.append(title)

    tally = ", ".join(
        f"{label}={count}"
        for label, count in analysis["classification_tally"].items()
    )
    sections.append(
        f"rows: {analysis['rows']}  points: {analysis['points']}  "
        f"classes: {tally or '-'}"
    )

    class_rows = []
    for entry in analysis["classification"]:
        cen = entry.get("censored")
        cln = entry.get("clean")

        def cell(stats: Optional[dict]) -> str:
            if stats is None:
                return "-"
            return f"{stats['blocked']}b/{stats['accessible']}a/{stats['inconclusive']}i"

        class_rows.append([
            entry["technique"], entry["target"], entry["classification"],
            _fmt(entry["confidence"]), cell(cen), cell(cln),
        ])
    sections.append(render_table(
        ["technique", "target", "class", "conf", "censored-vantage", "clean-vantage"],
        class_rows,
        title="\nvantage-differential classification (rows: blocked/accessible/inconclusive)",
    ))

    sections.append(render_matrix_text(analysis))

    censor_rows = []
    for censor, by_technique in analysis.get("censor_matrix", {}).items():
        for technique, cells in by_technique.items():
            censor_rows.append([
                censor, technique,
                _fmt(cells["detects"]), _fmt(cells["accuracy"]),
                _fmt(cells["false_block_rate"]), _fmt(cells["evasion"]),
                cells["rows"],
            ])
    if censor_rows:
        sections.append(render_table(
            ["censor", "technique", "detects", "accuracy", "false-block",
             "evasion", "rows"],
            censor_rows,
            title="\nper-censor accuracy/evasion matrix (censored-vantage rows)",
        ))

    curve_rows = []
    for technique, by_retry in analysis["false_block_curves"].items():
        for retry, samples in by_retry.items():
            for loss, rate, n in samples:
                curve_rows.append(
                    [technique, retry, _fmt(loss), _fmt(rate), n]
                )
    if curve_rows:
        sections.append(render_table(
            ["technique", "retry", "loss", "false-block", "open-rows"],
            curve_rows, title="\nfalse-block curves",
        ))

    latency_rows = [
        [technique, cells["count"], _fmt(cells["p50"]), _fmt(cells["p90"]),
         _fmt(cells["p99"])]
        for technique, cells in analysis["latency"].items()
    ]
    if latency_rows:
        sections.append(render_table(
            ["technique", "verdicts", "p50 (s)", "p90 (s)", "p99 (s)"],
            latency_rows,
            title="\nsim-time to verdict (histogram quantiles, ±bucket width)",
        ))

    return "\n".join(sections) + "\n"
