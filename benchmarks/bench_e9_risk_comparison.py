"""E9 — the headline risk comparison: overt vs. stealthy techniques.

Runs the E9 scenario pack (:data:`repro.runner.E9_PACK`): every technique
over the same full target list at the censored vantage, scored by
:class:`repro.results.RecordAnalysis` from the point-level risk columns
of its record rows — what the surveillance system ends up knowing about
the measurer.  Paper shape: the overt baseline is attributed with full
confidence and investigated; each stealthy technique leaves zero
attributed alerts (Section 3 methods) or a diluted 1/N attribution
(Section 4 spoofing) that the analyst cannot act on, at equal
measurement accuracy.
"""

from common import write_report

from repro.analysis import render_table
from repro.runner import E9_PACK, SweepSpec, analyze_spec


def run_comparison(seed: int = 0):
    return analyze_spec(SweepSpec.from_mapping({**E9_PACK, "base_seed": seed}))


def _fmt(value, places=3):
    return "-" if value is None else f"{value:.{places}f}"


def test_e9_risk_comparison():
    matrix = run_comparison()["matrix"]
    rows = [
        [technique, _fmt(cells["attributed_alerts"], 0),
         _fmt(cells["attribution_confidence"]),
         "yes" if cells["investigated"] else "no",
         "yes" if cells["detects"] == 1.0 else "NO"]
        for technique, cells in matrix.items()
    ]
    write_report("e9_risk_comparison", render_table(
        ["technique", "attrib. alerts", "confidence", "investigated",
         "detected censorship"],
        rows,
        title=(f"E9: what the surveillance system knows about the measurer "
               f"(E9 pack, base seed 0, cover {E9_PACK['cover']})"),
    ))

    # Every technique detected the censorship.
    for technique, cells in matrix.items():
        assert cells["detects"] == 1.0, technique
    # Overt HTTP/DNS: attributed and investigated.
    for technique in ("overt-http", "overt-dns"):
        assert matrix[technique]["attributed_alerts"] > 0, technique
        assert matrix[technique]["investigated"] == 1.0, technique
    # Section-3 methods: zero attributed alerts.
    for technique in ("scan", "spam", "ddos"):
        assert matrix[technique]["attributed_alerts"] == 0, technique
        assert matrix[technique]["investigated"] == 0.0, technique
    # Section-4 spoofing: diluted attribution the analyst cannot act on.
    for technique in ("spoofed-dns", "stateful"):
        assert matrix[technique]["attribution_confidence"] <= 1 / 12, technique
        assert matrix[technique]["investigated"] == 0.0, technique
