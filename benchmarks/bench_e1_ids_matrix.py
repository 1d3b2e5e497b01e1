"""E1 — the IDS evaluation matrix (paper §3.2.2, Figure 1 environment).

Runs the E1 scenario pack (:data:`repro.runner.E1_PACK`): each technique
measured from the censored vantage (censor on) and the clean vantage
(censor off) with the surveillance MVR watching, scored by
:class:`repro.results.RecordAnalysis` exactly as a campaign is.  A
technique *succeeds* when it detects blocking accurately AND never causes
a user-attributed alert.

Expected shape: scan, spam and DDoS succeed; the overt baseline is
accurate but attributed; spoofed DNS is accurate but attributed too — it
resolves all ten blocked names, which trips the MVR's bulk-resolution
rule whatever cover it spoofs (EXPERIMENTS.md, E1).
"""

from common import write_report

from repro.results import render_matrix_text
from repro.runner import E1_PACK, SweepSpec, analyze_spec


def run_matrix(seed: int = 0):
    return analyze_spec(SweepSpec.from_mapping({**E1_PACK, "base_seed": seed}))


def test_e1_ids_matrix():
    analysis = run_matrix()
    write_report("e1_ids_matrix", render_matrix_text(
        analysis,
        title="E1: IDS evaluation matrix (censored and clean vantages, MVR watching)",
    ))

    matrix = analysis["matrix"]
    # Every technique is accurate at both vantages...
    for technique, cells in matrix.items():
        assert cells["detects"] == 1.0, technique
        assert cells["false_block_rate"] == 0.0, technique
    # ...the Section-3 mimicry methods evade...
    for technique in ("scan", "spam", "ddos"):
        assert matrix[technique]["evasion"] == 1.0, technique
    # ...and the overt baseline and spoofed DNS are attributed.
    assert matrix["overt-http"]["evasion"] < 1.0
    assert matrix["spoofed-dns"]["evasion"] == 0.0
