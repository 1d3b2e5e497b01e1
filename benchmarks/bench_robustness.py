"""Multi-seed robustness: the E1 result is not a lucky seed.

Runs the E1 scenario pack across five independent seeds (50 points) and
asserts the matrix holds at every one: an evasion of 1.0 or 0.0 over ten
points means every seed agreed.
"""

from common import write_report

from repro.results import render_matrix_text
from repro.runner import E1_PACK, SweepSpec, analyze_spec

SEEDS = (0, 101, 202, 303, 404)


def run_seeds():
    return analyze_spec(SweepSpec.from_mapping({**E1_PACK, "seeds": list(SEEDS)}))


def test_matrix_robust_across_seeds():
    analysis = run_seeds()
    write_report("robustness_seeds", render_matrix_text(
        analysis,
        title=f"robustness: the E1 pack across seeds {list(SEEDS)}",
    ))
    matrix = analysis["matrix"]
    for technique, cells in matrix.items():
        assert cells["points"] == 2 * len(SEEDS), technique
        assert cells["accuracy"] == 1.0, technique
    for technique in ("scan", "spam", "ddos"):
        assert matrix[technique]["evasion"] == 1.0, technique
    assert matrix["overt-http"]["evasion"] == 0.5
    assert matrix["spoofed-dns"]["evasion"] == 0.0
