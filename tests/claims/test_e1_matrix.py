"""E1: the Figure-1 accuracy/evasion matrix (paper Section 3.2).

The E1 scenario pack — every technique at both vantages of the censored
AS — runs through :class:`~repro.runner.SweepRunner` across five seeds and
is scored by :class:`~repro.results.RecordAnalysis`, exactly as a
campaign is.  Success is the paper's pair of criteria: detect every
blocked target with no false block (accuracy), and leave the MVR no alert
attributed to the measurer (evasion).

The shape, identical on base seeds 0, 1 and 7:

- scan, spam and DDoS are accurate and always evade;
- the overt baseline is accurate but attributed at the censored vantage
  (the bulk-resolution rule, sid 3000900).  At the clean vantage its
  burst of connections also trips a commodity bot rule, so the MVR writes
  its alerts off as malware noise: evasion 0.5;
- spoofed DNS is accurate but attributed at every point: it resolves all
  ten blocked names, and the MVR's bulk-resolution rule (sid 3000900,
  eight names in 60 s by source) fires on the measurer whatever cover it
  spoofs.  ``tests/core/test_spoofing_techniques.py`` pins where that
  boundary lies.
"""

import pytest

from repro.runner import E1_PACK, SweepSpec, analyze_spec

#: The multi-seed robustness pack: five independent seeds, 50 points.
SEEDS = (0, 101, 202, 303, 404)


@pytest.fixture(scope="module")
def matrix():
    spec = SweepSpec.from_mapping({**E1_PACK, "seeds": list(SEEDS)})
    assert len(spec) == 50
    return analyze_spec(spec)["matrix"]


def _accurate(cells):
    assert cells["points"] == 2 * len(SEEDS)
    assert cells["detects"] == 1.0
    assert cells["false_block_rate"] == 0.0
    assert cells["accuracy"] == 1.0


class TestE1Matrix:
    def test_pack_scores_every_technique(self, matrix):
        assert sorted(matrix) == sorted(E1_PACK["techniques"])

    def test_scan_row(self, matrix):
        _accurate(matrix["scan"])
        assert matrix["scan"]["evasion"] == 1.0

    def test_spam_row(self, matrix):
        _accurate(matrix["spam"])
        assert matrix["spam"]["evasion"] == 1.0

    def test_ddos_row(self, matrix):
        _accurate(matrix["ddos"])
        assert matrix["ddos"]["evasion"] == 1.0

    def test_overt_baseline_fails_evasion(self, matrix):
        _accurate(matrix["overt-http"])
        assert matrix["overt-http"]["evasion"] == 0.5

    def test_spoofed_dns_row(self, matrix):
        _accurate(matrix["spoofed-dns"])
        assert matrix["spoofed-dns"]["evasion"] == 0.0
