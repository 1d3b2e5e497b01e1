"""E9: the headline risk comparison, overt vs. stealthy (paper Sections 3-4).

The E9 scenario pack — every technique at the censored vantage of the
Figure-1 AS — runs through :class:`~repro.runner.SweepRunner` across five
seeds and is scored by :class:`~repro.results.RecordAnalysis` from the
point-level risk columns of its record rows.  The analyst escalates from
one attributed alert but opens at most 10 investigations a day.

The shape, identical at every one of the 35 points:

- the overt baseline (HTTP and DNS) gets one alert attributed to the
  measurer with confidence 1.0, and the analyst investigates;
- the Section-3 mimicry methods (scan, spam, DDoS) leave no attributed
  alert at all;
- the Section-4 spoofing methods (stateless DNS and stateful mimicry)
  leave one attributed alert diluted over 11 covers, confidence 1/12;
  the 12 tied suspects exceed the analyst's capacity, so nobody is
  investigated;
- every technique detects the censorship.
"""

import pytest

from repro.runner import E9_PACK, SweepSpec, analyze_spec

SEEDS = (0, 1, 2, 3, 4)

OVERT = ("overt-http", "overt-dns")
MIMICRY = ("scan", "spam", "ddos")
SPOOFING = ("spoofed-dns", "stateful")


@pytest.fixture(scope="module")
def matrix():
    spec = SweepSpec.from_mapping({**E9_PACK, "seeds": list(SEEDS)})
    assert len(spec) == 35
    return analyze_spec(spec)["matrix"]


class TestE9Risk:
    def test_pack_scores_every_technique(self, matrix):
        assert sorted(matrix) == sorted(OVERT + MIMICRY + SPOOFING)
        for technique, cells in matrix.items():
            assert cells["points"] == len(SEEDS), technique

    def test_every_technique_detects_the_censorship(self, matrix):
        for technique, cells in matrix.items():
            assert cells["detects"] == 1.0, technique
            assert cells["false_block_rate"] == 0.0, technique

    @pytest.mark.parametrize("technique", OVERT)
    def test_overt_is_attributed_and_investigated(self, matrix, technique):
        cells = matrix[technique]
        assert cells["attributed_alerts"] == 1.0
        assert cells["attribution_confidence"] == 1.0
        assert cells["investigated"] == 1.0

    @pytest.mark.parametrize("technique", MIMICRY)
    def test_mimicry_leaves_no_attributed_alert(self, matrix, technique):
        cells = matrix[technique]
        assert cells["attributed_alerts"] == 0.0
        assert cells["attribution_confidence"] == 0.0
        assert cells["investigated"] == 0.0
        assert cells["evasion"] == 1.0

    @pytest.mark.parametrize("technique", SPOOFING)
    def test_spoofing_dilutes_attribution_past_analyst_capacity(
            self, matrix, technique):
        cells = matrix[technique]
        assert cells["attributed_alerts"] == 1.0
        assert cells["attribution_confidence"] == pytest.approx(1 / 12, abs=1e-6)
        assert cells["investigated"] == 0.0

    def test_headline_stealthy_less_risky_than_overt(self, matrix):
        for technique in OVERT:
            assert matrix[technique]["investigated"] == 1.0, technique
        for technique in MIMICRY + SPOOFING:
            assert matrix[technique]["investigated"] == 0.0, technique
        for technique in MIMICRY:
            assert matrix[technique]["attributed_alerts"] == 0.0, technique
        for technique in SPOOFING:
            assert matrix[technique]["attribution_confidence"] <= 1 / 12, technique
