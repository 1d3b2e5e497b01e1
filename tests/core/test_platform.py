"""Tests for the measurement platform and its risk postures."""

import json

import pytest

from repro.core import build_environment
from repro.core.platform import MeasurementPlatform, RISK_POSTURES
from repro.results import rows_from_point

DOMAINS = ["twitter.com", "example.org"]


def run_platform(posture, censored=True, seed=22):
    env = build_environment(censored=censored, seed=seed, population_size=14)
    platform = MeasurementPlatform(env, posture=posture)
    report = platform.run_deck(DOMAINS, duration=120.0)
    return env, report


class TestPostures:
    def test_unknown_posture_rejected(self):
        env = build_environment(censored=False, seed=22, population_size=4)
        with pytest.raises(ValueError):
            MeasurementPlatform(env, posture="reckless")

    @pytest.mark.parametrize("posture", RISK_POSTURES)
    def test_every_posture_finds_the_blocking(self, posture):
        _env, report = run_platform(posture)
        assert report.blocked_domains() == ["twitter.com"]

    @pytest.mark.parametrize("posture", RISK_POSTURES)
    def test_every_posture_clean_when_open(self, posture):
        _env, report = run_platform(posture, censored=False)
        assert report.blocked_domains() == []

    def test_overt_posture_attributed(self):
        env, report = run_platform("overt", censored=False)
        # Open network so the HTTP content flows and the interest rule fires.
        assert not report.risk.evaded
        assert report.risk.investigated

    def test_stealthy_posture_evades(self):
        _env, report = run_platform("stealthy")
        assert report.risk.evaded
        assert not report.risk.investigated

    def test_paranoid_posture_diluted(self):
        _env, report = run_platform("paranoid")
        assert report.risk.attribution_confidence < 0.5


class TestDeckReport:
    def test_deck_runs_all_tests(self):
        _env, report = run_platform("stealthy")
        assert set(report.results_by_test) == {
            "dns_consistency", "http_reachability", "tcp_reachability",
        }
        assert all(results for results in report.results_by_test.values())

    def test_json_document(self):
        # The deck's JSON form: one record row per result, the deck's risk
        # stamped on each (what ``repro deck --json`` prints).
        _env, report = run_platform("stealthy")
        rows = []
        for index, (test_name, results) in enumerate(report.results_by_test.items()):
            point = {"index": index, "seed": 22, "loss": 0.0,
                     "retry": "single-shot", "topology": "censored-as",
                     "technique": f"deck-stealthy/{test_name}"}
            rows += rows_from_point(point, results, vantage="censored",
                                    censor="gfc", risk=report.risk)
        parsed = [json.loads(json.dumps(row)) for row in rows]
        assert parsed == rows
        assert "deck-stealthy/dns_consistency" in {row["technique"] for row in parsed}
        assert all(any(domain in row["target"] for domain in DOMAINS)
                   for row in parsed)
        assert all(row["evaded"] is True for row in parsed)
