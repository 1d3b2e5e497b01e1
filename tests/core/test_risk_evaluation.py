"""Tests for the risk model, the evaluation environment, and E1 scoring."""

import pytest

from repro.core import (
    OvertHTTPMeasurement,
    RiskAssessment,
    SpamMeasurement,
    Verdict,
    assess_risk,
)
from repro.core.evaluation import (
    BLOCKED_TARGETS,
    CONTROL_TARGETS,
    build_environment,
)
from repro.runner import E1_PACK, SweepSpec, analyze_spec, run_point
from repro.surveillance.system import SurveillanceSystem


class TestRiskAssessment:
    def test_evaded_when_no_attribution(self):
        risk = RiskAssessment("t", attributed_alerts=0, true_origin_alerts=0,
                              suspect_rank=None, attribution_confidence=0.0,
                              suspect_entropy=0.0, investigated=False)
        assert risk.evaded
        assert risk.risk_score() == 0.0

    def test_investigation_dominates(self):
        risk = RiskAssessment("t", attributed_alerts=1, true_origin_alerts=1,
                              suspect_rank=1, attribution_confidence=0.1,
                              suspect_entropy=3.0, investigated=True)
        assert risk.risk_score() == 1.0

    def test_entropy_discounts_risk(self):
        confident = RiskAssessment("t", 5, 5, 1, 1.0, 0.0, False)
        diluted = RiskAssessment("t", 5, 5, 1, 0.1, 3.5, False)
        assert diluted.risk_score() < confident.risk_score()


class TestAssessRisk:
    def test_overt_measurer_assessed_risky(self):
        env = build_environment(censored=False, seed=50, population_size=4)
        technique = OvertHTTPMeasurement(env.ctx, BLOCKED_TARGETS)
        technique.start()
        env.run(duration=30.0)
        risk = assess_risk(env.surveillance, "overt-http", "measurer",
                           env.topo.measurement_client.ip, now=env.sim.now)
        assert not risk.evaded
        assert risk.attributed_alerts >= 1
        assert risk.suspect_rank == 1
        assert risk.investigated
        assert risk.risk_score() == 1.0

    def test_spam_measurer_assessed_safe(self):
        env = build_environment(censored=True, seed=50, population_size=4)
        technique = SpamMeasurement(env.ctx, BLOCKED_TARGETS + CONTROL_TARGETS)
        technique.start()
        env.run(duration=30.0)
        risk = assess_risk(env.surveillance, "spam", "measurer",
                           env.topo.measurement_client.ip, now=env.sim.now)
        assert risk.evaded
        assert not risk.investigated

    def test_effective_alerts_built_once_per_point(self, monkeypatch):
        # Bot suppression scans every stored alert: a censored-as point's
        # risk assessment must build the effective alerts exactly once.
        calls = []
        original = SurveillanceSystem.effective_alerts

        def spy(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(SurveillanceSystem, "effective_alerts", spy)
        for point in _pack("overt-http").points():
            calls.clear()
            record = run_point(point.as_dict())
            assert record["status"] == "ok"
            assert len(calls) == 1, point.as_dict()["vantage"]


def _pack(technique):
    """One technique of the E1 pack at base seed 51: two points, one per
    vantage."""
    return SweepSpec.from_mapping(
        {**E1_PACK, "techniques": [technique], "base_seed": 51}
    )


class TestEvaluateTechnique:
    """One E1 row, scored the way every campaign is scored."""

    def test_spam_outcome_fully_successful(self):
        row = analyze_spec(_pack("spam"))["matrix"]["spam"]
        assert row["accuracy"] == 1.0
        assert row["detects"] == 1.0
        assert row["false_block_rate"] == 0.0
        assert row["evasion"] == 1.0

    def test_overt_outcome_accurate_but_not_evasive(self):
        row = analyze_spec(_pack("overt-http"))["matrix"]["overt-http"]
        assert row["accuracy"] == 1.0
        assert row["evasion"] < 1.0

    def test_run_records_expose_verdicts(self):
        censored, clean = (run_point(p.as_dict()) for p in _pack("spam").points())
        assert (censored["params"]["vantage"], clean["params"]["vantage"]) \
            == ("censored", "clean")

        def verdict(record, target):
            (row,) = [r for r in record["records"] if r["target"] == target]
            return row["verdict"]

        assert Verdict(verdict(censored, "twitter.com")).indicates_blocking
        assert verdict(clean, "twitter.com") == Verdict.ACCESSIBLE.value
        assert censored["censor_events"] > 0
        assert clean["censor_events"] == 0


class TestBuildEnvironment:
    def test_censored_flag_controls_policy(self):
        censored = build_environment(censored=True, seed=52, population_size=3)
        open_env = build_environment(censored=False, seed=52, population_size=3)
        assert censored.censor.policy.enabled()
        assert not open_env.censor.policy.enabled()

    def test_population_traffic_optional(self):
        env = build_environment(censored=False, seed=52, population_size=5,
                                with_population_traffic=True, population_duration=2.0)
        env.run(duration=5.0)
        assert env.population_mix is not None
        assert env.population_mix.stats()["web_requests"] > 0

    def test_cover_ips_subset(self):
        env = build_environment(seed=52, population_size=10)
        assert len(env.cover_ips(4)) == 4
        assert len(env.cover_ips()) == 10

    def test_cover_ips_beyond_the_population_raises(self):
        env = build_environment(seed=52, population_size=10)
        assert len(env.cover_ips(10)) == 10
        with pytest.raises(ValueError, match="cover 11 exceeds the 10 population hosts"):
            env.cover_ips(11)

    def test_expected_addresses_populated(self):
        env = build_environment(seed=52, population_size=3)
        assert env.ctx.expected_addresses["twitter.com"] == env.topo.blocked_web.ip
