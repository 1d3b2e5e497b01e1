"""End-to-end integration tests: the paper's headline claims.

Each test here is a miniature of one evaluation experiment, run through the
full stack (packets -> simulator -> censor -> surveillance -> technique ->
risk model) with no mocking anywhere.  The E1 matrix lives in
``tests/claims/test_e1_matrix.py``.
"""

import pytest

from repro.core import (
    DDoSMeasurement,
    MeasurementCampaign,
    OvertHTTPMeasurement,
    SpamMeasurement,
    StatelessSpoofedDNSMeasurement,
    Verdict,
    assess_risk,
)
from repro.core.evaluation import (
    BLOCKED_TARGETS,
    BLOCKED_TARGETS_FULL,
    CONTROL_TARGETS,
    CONTROL_TARGETS_FULL,
    build_environment,
)


TARGETS = BLOCKED_TARGETS + CONTROL_TARGETS


class TestE9RiskComparison:
    """Overt vs. stealthy: who gets attributed (the paper's headline)."""

    def test_headline_comparison(self):
        full = list(BLOCKED_TARGETS_FULL) + CONTROL_TARGETS_FULL

        # Overt campaign over the full target list.
        env = build_environment(censored=True, seed=61, population_size=12)
        env.surveillance.analyst.escalation_threshold = 1
        overt = OvertHTTPMeasurement(env.ctx, full)
        overt.start()
        env.run(duration=90.0)
        overt_risk = assess_risk(env.surveillance, "overt", "measurer",
                                 env.topo.measurement_client.ip, now=env.sim.now)

        # Spam campaign over the same list.
        env2 = build_environment(censored=True, seed=61, population_size=12)
        env2.surveillance.analyst.escalation_threshold = 1
        spam = SpamMeasurement(env2.ctx, full)
        spam.start()
        env2.run(duration=90.0)
        spam_risk = assess_risk(env2.surveillance, "spam", "measurer",
                                env2.topo.measurement_client.ip, now=env2.sim.now)

        assert overt_risk.attributed_alerts > 0
        assert overt_risk.investigated
        assert spam_risk.attributed_alerts == 0
        assert not spam_risk.investigated
        assert spam_risk.risk_score() < overt_risk.risk_score()

    def test_spoofed_cover_dilutes_confidence(self):
        env = build_environment(censored=True, seed=61, population_size=15)
        technique = StatelessSpoofedDNSMeasurement(
            env.ctx, list(BLOCKED_TARGETS_FULL), env.cover_ips(12)
        )
        technique.start()
        env.run(duration=60.0)
        risk = assess_risk(env.surveillance, "spoofed-dns", "measurer",
                           env.topo.measurement_client.ip, now=env.sim.now)
        assert risk.attribution_confidence < 0.15
        assert risk.suspect_entropy > 3.0


class TestCampaignIntegration:
    def test_mixed_campaign_with_population_traffic(self):
        env = build_environment(censored=True, seed=62, population_size=10,
                                with_population_traffic=True,
                                population_duration=20.0)
        campaign = MeasurementCampaign(env.sim)
        campaign.add(SpamMeasurement(env.ctx, BLOCKED_TARGETS), at=1.0)
        campaign.add(DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=15),
                     at=5.0)
        campaign.start()
        env.run(duration=60.0)
        grouped = campaign.results_by_technique()
        assert {r.verdict for r in grouped["spam"]} == {Verdict.DNS_POISONED}
        assert grouped["ddos"][0].verdict is Verdict.DNS_POISONED
        # The measurer stays clean even with realistic background noise.
        assert env.surveillance.attributed_alerts_for_user("measurer") == []

    def test_population_noise_produces_some_alerts(self):
        """Background users DO touch censored content (Syria rate), so the
        alert store is non-trivially populated — yet none points at us."""
        env = build_environment(censored=False, seed=63, population_size=15,
                                with_population_traffic=True,
                                population_duration=40.0)
        env.population_mix.web.censored_fraction = 0.3  # amplified for test speed
        env.run(duration=60.0)
        report = env.surveillance.suspect_report()
        assert report.total > 0
        assert report.confidence("measurer") == 0.0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run_once():
            env = build_environment(censored=True, seed=64, population_size=5)
            technique = SpamMeasurement(env.ctx, TARGETS)
            technique.start()
            env.run(duration=30.0)
            return [(r.target, r.verdict.value, r.detail) for r in technique.results]

        assert run_once() == run_once()
