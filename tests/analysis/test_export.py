"""Tests for the deck's JSON campaign document."""

import json

from repro.analysis.export import campaign_document, result_to_record, risk_to_record
from repro.core import MeasurementResult, RiskAssessment, Verdict


def result(target="twitter.com", verdict=Verdict.DNS_POISONED):
    return MeasurementResult(
        technique="spam",
        target=target,
        verdict=verdict,
        time=1.5,
        detail="poisoned",
        evidence={"stage": "mx", "addresses": ["8.7.198.45"], "raw": b"\x01\x02"},
        samples=1,
    )


class TestResultRecord:
    def test_round_trips_through_json(self):
        record = result_to_record(result())
        parsed = json.loads(json.dumps(record))
        assert parsed["technique"] == "spam"
        assert parsed["verdict"] == "dns_poisoned"
        assert parsed["blocked"] is True
        assert parsed["evidence"]["stage"] == "mx"

    def test_bytes_evidence_encoded(self):
        record = result_to_record(result())
        assert record["evidence"]["raw"] == "\x01\x02"

    def test_verdict_values_stable(self):
        for verdict in Verdict:
            record = result_to_record(result(verdict=verdict))
            assert record["verdict"] == verdict.value


class TestRiskRecord:
    def test_fields(self):
        risk = RiskAssessment("spam", 0, 0, None, 0.0, 0.0, False)
        record = risk_to_record(risk)
        assert record["evaded"] is True
        assert record["risk_score"] == 0.0
        json.dumps(record)  # must be JSON-safe


class TestCampaignDocument:
    def test_document_structure(self):
        doc = campaign_document(
            {"spam": [result()], "overt": [result(verdict=Verdict.ACCESSIBLE)]},
            risks=[RiskAssessment("spam", 0, 0, None, 0.0, 0.0, False)],
            metadata={"seed": 7},
        )
        parsed = json.loads(doc)
        assert parsed["kind"] == "campaign"
        assert parsed["metadata"]["seed"] == 7
        assert parsed["summary"]["spam"] == {"dns_poisoned": 1}
        assert len(parsed["risks"]) == 1

    def test_integrates_with_real_campaign(self):
        from repro.core import SpamMeasurement, build_environment

        env = build_environment(censored=True, seed=16, population_size=3)
        technique = SpamMeasurement(env.ctx, ["twitter.com", "example.org"])
        technique.start()
        env.run(duration=30.0)
        doc = campaign_document({"spam": technique.results})
        parsed = json.loads(doc)
        assert parsed["summary"]["spam"]["dns_poisoned"] == 1
        assert parsed["summary"]["spam"]["accessible"] == 1
