"""Tests for the JSON export of measurement results.

A result leaves a run as a record row (:func:`repro.results.rows_from_point`);
a campaign's document is the record file: a header line, then one row per
result (:func:`repro.results.write_records`).
"""

import json

from repro.core import MeasurementResult, RiskAssessment, Verdict
from repro.results import (
    RECORD_SCHEMA,
    ROW_FIELDS,
    iter_rows,
    read_header,
    rows_from_point,
    write_records,
)


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


def point(index=0, technique="spam"):
    return {"index": index, "seed": 7, "technique": technique,
            "topology": "censored-as", "loss": 0.0, "retry": "single-shot"}


def record(res, risk=None):
    (row,) = rows_from_point(point(), [res], vantage="censored",
                             censor="gfc", risk=risk)
    return row


class TestResultRecord:
    def test_round_trips_through_json(self):
        row = record(result())
        parsed = json.loads(json.dumps(row))
        assert parsed == row
        assert parsed["technique"] == "spam"
        assert parsed["target"] == "twitter.com"
        assert parsed["verdict"] == "dns_poisoned"
        assert parsed["reason"] == "poisoned"
        assert parsed["latency"] == 1.5

    def test_verdict_values_stable(self):
        for verdict in Verdict:
            assert record(result(verdict=verdict))["verdict"] == verdict.value


class TestCampaignDocument:
    def test_document_structure(self, tmp_path):
        risk = RiskAssessment("spam", 0, 0, None, 0.0, 0.0, False)
        rows = (
            rows_from_point(point(0, "spam"), [result()], vantage="censored",
                            censor="gfc", risk=risk)
            + rows_from_point(point(1, "overt"),
                              [result(verdict=Verdict.ACCESSIBLE)],
                              vantage="censored", censor="gfc", risk=None)
        )
        path = str(tmp_path / "campaign.records.jsonl")
        summary = write_records(path, "cafe0123cafe0123", rows)
        header = read_header(path)
        assert header["kind"] == "header"
        assert header["schema"] == RECORD_SCHEMA
        assert header["fields"] == list(ROW_FIELDS)
        assert summary == {"rows": 2,
                           "by_verdict": {"accessible": 1, "dns_poisoned": 1}}
        parsed = list(iter_rows(path))
        assert parsed == rows
        assert parsed[0]["seed"] == 7
        assert parsed[0]["evaded"] is True
        assert parsed[1]["evaded"] is None
