"""Streaming analysis: classification labels, matrix, curves, quantiles."""

import pytest

from repro.results import RecordAnalysis, analyze_records, iter_rows, write_records


def row(**overrides):
    base = dict(
        attempts=1, censor="gfc", confidence=0.9, evaded=None, latency=0.5,
        loss=0.0, point=0, reason="", retry="retry-3", seed=0, seq=0,
        target="facebook.com", technique="scan", topology="censored-as",
        vantage="censored", verdict="blocked_rst",
    )
    base.update(overrides)
    return base


def classify_one(rows, **kwargs):
    doc = analyze_records(rows, **kwargs)
    assert len(doc["classification"]) == 1
    return doc["classification"][0]


class TestGroundTruth:
    def test_blocked_names_are_blocked_only_at_censored_vantage(self):
        analysis = RecordAnalysis()
        assert analysis.truly_blocked("facebook.com", "censored") is True
        assert analysis.truly_blocked("facebook.com", "clean") is False

    def test_control_names_are_open_everywhere(self):
        analysis = RecordAnalysis()
        assert analysis.truly_blocked("example.org", "censored") is False
        assert analysis.truly_blocked("example.org", "clean") is False

    def test_unknown_targets_are_unscored(self):
        analysis = RecordAnalysis()
        assert analysis.truly_blocked("mystery.example", "censored") is None

    def test_custom_name_lists_override_defaults(self):
        analysis = RecordAnalysis(blocked_targets=["weird.example"],
                                  control_targets=[])
        assert analysis.truly_blocked("weird.example", "censored") is True
        assert analysis.truly_blocked("facebook.com", "censored") is None


class TestClassification:
    def test_blocked_at_censored_open_at_clean_is_censored(self):
        entry = classify_one([
            row(vantage="censored", verdict="blocked_rst"),
            row(vantage="clean", censor="none", verdict="accessible", point=1),
        ])
        assert entry["classification"] == "censored"
        assert entry["confidence"] == 1.0

    def test_open_everywhere_is_accessible(self):
        entry = classify_one([
            row(vantage="censored", verdict="accessible"),
            row(vantage="clean", censor="none", verdict="accessible", point=1),
        ])
        assert entry["classification"] == "accessible"

    def test_blocked_at_both_vantages_is_path_anomaly(self):
        entry = classify_one([
            row(vantage="censored", verdict="blocked_timeout"),
            row(vantage="clean", censor="none", verdict="blocked_timeout",
                point=1),
        ])
        assert entry["classification"] == "path-anomaly"

    def test_open_at_censored_blocked_at_clean_is_inconsistent(self):
        entry = classify_one([
            row(vantage="censored", verdict="accessible"),
            row(vantage="clean", censor="none", verdict="blocked_timeout",
                point=1),
        ])
        assert entry["classification"] == "inconsistent"

    def test_censored_vantage_alone_is_unconfirmed(self):
        entry = classify_one([row(vantage="censored", verdict="blocked_rst")])
        assert entry["classification"] == "unconfirmed-censored"
        assert "clean" not in entry

    def test_clean_vantage_alone_blocked_is_path_anomaly(self):
        entry = classify_one([
            row(vantage="clean", censor="none", verdict="blocked_timeout"),
        ])
        assert entry["classification"] == "path-anomaly"

    def test_all_inconclusive_is_inconclusive(self):
        entry = classify_one([
            row(verdict="inconclusive"),
            row(vantage="clean", verdict="inconclusive", point=1),
        ])
        assert entry["classification"] == "inconclusive"
        assert entry["confidence"] == 0.0

    def test_confidence_is_rows_weighted_agreement(self):
        entry = classify_one([
            row(verdict="blocked_rst", point=0),
            row(verdict="blocked_rst", point=1),
            row(verdict="accessible", point=2),
            row(vantage="clean", censor="none", verdict="accessible", point=3),
        ])
        assert entry["classification"] == "censored"
        # censored vantage: 2/3 agreement over 3 rows; clean: 1/1 over 1
        assert entry["confidence"] == pytest.approx((2 / 3 * 3 + 1) / 4)

    def test_per_vantage_stats_are_reported(self):
        entry = classify_one([
            row(verdict="blocked_rst"),
            row(verdict="inconclusive", point=1),
            row(vantage="clean", censor="none", verdict="accessible", point=2),
        ])
        assert entry["censored"] == {
            "rows": 2, "blocked": 1, "accessible": 0, "inconclusive": 1,
            "mean_confidence": 0.9,
        }
        assert entry["clean"]["rows"] == 1


class TestMatrix:
    def test_detects_is_recall_over_blocked_ground_truth(self):
        doc = analyze_records([
            row(target="facebook.com", verdict="blocked_rst"),
            row(target="twitter.com", verdict="accessible", point=1),
        ])
        assert doc["matrix"]["scan"]["detects"] == pytest.approx(0.5)

    def test_detects_none_without_blocked_ground_truth(self):
        doc = analyze_records([
            row(target="example.org", verdict="accessible"),
        ])
        assert doc["matrix"]["scan"]["detects"] is None

    def test_false_block_rate_over_open_ground_truth(self):
        doc = analyze_records([
            row(target="example.org", verdict="blocked_timeout"),
            row(target="wikipedia.org", verdict="accessible", point=1),
        ])
        assert doc["matrix"]["scan"]["false_block_rate"] == pytest.approx(0.5)

    def test_evasion_aggregates_point_level_stamps_once_per_point(self):
        doc = analyze_records([
            row(evaded=True, point=0, seq=0),
            row(evaded=True, point=0, seq=1, target="twitter.com"),
            row(evaded=False, point=1, seq=0),
        ])
        # two points with MVR data, one evaded: seq>0 rows must not vote
        assert doc["matrix"]["scan"]["evasion"] == pytest.approx(0.5)

    def test_evasion_none_without_mvr_data(self):
        doc = analyze_records([row(evaded=None)])
        assert doc["matrix"]["scan"]["evasion"] is None

    def test_risk_columns_fold_once_per_point(self):
        risk = dict(attributed_alerts=2, true_origin_alerts=4,
                    attribution_confidence=0.5, investigated=True)
        doc = analyze_records([
            row(point=0, seq=0, **risk),
            row(point=0, seq=1, target="twitter.com", **risk),
            row(point=1, seq=0, attributed_alerts=0, true_origin_alerts=0,
                attribution_confidence=0.0, investigated=False),
        ])
        cells = doc["matrix"]["scan"]
        # two points with risk data: seq>0 rows must not vote
        assert cells["attributed_alerts"] == pytest.approx(1.0)
        assert cells["attribution_confidence"] == pytest.approx(0.25)
        assert cells["investigated"] == pytest.approx(0.5)

    def test_risk_columns_none_without_mvr_or_in_schema_2_rows(self):
        # row() carries no risk columns at all (a schema-2 row); a
        # three-node row carries them as null
        doc = analyze_records([
            row(), row(point=1, technique="t", attributed_alerts=None,
                       true_origin_alerts=None, attribution_confidence=None,
                       investigated=None),
        ])
        for technique in ("scan", "t"):
            cells = doc["matrix"][technique]
            assert cells["attributed_alerts"] is None
            assert cells["attribution_confidence"] is None
            assert cells["investigated"] is None

    def test_stateful_probe_keyword_is_blocked_ground_truth(self):
        analysis = RecordAnalysis()
        assert analysis.truly_blocked("GET /falun HTTP/1.1", "censored") is True
        assert analysis.truly_blocked("GET /falun HTTP/1.1", "clean") is False

    def test_unknown_targets_do_not_enter_the_confusion(self):
        doc = analyze_records([
            row(target="mystery.example", verdict="blocked_rst"),
        ])
        assert doc["matrix"]["scan"]["scored"] == 0


class TestCurvesAndLatency:
    def test_curves_keyed_by_technique_retry_sorted_by_loss(self):
        doc = analyze_records([
            row(target="example.org", loss=0.05, verdict="blocked_timeout"),
            row(target="example.org", loss=0.0, verdict="accessible", point=1),
        ])
        assert doc["false_block_curves"]["scan"]["retry-3"] == [
            [0.0, 0.0, 1], [0.05, 1.0, 1],
        ]

    def test_cells_without_open_rows_are_skipped(self):
        doc = analyze_records([
            row(target="facebook.com", verdict="blocked_rst"),
        ])
        assert doc["false_block_curves"] == {}

    def test_latency_quantiles_per_technique(self):
        doc = analyze_records([
            row(latency=0.02), row(latency=0.3, point=1),
            row(latency=2.0, point=2),
        ])
        latency = doc["latency"]["scan"]
        assert latency["count"] == 3
        assert 0.0 < latency["p50"] <= 0.5
        assert latency["p99"] <= 5.0


class TestDocument:
    def test_points_counts_seq_zero_rows_only(self):
        doc = analyze_records([
            row(point=0, seq=0), row(point=0, seq=1, target="t2"),
            row(point=1, seq=0),
        ])
        assert doc["rows"] == 3
        assert doc["points"] == 2

    def test_by_verdict_and_tally_are_sorted(self):
        doc = analyze_records([
            row(verdict="blocked_rst"),
            row(vantage="clean", censor="none", verdict="accessible", point=1),
            row(target="example.org", verdict="accessible", point=2),
            row(target="example.org", vantage="clean", censor="none",
                verdict="accessible", point=3),
        ])
        assert list(doc["by_verdict"]) == sorted(doc["by_verdict"])
        assert doc["classification_tally"] == {"accessible": 1, "censored": 1}

    def test_empty_stream_yields_empty_document(self):
        doc = analyze_records([])
        assert doc["rows"] == 0
        assert doc["classification"] == []
        assert doc["matrix"] == {}
        assert doc["latency"] == {}


class TestMalformedRows:
    def test_missing_column_is_a_value_error_naming_it(self):
        with pytest.raises(ValueError, match="'technique' column"):
            analyze_records([row(), {"verdict": "accessible"}])
        with pytest.raises(ValueError, match="'seq' column"):
            RecordAnalysis().extend([{k: v for k, v in row().items() if k != "seq"}])

    def test_missing_column_from_a_record_file(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        write_records(path, "cafe", [row()])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"verdict":"accessible"}\n')
        with pytest.raises(ValueError, match="'technique' column"):
            analyze_records(iter_rows(path))

    @pytest.mark.parametrize("column, value", [
        ("attempts", "x"),
        ("confidence", [1]),
        ("technique", ["scan"]),
        ("population", float("inf")),
    ])
    def test_wrongly_typed_column_is_a_value_error_naming_the_row(
            self, column, value):
        with pytest.raises(ValueError, match="record row 2 "):
            analyze_records([row(), row(point=1, **{column: value})])

    def test_wrongly_typed_column_from_a_record_file(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        write_records(path, "cafe", [row(), row(point=1, attempts="x")])
        with pytest.raises(ValueError, match="record row 2 has a wrongly typed"):
            analyze_records(iter_rows(path))


class TestNaNKeys:
    """A NaN loss opens one cell however many NaN objects the rows hold."""

    def test_in_memory_nan_rows_share_one_cell(self, tmp_path):
        rows = [
            row(loss=float("nan"), point=index, target="example.org",
                verdict="accessible")
            for index in range(5)
        ]
        in_memory = RecordAnalysis().extend(rows)
        assert len(in_memory._cells) == 1
        path = str(tmp_path / "nan.records.jsonl")
        write_records(path, "nan", rows)
        read_back = RecordAnalysis().extend(iter_rows(path))
        assert len(read_back._cells) == 1
        assert repr(in_memory.as_dict()) == repr(read_back.as_dict())
        ((loss, rate, samples),) = in_memory.false_block_curves()["scan"]["retry-3"]
        assert loss != loss and rate == 0.0 and samples == 5
