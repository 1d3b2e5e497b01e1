"""Record sink: row construction, byte-stable rendering, the reader."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MeasurementResult, RiskAssessment, Verdict
from repro.results import (
    RECORD_SCHEMA,
    ROW_FIELDS,
    iter_rows,
    read_header,
    rows_from_point,
    summarize_rows,
    write_records,
)

HASH = "cafe0123cafe0123"


def point_dict(index=0, **overrides):
    params = dict(index=index, seed=3, technique="scan",
                  topology="censored-as", loss=0.05, retry="retry-3")
    params.update(overrides)
    return params


def result(target="facebook.com", verdict=Verdict.BLOCKED_RST):
    return MeasurementResult("scan", target, verdict, detail="RST on SYN",
                             time=1.25, samples=4, attempts=2, confidence=0.75)


def risk(attributed=0, investigated=False):
    """A point-level risk assessment: ``attributed`` alerts on the measurer
    out of ``2 * attributed`` whose true origin was the measurer."""
    return RiskAssessment(
        "scan", attributed_alerts=attributed, true_origin_alerts=2 * attributed,
        suspect_rank=1 if attributed else None,
        attribution_confidence=0.5 if attributed else 0.0,
        suspect_entropy=1.0 if attributed else 0.0, investigated=investigated,
    )


def make_rows(point_index=0, count=2):
    return rows_from_point(
        point_dict(point_index),
        [result(target=f"t{i}") for i in range(count)],
        vantage="censored", censor="gfc", risk=risk(),
    )


class TestRowsFromPoint:
    def test_one_row_per_result_with_seq(self):
        rows = make_rows(count=3)
        assert [row["seq"] for row in rows] == [0, 1, 2]
        assert all(row["point"] == 0 for row in rows)

    def test_rows_carry_exactly_the_documented_fields(self):
        (row,) = make_rows(count=1)
        assert tuple(sorted(row)) == ROW_FIELDS

    def test_point_and_result_fields_map_through(self):
        (row,) = rows_from_point(
            point_dict(7), [result()],
            vantage="clean", censor="none", risk=None,
        )
        assert row["point"] == 7
        assert row["technique"] == "scan"
        assert row["loss"] == 0.05
        assert row["retry"] == "retry-3"
        assert row["seed"] == 3
        assert row["target"] == "facebook.com"
        assert row["verdict"] == "blocked_rst"
        assert row["reason"] == "RST on SYN"
        assert row["latency"] == 1.25
        assert row["attempts"] == 2
        assert row["confidence"] == 0.75
        assert row["vantage"] == "clean"
        assert row["censor"] == "none"
        assert row["evaded"] is None
        for column in ("attributed_alerts", "true_origin_alerts",
                       "attribution_confidence", "investigated"):
            assert row[column] is None

    def test_risk_columns_stamped_on_every_row(self):
        rows = rows_from_point(
            point_dict(), [result(target="a"), result(target="b")],
            vantage="censored", censor="gfc",
            risk=risk(attributed=2, investigated=True),
        )
        for row in rows:
            assert row["evaded"] is False
            assert row["attributed_alerts"] == 2
            assert row["true_origin_alerts"] == 4
            assert row["attribution_confidence"] == 0.5
            assert row["investigated"] is True

    def test_rows_are_json_scalars_only(self):
        for row in make_rows(count=2):
            assert json.loads(json.dumps(row)) == row


class TestWriteRecords:
    def test_header_then_canonical_rows(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        rows = make_rows(count=2)
        write_records(path, HASH, rows)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        assert header == {"kind": "header", "schema": RECORD_SCHEMA,
                          "spec_hash": HASH, "fields": list(ROW_FIELDS)}
        assert len(lines) == 3
        for line, row in zip(lines[1:], rows):
            assert line == json.dumps(row, sort_keys=True,
                                      separators=(",", ":"))

    def test_summary_counts_rows_and_verdicts(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        rows = [dict(row, verdict=v) for row, v in zip(
            make_rows(count=3),
            ("accessible", "blocked_rst", "blocked_rst"),
        )]
        summary = write_records(path, HASH, rows)
        assert summary == {
            "rows": 3,
            "by_verdict": {"accessible": 1, "blocked_rst": 2},
        }

    def test_summarize_rows_matches_sink_summary(self, tmp_path):
        rows = make_rows(count=4)
        path = str(tmp_path / "c.records.jsonl")
        assert summarize_rows(rows) == write_records(path, HASH, rows)

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        write_records(path, HASH, make_rows())
        assert not os.path.exists(path + ".tmp")

    def test_accepts_a_generator(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        summary = write_records(path, HASH, (row for row in make_rows(count=5)))
        assert summary["rows"] == 5


class TestReader:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        rows = make_rows(count=3)
        write_records(path, HASH, rows)
        assert list(iter_rows(path)) == rows
        assert read_header(path)["spec_hash"] == HASH

    def test_reader_is_a_generator(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        write_records(path, HASH, make_rows(count=2))
        stream = iter_rows(path)
        assert next(stream)["seq"] == 0  # pulls rows lazily

    def test_missing_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        path_obj = tmp_path / "bad.jsonl"
        path_obj.write_text('{"not": "a header"}\n')
        with pytest.raises(ValueError, match="missing header"):
            read_header(path)
        with pytest.raises(ValueError, match="missing header"):
            list(iter_rows(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path_obj = tmp_path / "old.jsonl"
        path_obj.write_text(
            json.dumps({"kind": "header", "schema": RECORD_SCHEMA + 1,
                        "spec_hash": HASH}) + "\n"
        )
        with pytest.raises(ValueError, match="record schema"):
            list(iter_rows(str(path_obj)))

    def test_unparseable_header_rejected(self, tmp_path):
        path_obj = tmp_path / "torn.jsonl"
        path_obj.write_text("{{{{\n")
        with pytest.raises(ValueError):
            read_header(str(path_obj))

    def test_non_object_row_names_path_and_line(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        write_records(path, HASH, make_rows(count=1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("[1]\n")
        with pytest.raises(ValueError, match=f"{path}:3: .*not a JSON object"):
            list(iter_rows(path))

    def test_unparseable_row_names_path_and_line(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        write_records(path, HASH, [])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{torn\n")
        with pytest.raises(ValueError, match=f"{path}:2: not a JSON row"):
            list(iter_rows(path))

    def test_empty_file_names_path(self, tmp_path):
        path_obj = tmp_path / "empty.records.jsonl"
        path_obj.write_text("")
        for read in (read_header, lambda p: list(iter_rows(p))):
            with pytest.raises(ValueError, match=f"{path_obj}: not a record file"):
                read(str(path_obj))

    def test_blank_trailing_lines_tolerated(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        write_records(path, HASH, make_rows(count=1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        assert len(list(iter_rows(path))) == 1


class TestShardUnionProperty:
    """The determinism argument, as a property: however the points were
    partitioned into shards and in whatever order they completed, the
    grid-order merge yields exactly one row per (point, seq) and the
    rendered record file is byte-identical to the serial render."""

    @staticmethod
    def _point_records(row_counts):
        records = []
        for index, count in enumerate(row_counts):
            rows = rows_from_point(
                point_dict(index),
                [result(target=f"t{i}") for i in range(count)],
                vantage="censored", censor="gfc", risk=risk(attributed=1),
            )
            records.append({"index": index, "status": "ok", "records": rows})
        return records

    @settings(max_examples=40, deadline=None)
    @given(
        row_counts=st.lists(st.integers(min_value=0, max_value=4),
                            min_size=1, max_size=8),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_rows_union_is_one_row_per_point_and_seq(
        self, tmp_path_factory, row_counts, shuffle
    ):
        records = self._point_records(row_counts)
        completion = list(records)
        shuffle.shuffle(completion)  # arbitrary completion order

        # the runner's merge: index-sorted records, rows concatenated
        outcomes = {record["index"]: record for record in completion}
        merged = [row for index in sorted(outcomes)
                  for row in outcomes[index]["records"]]

        expected_keys = [(index, seq)
                         for index, count in enumerate(row_counts)
                         for seq in range(count)]
        assert [(row["point"], row["seq"]) for row in merged] == expected_keys

        tmp = tmp_path_factory.mktemp("records")
        serial_path = str(tmp / "serial.jsonl")
        merged_path = str(tmp / "merged.jsonl")
        write_records(serial_path, HASH,
                      [row for record in records
                       for row in record["records"]])
        write_records(merged_path, HASH, merged)
        with open(serial_path, "rb") as a, open(merged_path, "rb") as b:
            assert a.read() == b.read()
