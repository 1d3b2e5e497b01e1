"""The record sink, block reader and slot-resolved fold against their
naive references.

:func:`naive_iter_rows` (one ``loads`` per line) and
:class:`NaiveRecordAnalysis` (a dictionary walk per row) are the plain
implementations the production reader and fold replace; they are kept
here only so these tests can demand the same output, or the same error,
from the fast ones:

- the reader yields the same rows, and then raises the same
  ``ValueError`` text, for any text file;
- the fold gives an equal document, or the same error message, for
  any rows, including NaN/inf numbers, ``None`` risk columns, schema-2
  rows and wrongly typed columns;
- the sink writes the header plus ``canonical_json(row) + "\\n"`` per row.

Files here are valid UTF-8: undecodable bytes raise the codec's error
from the file read itself, before the rows that share its block.
"""

import json
import os
import tempfile
from json import loads
from typing import Mapping
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import ConfusionCounts
from repro.core.evaluation import BLOCKED_TARGETS_FULL, CONTROL_TARGETS_FULL
from repro.core.results import Verdict
from repro.obs.export import canonical_json
from repro.results import RecordAnalysis, iter_rows, read_header, write_records
from repro.results import record as record_module
from repro.results.analyze import (
    _INCONCLUSIVE,
    BLOCKING_VERDICTS,
    _new_vantage_stats,
)
from repro.results.record import _parse_header


def naive_iter_rows(path):
    """The reader before block parsing: one ``loads`` per line."""
    with open(path, "r", encoding="utf-8") as fh:
        _parse_header(path, fh.readline())
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                row = loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: not a JSON row: {exc}") from exc
            if type(row) is not dict:
                raise ValueError(f"{path}:{number}: record row is not a JSON object")
            yield row


class NaiveRecordAnalysis(RecordAnalysis):
    """The fold before slot resolution: the full dictionary walk per row."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._nan = {}

    def add(self, row: Mapping[str, object]) -> None:
        """Fold one record row into the aggregates."""
        technique = row["technique"]
        vantage = row["vantage"]
        target = row["target"]
        verdict = row["verdict"]
        blocked = verdict in BLOCKING_VERDICTS
        inconclusive = verdict == _INCONCLUSIVE

        self.rows += 1
        if row["seq"] == 0:
            self.points += 1
            population = int(row.get("population", 0) or 0)
            if population:
                self._background["points_with_population"] += 1
                if population > self._background["max_population"]:
                    self._background["max_population"] = population
                self._background["background_bytes_total"] += int(
                    row.get("background_bytes", 0) or 0
                )
        self.by_verdict[verdict] = self.by_verdict.get(verdict, 0) + 1

        stats = (
            self._targets.setdefault((technique, target), {})
            .setdefault(vantage, _new_vantage_stats())
        )
        stats["rows"] += 1
        stats["confidence_sum"] += row["confidence"]
        stats["attempts_sum"] += row["attempts"]
        if inconclusive:
            stats["inconclusive"] += 1
        elif blocked:
            stats["blocked"] += 1
        else:
            stats["accessible"] += 1

        tech = self._tech.setdefault(technique, {
            "rows": 0, "points": 0, "confidence_sum": 0.0, "attempts_sum": 0,
            "evaded_points": 0, "evasion_points": 0,
            "risk_points": 0, "attributed_sum": 0, "attribution_sum": 0.0,
            "investigated_points": 0,
        })
        tech["rows"] += 1
        tech["confidence_sum"] += row["confidence"]
        tech["attempts_sum"] += row["attempts"]
        if row["seq"] == 0:
            tech["points"] += 1
            if row.get("evaded") is not None:
                tech["evasion_points"] += 1
                tech["evaded_points"] += int(bool(row["evaded"]))
            # Schema-2 rows have no risk columns: read them with .get.
            if row.get("attributed_alerts") is not None:
                tech["risk_points"] += 1
                tech["attributed_sum"] += row["attributed_alerts"]
                tech["attribution_sum"] += row["attribution_confidence"]
                tech["investigated_points"] += int(bool(row["investigated"]))

        censor = row.get("censor", "none")
        if censor and censor != "none":
            ct = self._censor_tech.setdefault((censor, technique), {
                "rows": 0, "points": 0,
                "evaded_points": 0, "evasion_points": 0,
            })
            ct["rows"] += 1
            if row["seq"] == 0:
                ct["points"] += 1
                if row.get("evaded") is not None:
                    ct["evasion_points"] += 1
                    ct["evaded_points"] += int(bool(row["evaded"]))

        self._latency.observe((technique,), row["latency"])

        truth = self.truly_blocked(target, vantage)
        if truth is not None:
            # NaN key parts are one key however many NaN objects the
            # rows hold: every NaN maps to the first one seen.
            key = tuple(
                self._nan.setdefault("nan", part) if part != part else part
                for part in (technique, row["retry"], row["loss"])
            )
            cell = self._cells.setdefault(key, ConfusionCounts())
            overall = self._tech_confusion.setdefault(technique, ConfusionCounts())
            counts_list = [cell, overall]
            if censor and censor != "none":
                counts_list.append(
                    self._censor_confusion.setdefault(
                        (censor, technique), ConfusionCounts()
                    )
                )
            for counts in counts_list:
                if inconclusive:
                    counts.inconclusive += 1
                elif truth and blocked:
                    counts.true_positive += 1
                elif truth and not blocked:
                    counts.false_negative += 1
                elif not truth and blocked:
                    counts.false_positive += 1
                else:
                    counts.true_negative += 1



def _drain(rows):
    """Rows yielded before any ``ValueError``, and that error's text."""
    out = []
    try:
        for row in rows:
            out.append(row)
    except ValueError as exc:
        return json.dumps(out), str(exc)
    return json.dumps(out), None


# -- reader -------------------------------------------------------------------

_HEADER = canonical_json({
    "kind": "header", "schema": record_module.RECORD_SCHEMA,
    "spec_hash": "feedface", "fields": list(record_module.ROW_FIELDS),
})
_TRICKY_TEXT = st.text(alphabet='{}[],:"\\ ab\n\t\u00e9', max_size=8)
_FLAT_ROW = st.dictionaries(
    st.text(alphabet="abc{}", max_size=3),
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | _TRICKY_TEXT,
    max_size=4,
)
_NESTED_ROW = st.dictionaries(
    st.text(alphabet="ab", max_size=2),
    st.lists(_FLAT_ROW, max_size=2) | _FLAT_ROW,
    max_size=2,
)
#: The three-line counterexample to joining lines unchecked: the first two
#: merge into one object and the third splits into two, so joined they
#: parse to three dicts although each line alone is rejected.
_MERGE_AND_SPLIT = ['{"a":[{"b":1}', '{"c":2}]}', '{"d":1},{"e":2}']
_LINE = st.one_of(
    _FLAT_ROW.map(canonical_json),
    _FLAT_ROW.map(canonical_json),
    _NESTED_ROW.map(canonical_json),
    _FLAT_ROW.map(lambda row: json.dumps(row) + " "),
    st.sampled_from(["", " ", "\t", "[1,2]", "3", '"x"', "null", "{",
                     "}", '{"a":1,}', "not json", "{}", '{"a":"}"}',
                     *_MERGE_AND_SPLIT]),
)


def _record_file(lines, final_newline):
    return _HEADER + "\n" + "\n".join(lines) + ("\n" if final_newline else "")


def _read_both(text, block_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.records.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with mock.patch.object(record_module, "_READ_BLOCK_BYTES", block_bytes):
            fast = _drain(iter_rows(path))
        return fast, _drain(naive_iter_rows(path))


class TestBlockReader:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_LINE, max_size=12), st.booleans(),
           st.sampled_from([1, 40, 200, 1 << 16]))
    def test_same_rows_and_same_error(self, lines, final_newline, block_bytes):
        fast, naive = _read_both(_record_file(lines, final_newline), block_bytes)
        assert fast == naive

    def test_merge_and_split_lines_are_rejected_line_by_line(self):
        fast, naive = _read_both(_record_file(_MERGE_AND_SPLIT, True), 1 << 16)
        assert fast == naive
        # no rows: line 2 alone is an error, not part of three dicts
        assert fast[0] == "[]"
        assert ":2: not a JSON row" in fast[1]

    def test_bad_line_in_a_later_block_is_reported_at_its_line(self):
        rows = [canonical_json({"seq": i, "pad": "x" * 500}) for i in range(400)]
        rows[300] = '{"seq": 300,'
        fast, naive = _read_both(_record_file(rows, True), 1 << 16)
        assert fast == naive
        assert len(json.loads(fast[0])) == 300
        assert ":302: not a JSON row" in fast[1]


# -- fold ---------------------------------------------------------------------

_NUMBER = st.one_of(
    st.floats(), st.integers(-3, 3), st.sampled_from([float("nan"),
                                                     float("inf"),
                                                     float("-inf")]),
)
_WRONG = st.sampled_from(["x", None, [1], {"a": 1}, True, 10 ** 400, ""])
_VERDICTS = [v.value for v in Verdict]
_TARGETS = [BLOCKED_TARGETS_FULL[0], BLOCKED_TARGETS_FULL[1],
            CONTROL_TARGETS_FULL[0], "mystery.example", "blocked-service",
            "GET /falun HTTP/1.1"]


@st.composite
def _row(draw):
    row = {
        "attempts": draw(st.integers(0, 4) | st.floats(0, 4)),
        "background_bytes": draw(st.integers(0, 10 ** 6)),
        "censor": draw(st.sampled_from(["gfc", "throttler", "none"])),
        "confidence": draw(_NUMBER),
        "evaded": draw(st.none() | st.booleans()),
        "latency": draw(_NUMBER),
        "loss": draw(st.sampled_from([0.0, 0.02, float("nan")])),
        "point": draw(st.integers(0, 3)),
        "population": draw(st.sampled_from([0, 0, 2000])),
        "reason": "r",
        "retry": draw(st.sampled_from(["single-shot", "retry-3"])),
        "seed": 0,
        "seq": draw(st.integers(0, 2)),
        "target": draw(st.sampled_from(_TARGETS)),
        "technique": draw(st.sampled_from(["scan", "spam", "overt-http"])),
        "topology": "censored-as",
        "vantage": draw(st.sampled_from(["censored", "clean"])),
        "verdict": draw(st.sampled_from(_VERDICTS)),
    }
    if draw(st.booleans()):  # schema 3: the point-level risk columns
        risky = draw(st.booleans())
        row.update(
            attributed_alerts=draw(st.integers(0, 5)) if risky else None,
            attribution_confidence=draw(_NUMBER) if risky else None,
            investigated=draw(st.booleans()) if risky else None,
            true_origin_alerts=draw(st.integers(0, 5)) if risky else None,
        )
    if draw(st.integers(0, 9)) == 0:
        del row["censor"]
    for column in draw(st.lists(st.sampled_from(sorted(row)), max_size=2)):
        if draw(st.integers(0, 3)) == 0:
            if draw(st.booleans()):
                row.pop(column, None)
            else:
                row[column] = draw(_WRONG)
    return row


def _fold(analysis, rows):
    try:
        return "document", repr(analysis.extend(rows).as_dict())
    except ValueError as exc:
        return "error", str(exc)


class TestSlotResolvedFold:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_row(), max_size=24))
    def test_same_document_or_same_error(self, rows):
        assert _fold(RecordAnalysis(), rows) == _fold(NaiveRecordAnalysis(), rows)

    def test_nan_latency_counts_but_lands_in_no_bucket(self):
        row = {
            "attempts": 1, "confidence": 1.0, "latency": float("nan"),
            "loss": 0.0, "retry": "single-shot", "seq": 0,
            "target": "mystery.example", "technique": "scan",
            "vantage": "clean", "verdict": "accessible",
        }
        fast = RecordAnalysis().extend([row])
        naive = NaiveRecordAnalysis().extend([row])
        assert fast._latency.bucket_counts(("scan",)) == [0] * 10
        assert fast._latency.bucket_counts(("scan",)) \
            == naive._latency.bucket_counts(("scan",))
        assert fast._latency.count(("scan",)) == 1


# -- sink ---------------------------------------------------------------------

class TestBlockSink:
    def test_bytes_are_header_plus_one_canonical_line_per_row(self, tmp_path):
        for count in (0, 1, 255, 256, 257, 513):
            rows = [{"seq": i, "verdict": _VERDICTS[i % len(_VERDICTS)],
                     "x": [i, {"b": "}{,\n"}], "f": i / 7}
                    for i in range(count)]
            path = str(tmp_path / f"rows{count}.records.jsonl")
            summary = write_records(path, "cafe", rows)
            expected = canonical_json({
                "kind": "header", "schema": record_module.RECORD_SCHEMA,
                "spec_hash": "cafe", "fields": list(record_module.ROW_FIELDS),
            }) + "\n" + "".join(canonical_json(row) + "\n" for row in rows)
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == expected
            assert summary["rows"] == count
            assert read_header(path)["spec_hash"] == "cafe"
            assert list(iter_rows(path)) == rows
