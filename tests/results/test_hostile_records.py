"""Hostile record input: whatever a row or a record file holds, the analysis
either returns its document or raises ``ValueError`` — nothing else.

``repro report`` maps ``ValueError`` to one ``error:`` line, so any other
exception escaping :meth:`RecordAnalysis.extend` (or the document it
builds) would be a traceback for the user.  Two sources are fuzzed: JSON-
shaped rows (valid rows with columns dropped or replaced by arbitrary
JSON values, and arbitrary objects), and byte-mutated valid record files
read back through :func:`iter_rows`.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MeasurementResult, RiskAssessment, Verdict
from repro.results import (
    ROW_FIELDS,
    RecordAnalysis,
    iter_rows,
    rows_from_point,
    write_records,
)

_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6))
_JSON = _SCALAR | st.recursive(
    _SCALAR,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _valid_rows():
    risk = RiskAssessment("spoofed-dns", 1, 12, 1, 1 / 12, 3.58, False)
    rows = []
    for index, (target, verdict, vantage) in enumerate([
        ("twitter.com", Verdict.DNS_POISONED, "censored"),
        ("example.org", Verdict.ACCESSIBLE, "censored"),
        ("twitter.com", Verdict.ACCESSIBLE, "clean"),
        ("mystery.example", Verdict.INCONCLUSIVE, "clean"),
    ]):
        point = dict(index=index, seed=0, technique="spoofed-dns",
                     topology="censored-as", loss=0.02, retry="retry-3",
                     population=index * 100)
        result = MeasurementResult("spoofed-dns", target, verdict,
                                   time=0.5 * index, attempts=2, confidence=0.75)
        rows.extend(rows_from_point(
            point, [result, result], vantage=vantage,
            censor="gfc" if vantage == "censored" else "none",
            risk=risk if index % 2 else None, background_bytes=index * 1000,
        ))
    return rows


VALID_ROWS = _valid_rows()


def _document_or_value_error(rows):
    try:
        return RecordAnalysis().extend(rows).as_dict()
    except ValueError:
        return None


@st.composite
def _damaged_row(draw):
    row = dict(draw(st.sampled_from(VALID_ROWS)))
    for column in draw(st.lists(st.sampled_from(ROW_FIELDS), max_size=3)):
        if draw(st.booleans()):
            row[column] = draw(_JSON)
        else:
            row.pop(column, None)
    return row


class TestHostileRows:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_damaged_row(), max_size=3),
           st.lists(st.sampled_from(VALID_ROWS), max_size=3), st.randoms())
    def test_damaged_rows_give_a_document_or_value_error(
            self, damaged, valid, rng):
        rows = damaged + valid
        rng.shuffle(rows)
        _document_or_value_error(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.dictionaries(st.sampled_from(ROW_FIELDS) | st.text(max_size=4),
                        _JSON, max_size=len(ROW_FIELDS)),
        max_size=4,
    ))
    def test_arbitrary_objects_give_a_document_or_value_error(self, rows):
        _document_or_value_error(rows)

    def test_valid_rows_give_a_document(self):
        assert _document_or_value_error(VALID_ROWS)["rows"] == len(VALID_ROWS)


def _valid_file_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.records.jsonl")
        write_records(path, "cafe0123cafe0123", VALID_ROWS)
        with open(path, "rb") as fh:
            return fh.read()


VALID_FILE = _valid_file_bytes()


@st.composite
def _mutated_file(draw):
    data = bytearray(VALID_FILE)
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(("replace", "delete", "insert")))
        if kind == "delete":
            del data[position]
        else:
            byte = draw(st.integers(0, 255) | st.sampled_from(b'{}[]",:0-.e\n'))
            if kind == "replace":
                data[position] = byte
            else:
                data.insert(position, byte)
    return bytes(data)


class TestMutatedRecordFiles:
    @settings(max_examples=200, deadline=None)
    @given(_mutated_file())
    def test_mutated_file_gives_a_document_or_value_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutated.records.jsonl")
            with open(path, "wb") as fh:
                fh.write(data)
            _document_or_value_error(iter_rows(path))

    def test_unmutated_file_gives_a_document(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "valid.records.jsonl")
            with open(path, "wb") as fh:
                fh.write(VALID_FILE)
            doc = _document_or_value_error(iter_rows(path))
        assert doc["rows"] == len(VALID_ROWS)
