"""The measurement-record schema and its byte-stable JSONL sink/reader.

One row per measurement verdict a campaign produced: which technique
asked, from which vantage, against which censor model and target, what
it concluded and with how much evidence.  Rows are born in the sweep
workers (:func:`rows_from_point` runs where the point's results still
exist), ride the campaign journal inside the point record — so they
survive crashes and resumes for free — and are rendered to
``PREFIX.records.jsonl`` in grid-index order at merge time.  Because the
render order is the grid order (never completion order) and every line
is canonical JSON, serial, work-stealing, and kill-then-resumed
campaigns produce ``cmp``-identical record files; the determinism tests
and the CI smoke job enforce exactly that.

The file layout mirrors the campaign journal: line 1 is a header
pinning the record schema and the spec's content hash, every later line
is one bare row object.  :func:`write_records` renders rows a few
hundred lines per ``write``; :func:`iter_rows` is a generator over the
file that holds one bounded block of lines (about 64 KiB) at a time,
which is the memory contract the streaming analysis layer (and its
memory-bounded test) is built on.
"""

from __future__ import annotations

import os
from json import loads
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from ..core.results import MeasurementResult
from ..core.risk import RiskAssessment
from ..obs.export import canonical_json

__all__ = [
    "RECORD_SCHEMA",
    "ROW_FIELDS",
    "iter_rows",
    "read_header",
    "rows_from_point",
    "summarize_rows",
    "write_records",
]

#: Record-file schema version; bumped only for incompatible row changes.
#: v2 added the background-load columns (``background_bytes``,
#: ``population``) for points that ran under synthetic cover traffic;
#: v3 the point-level risk columns (``attributed_alerts``,
#: ``true_origin_alerts``, ``attribution_confidence``, ``investigated``).
RECORD_SCHEMA = 3

#: Every row carries exactly these keys (canonical JSON sorts them, so
#: this tuple is also the documented column order of the sink).
ROW_FIELDS = (
    "attempts",          # probe attempts folded into this verdict
    "attributed_alerts",  # point-level: effective MVR alerts attributed to
                          # the measurer's user (null where no MVR exists)
    "attribution_confidence",  # point-level: the measurer's share of the
                               # attributable alerts (null where no MVR)
    "background_bytes",  # background wire bytes (both tiers) the point's
                         # population generated during the run; 0 when none
    "censor",            # censor family enforcing on the path (a registered
                         # censor-model name, e.g. "gfc", or "none")
    "confidence",        # verdict confidence in [0, 1]
    "evaded",            # point-level MVR evasion (null where no MVR exists)
    "investigated",      # point-level: the analyst opened a case on the
                         # measurer (null where no MVR exists)
    "latency",           # sim-time seconds from technique start to verdict
    "loss",              # marginal loss rate of the point's impairment model
    "point",             # grid index of the sweep point this row came from
    "population",        # synthetic background-population size (users), 0=none
    "reason",            # technique detail string (drop/verdict reason)
    "retry",             # retry-policy axis value
    "seed",              # seed-axis value
    "seq",               # row's position within the point's result list
    "target",            # domain / "ip:port" / service label
    "technique",         # technique axis value
    "topology",          # topology axis value
    "true_origin_alerts",  # point-level: effective alerts whose true origin
                           # was the measurer (null where no MVR exists)
    "vantage",           # "censored" | "clean"
    "verdict",           # Verdict enum value string
)


def rows_from_point(
    point: Mapping[str, object],
    results: Iterable[MeasurementResult],
    vantage: str,
    censor: str,
    risk: Optional[RiskAssessment],
    background_bytes: int = 0,
) -> List[Dict[str, object]]:
    """Build the point's record rows from its technique's results.

    Runs inside the worker, where the point's
    :class:`~repro.core.results.MeasurementResult` objects (and their
    sim timestamps) still exist; the row is the only form in which a
    result leaves the worker.  Everything a row carries is a plain JSON
    scalar, so the rows cross the pool boundary and the journal
    unchanged.  ``risk`` is the point-level surveillance outcome
    (``None`` when the topology has no MVR to evade): its evasion,
    attribution and investigation numbers are stamped onto every row, so
    the Figure-1 matrix and the E9 risk comparison can be recovered from
    records alone.
    """
    if risk is None:
        evaded = attributed = true_origin = attribution = investigated = None
    else:
        evaded = risk.evaded
        attributed = risk.attributed_alerts
        true_origin = risk.true_origin_alerts
        attribution = risk.attribution_confidence
        investigated = risk.investigated
    rows: List[Dict[str, object]] = []
    for seq, result in enumerate(results):
        rows.append({
            "attempts": result.attempts,
            "attributed_alerts": attributed,
            "attribution_confidence": attribution,
            "background_bytes": background_bytes,
            "censor": censor,
            "confidence": result.confidence,
            "evaded": evaded,
            "investigated": investigated,
            "latency": result.time,
            "loss": point["loss"],
            "point": point["index"],
            "population": point.get("population", 0),
            "reason": result.detail,
            "retry": point["retry"],
            "seed": point["seed"],
            "seq": seq,
            "target": result.target,
            "technique": point["technique"],
            "topology": point["topology"],
            "true_origin_alerts": true_origin,
            "vantage": vantage,
            "verdict": result.verdict.value,
        })
    return rows


#: Rows per ``write`` call of the sink: one call per few hundred lines
#: instead of two per row, holding only that many lines at a time.
_WRITE_BLOCK_ROWS = 256

#: ``readlines`` size hint of the reader: about 150 rows per block.
_READ_BLOCK_BYTES = 1 << 16


def write_records(
    path: str,
    spec_hash: str,
    rows: Iterable[Mapping[str, object]],
) -> Dict[str, object]:
    """Render the record file atomically; return the sink summary.

    Rows are written in the order given (the runner supplies grid-index
    order), one canonical-JSON line each, to a temp file that replaces
    ``path`` only once complete — the record file is never observable
    half-written.  The returned summary (row count and per-verdict
    histogram) is what the runner cross-checks against the merged
    counters for conservation.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    temp = f"{path}.tmp"
    total = 0
    by_verdict: Dict[str, int] = {}
    block: List[str] = []
    with open(temp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json({
            "kind": "header",
            "schema": RECORD_SCHEMA,
            "spec_hash": spec_hash,
            "fields": list(ROW_FIELDS),
        }))
        fh.write("\n")
        for row in rows:
            block.append(canonical_json(row))
            total += 1
            verdict = row["verdict"]
            by_verdict[verdict] = by_verdict.get(verdict, 0) + 1
            if len(block) == _WRITE_BLOCK_ROWS:
                _write_lines(fh, block)
        _write_lines(fh, block)
    os.replace(temp, path)
    return {"rows": total, "by_verdict": dict(sorted(by_verdict.items()))}


def _write_lines(fh, block: List[str]) -> None:
    """Write ``block`` as newline-terminated lines in one call; empty it."""
    if block:
        fh.write("\n".join(block) + "\n")
        block.clear()


def summarize_rows(rows: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """The :func:`write_records` summary without writing anything.

    Keeps the report's ``records`` section identical whether or not a
    sink path was configured, so enabling the sink never changes report
    bytes.
    """
    total = 0
    by_verdict: Dict[str, int] = {}
    for row in rows:
        total += 1
        verdict = row["verdict"]
        by_verdict[verdict] = by_verdict.get(verdict, 0) + 1
    return {"rows": total, "by_verdict": dict(sorted(by_verdict.items()))}


def _parse_header(path: str, line: str) -> Dict[str, object]:
    """Validate a record file's first line; return the header object."""
    try:
        header = loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}: not a record file (bad header line)") from exc
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValueError(f"{path}: not a record file (missing header)")
    if header.get("schema") != RECORD_SCHEMA:
        raise ValueError(
            f"{path}: record schema {header.get('schema')!r} "
            f"(this reader speaks {RECORD_SCHEMA})"
        )
    return header


def read_header(path: str) -> Dict[str, object]:
    """Parse and validate the record file's header line."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_header(path, fh.readline())


def iter_rows(path: str) -> Iterator[Dict[str, object]]:
    """Stream the record file's rows, one dict at a time.

    A generator over the open file: the header line is validated, then
    the rest is read one bounded block of lines (about 64 KiB:
    ``readlines`` stops at the first line that reaches the hint) at a
    time and its rows are yielded in file order — memory use is one
    block, independent of file size, which is what lets the analysis
    layer chew through millions of rows.  Blank trailing lines are
    tolerated; a line that is not a JSON object raises ``ValueError``
    naming the file and line (record files are rendered atomically, so
    a torn file is corruption, not a crash artifact to shrug off).
    """
    with open(path, "r", encoding="utf-8") as fh:
        _parse_header(path, fh.readline())
        number = 2
        while True:
            lines = fh.readlines(_READ_BLOCK_BYTES)
            if not lines:
                return
            rows = _parse_block(lines)
            if rows is None:
                rows = _parse_lines(path, lines, number)
            number += len(lines)
            # Hold one block at a time: drop it before reading the next.
            del lines
            yield from rows
            del rows


def _parse_lines(path: str, lines: List[str], number: int) -> Iterator[Dict[str, object]]:
    """Parse ``lines`` one at a time; ``number`` is the first's line number."""
    for number, line in enumerate(lines, start=number):
        if not line.strip():
            continue
        try:
            row = loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: not a JSON row: {exc}") from exc
        if type(row) is not dict:
            raise ValueError(f"{path}:{number}: record row is not a JSON object")
        yield row


def _parse_block(lines: List[str]) -> Optional[List[Dict[str, object]]]:
    r"""Parse a block of lines with one ``loads``, or return ``None``.

    The one-call parse of ``"[" + ",".join(lines) + "]"`` is taken only
    when it must equal ``loads`` of each line: every line starts with
    ``{`` and ends with ``}\n``, the text holds exactly one ``}`` per
    line, and the parse succeeds.  Why that is exact:

    - A JSON string cannot hold a raw newline.  Each line's ``}`` comes
      right before its newline, and each line's ``{`` right after the
      opening ``[`` or the previous line's newline and a comma, so none
      of them is inside a string.
    - A successful parse closes every object it opens, so it has as many
      structural ``{`` as ``}``.  There are only ``n`` ``}``, so the
      ``n`` line-opening ``{`` are the only structural ``{``.
    - So no object opens inside a line, and each line's ``}`` closes the
      object its ``{`` opened.  Top-level elements therefore begin only
      at line starts, there are ``n`` of them, and each equals
      ``loads(line)``.

    Joining lines without this check is wrong: ``{"a":[{"b":1}`` and
    ``{"c":2}]}`` merge into one object and ``{"d":1},{"e":2}`` splits
    into two, so three lines that each fail alone parse to three dicts.
    Anything else (blank lines, a missing final newline, a bad or too
    deeply nested line) returns ``None``, and the caller parses and
    reports line by line.
    """
    for line in lines:
        if line[0] != "{" or line[-2:] != "}\n":
            return None
    text = "[" + ",".join(lines) + "]"
    if text.count("}") != len(lines):
        return None
    try:
        rows = loads(text)
    except (ValueError, RecursionError):
        return None
    return rows if len(rows) == len(lines) else None
