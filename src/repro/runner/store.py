"""Campaign journal: an append-only JSONL checkpoint of sweep progress.

A sweep campaign at survey scale (scenario-pack × loss × retry grids run
to millions of points) outlives any single process, so the runner
journals every finished point to ``PREFIX.journal.jsonl`` the moment its
record arrives.  :class:`CampaignStore` owns that file:

- **Line 1 is a header** carrying the spec's content hash (see
  :meth:`SweepSpec.content_hash`).  A journal whose hash does not match
  the spec being run is *stale* — the grid it checkpointed no longer
  exists — and is discarded wholesale rather than half-trusted.
- **Every later line is one executed point**: its grid ``index``, a
  cumulative ``executions`` count for that index (the resume property
  tests assert it stays 1 for points that were never lost), and the
  full JSON record the worker produced.  Lines are canonical JSON, so a
  journaled record merges byte-identically to the in-memory record it
  checkpointed (pinned by ``tests/runner/test_resume.py``).
- **The tail may be torn.**  A crash can land mid-``write``; on load,
  the last line is trusted only if it parses *and* ends in a newline,
  and everything from the first bad byte on is truncated before the
  file is reopened for appending.  Losing the torn point is safe: the
  resume pass simply re-executes it, and points are pure functions of
  their parameters.

Appends ``flush()`` to the OS after every line, so a SIGKILL (the
crash-recovery harness, an OOM kill, a pre-empted spot VM) loses at most
the line being written — exactly the torn tail the loader tolerates.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Set

from ..obs.export import canonical_json

__all__ = ["CampaignStore"]

#: Journal schema version; bumped only for incompatible layout changes.
#: 2: point records carry their measurement-record rows (``records``) —
#: a schema-1 journal would resume into a campaign that silently renders
#: an empty record file, so it is discarded instead.
#: 3: point records drop the ``results`` list (rows are the only form of
#: a result), so a schema-2 journal would resume into mixed point layouts.
SCHEMA = 3


class CampaignStore:
    """Owns one campaign journal file: load-or-create, append, query.

    ``resume=False`` always starts a fresh journal (truncating any old
    file at ``path``); ``resume=True`` loads whatever valid prefix is on
    disk — unless the header's ``spec_hash`` disagrees with ours, in
    which case the checkpoint belongs to a different grid and is
    discarded.

    ``kill_after`` is a fault-injection hook for the crash-recovery
    tests and the CI kill-and-resume smoke (the journal-layer analogue
    of ``SweepSpec.inject_failures``): after that many appends the
    process dies via ``os._exit`` — uncatchable, like the SIGKILL it
    stands in for — optionally leaving a torn half-line behind
    (``kill_torn=True``) to exercise the truncated-tail path end to end.
    """

    def __init__(
        self,
        path: str,
        spec_hash: str,
        resume: bool = False,
        kill_after: Optional[int] = None,
        kill_torn: bool = False,
    ) -> None:
        self.path = path
        self.spec_hash = spec_hash
        self.kill_after = kill_after
        self.kill_torn = kill_torn
        #: grid index -> the latest journaled record for that point.
        self.records: Dict[int, dict] = {}
        #: grid index -> cumulative executions journaled for that point.
        self.executions: Dict[int, int] = {}
        #: appends performed by *this* process (drives ``kill_after``).
        self.appended = 0
        self.resumed = False

        valid_bytes = 0
        if resume and os.path.exists(path):
            valid_bytes = self._load()
        if valid_bytes:
            # Drop the torn tail (if any) before appending after it.
            with open(path, "r+b") as fh:
                fh.truncate(valid_bytes)
            self._fh = open(path, "a", encoding="utf-8")
            self.resumed = True
        else:
            parent = os.path.dirname(os.path.abspath(path))
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._write_line({
                "kind": "header", "schema": SCHEMA, "spec_hash": spec_hash,
            })

    # -- loading ---------------------------------------------------------------

    def _load(self) -> int:
        """Parse the journal's valid prefix; return its byte length.

        Stops at the first line that is torn (no trailing newline),
        unparseable, or a point line whose ``index``/``executions`` is not
        an int or whose ``record`` is not an object carrying that same
        ``index``; returns 0 — "start fresh" — when the header is
        missing, malformed, from another schema, or hashes a different
        spec.
        """
        with open(self.path, "rb") as fh:
            data = fh.read()
        good = 0
        header_seen = False
        for raw in data.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break
            try:
                entry = json.loads(raw)
            except ValueError:
                break
            if not isinstance(entry, dict):
                break
            if not header_seen:
                if (entry.get("kind") != "header"
                        or entry.get("schema") != SCHEMA
                        or entry.get("spec_hash") != self.spec_hash):
                    self.records.clear()
                    self.executions.clear()
                    return 0
                header_seen = True
            elif entry.get("kind") == "point":
                index = entry.get("index")
                executions = entry.get("executions")
                record = entry.get("record")
                if (type(index) is not int or type(executions) is not int
                        or type(record) is not dict
                        or record.get("index") != index):
                    break
                self.records[index] = record
                self.executions[index] = executions
            good += len(raw)
        if not header_seen:
            return 0
        return good

    # -- queries ---------------------------------------------------------------

    def done(self) -> Set[int]:
        """Indexes whose latest journaled record completed ``"ok"``.

        Failed points are journaled too (so a campaign's failure history
        survives restarts) but deliberately *not* done: a resume re-runs
        them, and their fresh record supersedes the journaled one.
        """
        return {
            index for index, record in self.records.items()
            if record.get("status") == "ok"
        }

    def __len__(self) -> int:
        return len(self.records)

    # -- appends ---------------------------------------------------------------

    def append(self, record: dict) -> None:
        """Journal one finished point record (any completion order)."""
        index = int(record["index"])
        count = self.executions.get(index, 0) + 1
        self._write_line({
            "kind": "point", "index": index, "executions": count,
            "record": record,
        })
        self.executions[index] = count
        self.records[index] = record
        self.appended += 1
        if self.kill_after is not None and self.appended >= self.kill_after:
            self._die()

    def _write_line(self, entry: dict) -> None:
        self._fh.write(canonical_json(entry))
        self._fh.write("\n")
        # One flush per point pushes the line into the OS: from here on
        # it survives the death of this process (though not of the host).
        self._fh.flush()

    def _die(self) -> None:  # pragma: no cover - exits the process
        if self.kill_torn:
            # Leave a half-written point line behind: the resume loader
            # must prove it drops exactly this tail and nothing else.
            self._fh.write('{"kind":"point","index":0,"executions":1,"rec')
            self._fh.flush()
        os._exit(137)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
