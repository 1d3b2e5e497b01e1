"""Deterministic serialization helpers shared by every obs exporter.

Everything the observability layer writes — metrics snapshots, Chrome
trace files, JSONL event streams, capture dumps — goes through these
two primitives so that "same seed ⇒ byte-identical export" holds by
construction: keys sorted, separators fixed, no wall-clock timestamps,
trailing newline always present.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

__all__ = ["canonical_json", "write_json", "write_jsonl"]

#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` builds this
#: same encoder on every call; building it once gives the same bytes.
#: ``encode`` keeps no state between calls, so one instance serves all.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """One canonical line of JSON: sorted keys, compact separators."""
    return _CANONICAL.encode(obj)


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_json(path: str, obj) -> str:
    """Write one object as pretty-but-canonical JSON; returns the path."""
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, separators=(",", ": "))
        fh.write("\n")
    return path


def write_jsonl(path: str, records: Iterable) -> str:
    """Write records one canonical-JSON line each; returns the path."""
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(canonical_json(record))
            fh.write("\n")
    return path
