"""Result export: the deck's OONI-style JSON campaign document.

Measurement platforms ship results as JSON documents; this module
serializes :class:`~repro.core.results.MeasurementResult` (with its
``evidence``) and :class:`~repro.core.risk.RiskAssessment` objects the
same way, so a deck run (``DeckReport.to_json``, ``repro deck``) can
leave the library without pickling Python objects.  Sweep campaigns use
the measurement-record rows of :mod:`repro.results.record` instead.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..core.results import MeasurementResult, Verdict, summarize
from ..core.risk import RiskAssessment

__all__ = [
    "result_to_record",
    "risk_to_record",
    "campaign_document",
]

SCHEMA_VERSION = "repro-0.1"


def result_to_record(result: MeasurementResult) -> Dict[str, object]:
    """Serialize one result to a JSON-safe dict."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "measurement",
        "technique": result.technique,
        "target": result.target,
        "verdict": result.verdict.value,
        "blocked": result.blocked,
        "time": result.time,
        "detail": result.detail,
        "samples": result.samples,
        "evidence": _jsonable(result.evidence),
    }


def risk_to_record(risk: RiskAssessment) -> Dict[str, object]:
    """Serialize a risk assessment to a JSON-safe dict."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "risk",
        "technique": risk.technique,
        "attributed_alerts": risk.attributed_alerts,
        "true_origin_alerts": risk.true_origin_alerts,
        "suspect_rank": risk.suspect_rank,
        "attribution_confidence": risk.attribution_confidence,
        "suspect_entropy": risk.suspect_entropy,
        "investigated": risk.investigated,
        "evaded": risk.evaded,
        "risk_score": risk.risk_score(),
    }


def campaign_document(
    results_by_technique: Dict[str, List[MeasurementResult]],
    risks: Optional[List[RiskAssessment]] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> str:
    """One JSON document summarizing a whole campaign."""
    document = {
        "schema": SCHEMA_VERSION,
        "kind": "campaign",
        "metadata": _jsonable(metadata or {}),
        "techniques": {
            name: [result_to_record(r) for r in results]
            for name, results in results_by_technique.items()
        },
        "risks": [risk_to_record(r) for r in (risks or [])],
        "summary": {
            name: summarize(results)
            for name, results in results_by_technique.items()
        },
    }
    return json.dumps(document, sort_keys=True, indent=2)


def _jsonable(value):
    """Best-effort conversion of evidence values to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bytes):
        return value.decode("latin-1")
    if isinstance(value, Verdict):
        return value.value
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
