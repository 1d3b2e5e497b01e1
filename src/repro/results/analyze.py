"""Streaming analysis over measurement records: classification, matrices,
false-block curves, latency quantiles.

The consumer side of the record sink.  :class:`RecordAnalysis` is an
online aggregator: feed it rows one at a time (straight off the
generator reader) and its state stays bounded by the number of
*distinct* targets, techniques, and grid cells — never by the number of
rows.  That is the memory contract the ≥100k-row streaming test pins:
a million-row record file analyzes in the footprint of its vocabulary.

What falls out at :meth:`~RecordAnalysis.as_dict` time:

- **Vantage-differential classification** — for every (technique,
  target) pair, compare the verdict mass observed from the simulated
  censored vantage against the clean vantage and call the target
  ``censored`` (blocked only where the censor enforces), ``accessible``
  (reachable from both), ``path-anomaly`` (blocked even with no censor:
  loss or outage, the paper's false-block confound), ``inconsistent``
  (the vantages disagree in the wrong direction), or an
  ``unconfirmed-*`` class when only one vantage measured it.  Each call
  carries a confidence: the verdict-agreement fraction weighted by rows.
- **Figure-1-style matrix** — per technique: detection rate over
  ground-truth-blocked targets at the censored vantage, overall
  accuracy, false-block rate over ground-truth-open targets, and the
  MVR-evasion fraction recovered from the rows' point-level ``evaded``
  stamps — the paper's accuracy/evasion trade-off, computed from
  records instead of re-running anything — and the E9 risk numbers from
  the point-level risk stamps: mean attributed alerts, mean attribution
  confidence, and the fraction of points where the analyst investigated.
- **False-block curves** — false-block rate as a function of the loss
  axis, one curve per (technique, retry policy): the safety argument
  for retries, straight from campaign data.
- **Latency quantiles** — per-technique sim-time-to-verdict p50/p90/p99
  via :meth:`repro.obs.metrics.Histogram.quantile` (±bucket-width
  error, documented there).

Ground truth comes from the controlled world: the blocked/control
target name lists the evaluation harness wires into every environment.
A target is truly blocked exactly when a blocked name matches it *and*
the row measured from the censored vantage.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.metrics import ConfusionCounts
from ..core.evaluation import BLOCKED_TARGETS_FULL, CONTROL_TARGETS_FULL
from ..core.results import Verdict
from ..obs.metrics import Histogram
from ..rules.rulesets import GFC_KEYWORDS

__all__ = ["RecordAnalysis", "analyze_records", "BLOCKING_VERDICTS"]

#: Verdict strings that indicate blocking (the row-level mirror of
#: :meth:`Verdict.indicates_blocking`).
BLOCKING_VERDICTS = frozenset(
    v.value for v in Verdict if v.indicates_blocking
)

_INCONCLUSIVE = Verdict.INCONCLUSIVE.value

#: A slot's ground truth before its first scored row asks for it.
_UNRESOLVED = object()

#: The one NaN a cell key holds.  Every ``float("nan")`` is a distinct
#: object and unequal to itself, so NaN key parts from separate rows would
#: each open a cell of their own.
_NAN = float("nan")

#: Sim-time-to-verdict buckets: probe RTTs are milliseconds, retry
#: schedules stretch to tens of simulated seconds, campaign durations to
#: minutes.
LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, float("inf"))


def _new_vantage_stats() -> Dict[str, float]:
    return {
        "rows": 0, "blocked": 0, "accessible": 0, "inconclusive": 0,
        "confidence_sum": 0.0, "attempts_sum": 0,
    }


def _mean(total: float, count: int) -> Optional[float]:
    """``total / count`` rounded for the document, ``None`` when empty."""
    return round(total / count, 6) if count else None


def _majority(stats: Mapping[str, float]) -> Tuple[Optional[str], float, int]:
    """(majority side, agreement fraction, conclusive rows) for one vantage."""
    conclusive = stats["blocked"] + stats["accessible"]
    if not conclusive:
        return None, 0.0, 0
    if stats["blocked"] >= stats["accessible"]:
        return "blocked", stats["blocked"] / conclusive, conclusive
    return "accessible", stats["accessible"] / conclusive, conclusive


class RecordAnalysis:
    """Online aggregator over record rows; bounded-memory by design.

    Every piece of state is keyed by vocabulary — (technique, target)
    pairs, (technique, target, vantage) slots, (technique, retry, loss)
    grid cells, technique names — so memory is O(distinct keys),
    independent of how many rows stream through :meth:`add`.  Nothing
    here ever holds a row list.
    """

    def __init__(
        self,
        blocked_targets: Optional[Sequence[str]] = None,
        control_targets: Optional[Sequence[str]] = None,
    ) -> None:
        self.blocked_names: Tuple[str, ...] = tuple(
            blocked_targets if blocked_targets is not None
            else list(BLOCKED_TARGETS_FULL) + ["blocked-service"]
            # the stateful-mimicry probe's target is its request line,
            # which carries a censored keyword
            + list(GFC_KEYWORDS)
        )
        self.control_names: Tuple[str, ...] = tuple(
            control_targets if control_targets is not None
            else list(CONTROL_TARGETS_FULL) + ["control-service", "server"]
        )
        self.rows = 0
        self.points = 0  # rows with seq == 0: one per point that produced output
        self.by_verdict: Dict[str, int] = {}
        #: (technique, target) -> vantage -> verdict-mass stats
        self._targets: Dict[Tuple[str, str], Dict[str, Dict[str, float]]] = {}
        #: (technique, retry, loss) -> confusion over ground-truth cells
        self._cells: Dict[Tuple[str, str, float], ConfusionCounts] = {}
        #: technique -> aggregate counters for the matrix
        self._tech: Dict[str, Dict[str, float]] = {}
        #: technique -> overall confusion (accuracy column)
        self._tech_confusion: Dict[str, ConfusionCounts] = {}
        #: (censor family, technique) -> aggregate counters, fed only by
        #: rows where a censor model actually enforced (censor != "none")
        self._censor_tech: Dict[Tuple[str, str], Dict[str, float]] = {}
        #: (censor family, technique) -> confusion for the same rows
        self._censor_confusion: Dict[Tuple[str, str], ConfusionCounts] = {}
        #: background-load aggregates, fed once per point (seq == 0) by
        #: rows from points that ran under synthetic population cover
        self._background = {
            "points_with_population": 0,
            "max_population": 0,
            "background_bytes_total": 0,
        }
        #: (technique, target, vantage) -> [vantage stats, technique
        #: aggregates, latency series, ground truth, technique confusion]:
        #: the per-row dictionary walk, resolved once per slot
        self._slots: Dict[Tuple[str, str, str], list] = {}
        #: (censor family, technique) -> (its aggregates, its confusion)
        self._censor_slots: Dict[Tuple[str, str], Tuple[Dict[str, float], ConfusionCounts]] = {}
        #: one shared histogram, labeled by technique
        self._latency = Histogram(
            "verdict_latency", "sim-time to verdict", ("technique",),
            buckets=LATENCY_BUCKETS,
        )

    # -- ground truth ---------------------------------------------------------

    def truly_blocked(self, target: str, vantage: str) -> Optional[bool]:
        """Ground truth for one row, or ``None`` when the target is not
        in the controlled world's name lists (unknown targets cannot be
        scored, only classified)."""
        if any(name in target for name in self.blocked_names):
            return vantage == "censored"
        if any(name in target for name in self.control_names):
            return False
        return None

    # -- streaming ingest -----------------------------------------------------

    def add(self, row: Mapping[str, object]) -> None:
        """Fold one record row into the aggregates.

        The dictionary walk to a row's aggregates depends only on its
        (technique, target, vantage) slot, so it is resolved once per
        slot; each row then updates the cached references.  Every step
        that can fail on a bad row (a missing column, a value of the
        wrong type) runs in the same order as a walk per row would, and
        every float accumulator adds in row order.
        """
        technique = row["technique"]
        vantage = row["vantage"]
        target = row["target"]
        verdict = row["verdict"]
        blocked = verdict in BLOCKING_VERDICTS
        inconclusive = verdict == _INCONCLUSIVE

        self.rows += 1
        first = row["seq"] == 0
        if first:
            self.points += 1
            population = int(row.get("population", 0) or 0)
            if population:
                self._background["points_with_population"] += 1
                if population > self._background["max_population"]:
                    self._background["max_population"] = population
                self._background["background_bytes_total"] += int(
                    row.get("background_bytes", 0) or 0
                )
        by_verdict = self.by_verdict
        by_verdict[verdict] = by_verdict.get(verdict, 0) + 1

        slot = self._slots.get((technique, target, vantage))
        if slot is None:
            slot = self._new_slot(technique, target, vantage)
        stats, tech, latency = slot[0], slot[1], slot[2]
        side = "inconclusive" if inconclusive else "blocked" if blocked else "accessible"
        stats["rows"] += 1
        confidence = row["confidence"]
        stats["confidence_sum"] += confidence
        attempts = row["attempts"]
        stats["attempts_sum"] += attempts
        stats[side] += 1

        tech["rows"] += 1
        tech["confidence_sum"] += confidence
        tech["attempts_sum"] += attempts
        if first:
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
        censor_counts = None
        if censor and censor != "none":
            key = (censor, technique)
            pair = self._censor_slots.get(key)
            if pair is None:
                pair = self._censor_slots[key] = (
                    self._censor_tech.setdefault(key, {
                        "rows": 0, "points": 0,
                        "evaded_points": 0, "evasion_points": 0,
                    }),
                    self._censor_confusion.setdefault(key, ConfusionCounts()),
                )
            ct, censor_counts = pair
            ct["rows"] += 1
            if first:
                ct["points"] += 1
                if row.get("evaded") is not None:
                    ct["evasion_points"] += 1
                    ct["evaded_points"] += int(bool(row["evaded"]))

        value = row["latency"]
        kind = type(value)
        if kind is float or kind is int:
            # Histogram.observe's result without its bucket scan: NaN
            # lands in no bucket but still counts towards sum and count.
            # Any other type goes through observe, to count or fail as
            # it does.
            if value == value:
                latency["counts"][bisect_left(self._latency.buckets, value)] += 1
            latency["sum"] += value
            latency["count"] += 1
        else:
            self._latency.observe((technique,), value)

        truth = slot[3]
        if truth is _UNRESOLVED:
            truth = slot[3] = self.truly_blocked(target, vantage)
        if truth is None:
            return
        key = (technique, row["retry"], row["loss"])
        cell = self._cells.get(key)
        if cell is None:
            key = tuple(_NAN if part != part else part for part in key)
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = ConfusionCounts()
        if inconclusive:
            outcome = "inconclusive"
        elif blocked:
            outcome = "true_positive" if truth else "false_positive"
        else:
            outcome = "false_negative" if truth else "true_negative"
        for counts in (cell, slot[4], censor_counts):
            if counts is not None:
                setattr(counts, outcome, getattr(counts, outcome) + 1)

    def _new_slot(self, technique, target, vantage) -> list:
        """Resolve and cache one (technique, target, vantage) slot:
        ``[vantage stats, technique aggregates, latency series, ground
        truth (resolved on first use), technique confusion]``."""
        stats = (
            self._targets.setdefault((technique, target), {})
            .setdefault(vantage, _new_vantage_stats())
        )
        tech = self._tech.setdefault(technique, {
            "rows": 0, "points": 0, "confidence_sum": 0.0, "attempts_sum": 0,
            "evaded_points": 0, "evasion_points": 0,
            "risk_points": 0, "attributed_sum": 0, "attribution_sum": 0.0,
            "investigated_points": 0,
        })
        latency = self._latency.series((technique,))
        overall = self._tech_confusion.setdefault(technique, ConfusionCounts())
        slot = [stats, tech, latency, _UNRESOLVED, overall]
        self._slots[(technique, target, vantage)] = slot
        return slot

    def extend(self, rows: Iterable[Mapping[str, object]]) -> "RecordAnalysis":
        """Fold every row; a row missing a column, or holding a value of
        the wrong type, raises ``ValueError`` naming its position."""
        position = 0
        try:
            for position, row in enumerate(rows, start=1):
                self.add(row)
        except KeyError as exc:
            raise ValueError(
                f"record row {position} lacks the {exc.args[0]!r} column"
            ) from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(
                f"record row {position} has a wrongly typed column: {exc}"
            ) from exc
        return self

    # -- derived views --------------------------------------------------------

    def classify(self) -> List[Dict[str, object]]:
        """Vantage-differential classification, one entry per
        (technique, target), sorted for deterministic output."""
        out: List[Dict[str, object]] = []
        for (technique, target) in sorted(self._targets):
            vantages = self._targets[(technique, target)]
            cen = vantages.get("censored")
            cln = vantages.get("clean")
            cen_side, cen_frac, cen_n = _majority(cen) if cen else (None, 0.0, 0)
            cln_side, cln_frac, cln_n = _majority(cln) if cln else (None, 0.0, 0)

            if cen_side is None and cln_side is None:
                label = "inconclusive"
            elif cen_side is not None and cln_side is not None:
                if cen_side == "blocked" and cln_side == "accessible":
                    label = "censored"
                elif cen_side == "blocked" and cln_side == "blocked":
                    label = "path-anomaly"
                elif cen_side == "accessible" and cln_side == "accessible":
                    label = "accessible"
                else:
                    label = "inconsistent"
            elif cen_side is not None:
                label = ("unconfirmed-censored" if cen_side == "blocked"
                         else "accessible")
            else:
                label = ("path-anomaly" if cln_side == "blocked"
                         else "unconfirmed-accessible")

            conclusive = cen_n + cln_n
            confidence = (
                (cen_frac * cen_n + cln_frac * cln_n) / conclusive
                if conclusive else 0.0
            )
            entry: Dict[str, object] = {
                "technique": technique,
                "target": target,
                "classification": label,
                "confidence": round(confidence, 6),
            }
            for name, stats in (("censored", cen), ("clean", cln)):
                if stats is None:
                    continue
                entry[name] = {
                    "rows": stats["rows"],
                    "blocked": stats["blocked"],
                    "accessible": stats["accessible"],
                    "inconclusive": stats["inconclusive"],
                    "mean_confidence": round(
                        stats["confidence_sum"] / stats["rows"], 6
                    ) if stats["rows"] else 0.0,
                }
            out.append(entry)
        return out

    def matrix(self) -> Dict[str, Dict[str, object]]:
        """The Figure-1-style accuracy/evasion matrix, per technique."""
        out: Dict[str, Dict[str, object]] = {}
        for technique in sorted(self._tech):
            tech = self._tech[technique]
            confusion = self._tech_confusion.get(technique, ConfusionCounts())
            detects = (
                confusion.recall
                if confusion.true_positive + confusion.false_negative else None
            )
            evasion = (
                tech["evaded_points"] / tech["evasion_points"]
                if tech["evasion_points"] else None
            )
            risk_points = tech["risk_points"]
            out[technique] = {
                "rows": tech["rows"],
                "points": tech["points"],
                "detects": None if detects is None else round(detects, 6),
                "accuracy": round(confusion.accuracy, 6),
                "false_block_rate": round(confusion.false_block_rate, 6),
                "evasion": None if evasion is None else round(evasion, 6),
                "mean_attempts": round(tech["attempts_sum"] / tech["rows"], 6),
                "mean_confidence": round(tech["confidence_sum"] / tech["rows"], 6),
                "scored": confusion.total,
                "attributed_alerts": _mean(tech["attributed_sum"], risk_points),
                "attribution_confidence": _mean(
                    tech["attribution_sum"], risk_points
                ),
                "investigated": _mean(tech["investigated_points"], risk_points),
            }
        return out

    def censor_matrix(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Per-censor accuracy/evasion matrix:
        ``censor family -> technique -> cells``.

        Built only from rows where a censor model enforced
        (``censor != "none"``): detection rate over ground-truth-blocked
        targets, accuracy, false-block rate, and MVR evasion recovered
        from the point-level ``evaded`` stamps — the "which technique
        survives which censor family" view.  Empty for campaigns that
        never ran a censored vantage.
        """
        out: Dict[str, Dict[str, Dict[str, object]]] = {}
        for (censor, technique) in sorted(self._censor_tech):
            ct = self._censor_tech[(censor, technique)]
            confusion = self._censor_confusion.get(
                (censor, technique), ConfusionCounts()
            )
            detects = (
                confusion.recall
                if confusion.true_positive + confusion.false_negative else None
            )
            evasion = (
                ct["evaded_points"] / ct["evasion_points"]
                if ct["evasion_points"] else None
            )
            out.setdefault(censor, {})[technique] = {
                "rows": ct["rows"],
                "points": ct["points"],
                "detects": None if detects is None else round(detects, 6),
                "accuracy": round(confusion.accuracy, 6),
                "false_block_rate": round(confusion.false_block_rate, 6),
                "evasion": None if evasion is None else round(evasion, 6),
                "scored": confusion.total,
            }
        return out

    def false_block_curves(self) -> Dict[str, Dict[str, List[List[object]]]]:
        """``technique -> retry -> [[loss, false_block_rate, open_rows]]``.

        One curve per (technique, retry policy), sampled at the loss
        rates the campaign actually swept; ``open_rows`` is the number
        of ground-truth-open rows behind each sample (the denominator
        that makes a 0.0 at n=2 mean less than a 0.0 at n=2000).
        """
        curves: Dict[str, Dict[str, List[List[object]]]] = {}
        for (technique, retry, loss) in sorted(self._cells):
            counts = self._cells[(technique, retry, loss)]
            open_rows = counts.false_positive + counts.true_negative
            if not open_rows:
                continue
            curves.setdefault(technique, {}).setdefault(retry, []).append(
                [loss, round(counts.false_block_rate, 6), open_rows]
            )
        return curves

    def latency_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-technique sim-time-to-verdict quantiles (±bucket width)."""
        out: Dict[str, Dict[str, object]] = {}
        for technique in sorted(self._tech):
            labels = (technique,)
            count = self._latency.count(labels)
            if not count:
                continue
            out[technique] = {
                "count": count,
                "p50": round(self._latency.quantile(0.50, labels), 6),
                "p90": round(self._latency.quantile(0.90, labels), 6),
                "p99": round(self._latency.quantile(0.99, labels), 6),
            }
        return out

    def as_dict(self) -> Dict[str, object]:
        """The full JSON-ready analysis document (deterministic).

        Columns whose values cannot be ordered or averaged (a technique
        that is a string in one row and a number in another, an integer
        too large for a float) raise ``ValueError``, as in :meth:`extend`.
        """
        try:
            return self._document()
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"record rows cannot be summarised: {exc}") from exc

    def _document(self) -> Dict[str, object]:
        classification = self.classify()
        tally: Dict[str, int] = {}
        for entry in classification:
            label = entry["classification"]
            tally[label] = tally.get(label, 0) + 1
        return {
            "rows": self.rows,
            "points": self.points,
            "background": dict(self._background),
            "by_verdict": dict(sorted(self.by_verdict.items())),
            "classification": classification,
            "classification_tally": dict(sorted(tally.items())),
            "matrix": self.matrix(),
            "censor_matrix": self.censor_matrix(),
            "false_block_curves": self.false_block_curves(),
            "latency": self.latency_summary(),
        }


def analyze_records(rows: Iterable[Mapping[str, object]], **kwargs) -> Dict[str, object]:
    """Stream ``rows`` through a fresh analysis; return its document."""
    return RecordAnalysis(**kwargs).extend(rows).as_dict()
