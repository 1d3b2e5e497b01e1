"""Detection metrics for measurement techniques.

:class:`ConfusionCounts` holds the blocked/accessible confusion matrix
that :class:`~repro.results.analyze.RecordAnalysis` fills from record
rows, with standard precision/recall and the false-block rate that
motivates retrying policies (a lost SYN/ACK is not censorship).  Also
here: per-direction link accounting reports with packet-conservation
checks, folded into one run report per sweep point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = [
    "ConfusionCounts",
    "link_report",
    "run_report",
]


@dataclass
class ConfusionCounts:
    """Binary blocked/accessible confusion matrix."""

    true_positive: int = 0  # blocked target, blocking verdict
    false_negative: int = 0  # blocked target, accessible verdict
    true_negative: int = 0  # open target, accessible verdict
    false_positive: int = 0  # open target, blocking verdict
    inconclusive: int = 0

    @property
    def total(self) -> int:
        return (
            self.true_positive
            + self.false_negative
            + self.true_negative
            + self.false_positive
            + self.inconclusive
        )

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.true_positive + self.true_negative) / self.total

    @property
    def precision(self) -> float:
        denominator = self.true_positive + self.false_positive
        return self.true_positive / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positive + self.false_negative
        return self.true_positive / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @property
    def false_block_rate(self) -> float:
        """Fraction of actually-open targets reported blocked (FP rate).

        The harm metric for lossy paths: every false block is a target a
        deployment would wrongly list as censored.
        """
        denominator = self.false_positive + self.true_negative
        return self.false_positive / denominator if denominator else 0.0


def link_report(links: Iterable) -> Dict[str, Dict[str, object]]:
    """Per-direction accounting for each link, with conservation checks.

    Accepts :class:`~repro.netsim.link.Link` objects and returns, per
    link and direction, the offered/carried/lost/duplicated counters plus
    whether ``offered == carried - duplicated + lost`` holds.  A
    ``conserved = False`` entry means the link's bookkeeping is broken,
    not that the network misbehaved.
    """
    report: Dict[str, Dict[str, object]] = {}
    for link in links:
        name = f"{link.a.name}<->{link.b.name}"
        directions: Dict[str, object] = {}
        for direction, stats in link.stats.items():
            entry = stats.as_dict()
            entry["loss_rate"] = (
                stats.packets_lost / stats.packets_offered
                if stats.packets_offered
                else 0.0
            )
            entry["conserved"] = stats.conserved
            directions[direction] = entry
        directions["conserved"] = all(
            stats.conserved for stats in link.stats.values()
        )
        report[name] = directions
    return report


def run_report(
    registry=None,
    sim=None,
    links: Iterable = (),
    surveillance=None,
) -> Dict[str, object]:
    """Fold observability snapshots into one JSON-ready run report.

    The bridge between the obs layer and the existing report path: pass
    whichever pieces the run had and get one deterministic dict —
    ``metrics`` (a :meth:`MetricsRegistry.snapshot`), ``simulator``
    (:meth:`Simulator.stats`), ``links`` (:func:`link_report`), and
    ``surveillance`` (:meth:`SurveillanceSystem.summary`).  Sections for
    pieces not supplied are omitted rather than emitted empty.
    """
    report: Dict[str, object] = {}
    if registry is not None:
        report["metrics"] = registry.snapshot()
    if sim is not None:
        report["simulator"] = sim.stats()
    links = list(links)
    if links:
        report["links"] = link_report(links)
    if surveillance is not None:
        report["surveillance"] = surveillance.summary()
    return report
