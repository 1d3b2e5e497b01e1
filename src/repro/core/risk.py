"""Risk model: what the surveillance system knows about the measurer.

The paper's safety claim is comparative, not absolute: a technique is
*safer* when the surveillance system ends up with fewer user-attributed
alerts pointing at the measurer, a lower attribution confidence, and no
analyst investigation.  This module turns the surveillance system's state
into those numbers (experiments E6 and E9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..surveillance.system import SurveillanceSystem

__all__ = ["RiskAssessment", "assess_risk"]


@dataclass
class RiskAssessment:
    """The surveillance system's picture of one measurer after a campaign."""

    technique: str
    #: Alerts the system attributed to the measurer's user identity.
    attributed_alerts: int
    #: Alerts whose *true* origin was the measurer (ground truth; includes
    #: spoofed traffic the system attributed to someone else).
    true_origin_alerts: int
    #: 1-based rank of the measurer in the suspect list (None = not listed).
    suspect_rank: Optional[int]
    #: Fraction of attributable alerts pointing at the measurer.
    attribution_confidence: float
    #: Shannon entropy (bits) of the suspect distribution.
    suspect_entropy: float
    #: Whether the analyst stage opened an investigation on the measurer.
    investigated: bool

    @property
    def evaded(self) -> bool:
        """The paper's evasion criterion: no user-attributed alert."""
        return self.attributed_alerts == 0

    def risk_score(self) -> float:
        """A [0, 1] heuristic combining the components (higher = riskier).

        Investigation dominates; otherwise risk scales with attribution
        confidence, discounted when alerts are spread over many suspects.
        """
        if self.investigated:
            return 1.0
        if self.attributed_alerts == 0:
            return 0.0
        spread_discount = 1.0 / (1.0 + self.suspect_entropy)
        return min(1.0, self.attribution_confidence * spread_discount + 0.1)


def assess_risk(
    surveillance: SurveillanceSystem,
    technique: str,
    measurer_user: str,
    measurer_ip: str,
    now: Optional[float] = None,
) -> RiskAssessment:
    """Build a :class:`RiskAssessment` from the surveillance system's state.

    With ``now`` given, the analyst triages the alerts first, so
    ``investigated`` reflects this campaign; without it, ``investigated``
    reports only cases opened earlier.  Bot suppression scans every
    stored alert, so the effective alerts are built once and every
    number below is derived from that one list.
    """
    alerts = surveillance.effective_alerts()
    attributed = sum(1 for stored in alerts if stored.user == measurer_user)
    true_origin = sum(1 for stored in alerts if stored.origin_ip == measurer_ip)
    if surveillance.attribution is None:
        raise RuntimeError("no attribution engine configured")
    report = surveillance.attribution.report(alerts)
    suspects = report.suspects
    rank = suspects.index(measurer_user) + 1 if measurer_user in suspects else None
    if now is not None:
        surveillance.analyst.triage(alerts, now)
    return RiskAssessment(
        technique=technique,
        attributed_alerts=attributed,
        true_origin_alerts=true_origin,
        suspect_rank=rank,
        attribution_confidence=report.confidence(measurer_user),
        suspect_entropy=report.entropy(),
        investigated=surveillance.analyst.is_under_investigation(measurer_user),
    )
