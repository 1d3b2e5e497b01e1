"""The composite surveillance system: detection engine + MVR + analyst.

A passive tap (it never drops traffic) modelling the two-stage pipeline of
paper Section 2.1:

1. **Massive Volume Reduction** — every packet is classified; commodity
   noise (p2p, scanning, DDoS, spam) is discarded without per-user logging,
   because storing it has no intelligence value.  Everything else is
   retained as content (byte-budgeted, 7.5 %) and flow metadata.
2. **Analyst triage** — user-attributable alerts from the interest ruleset
   (censored-content access, circumvention signatures) are retained for a
   year and escalated by the :class:`Analyst` from the first alert
   attributed to a user, within its daily capacity.

Evasion, in the paper's terms, means: the measurement completes without the
system retaining a *user-attributed alert* for the measurer.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..netsim.middlebox import Action, Middlebox, TapContext
from ..obs.metrics import TallyFold, active_or_none
from ..packets import IPPacket, canonical_flow
from ..rules import DEFAULT_VARIABLES, RuleEngine
from ..rules.rulesets import (
    BOT_CLASSTYPES,
    RETAIN_CLASSTYPES,
    mvr_detection_ruleset_text,
    surveillance_interest_ruleset_text,
)
from .analyst import Analyst, Investigation
from .attribution import AttributionEngine, SuspectReport
from .classify import TrafficClass, classify_packet
from .profile import NSA_PROFILE, SurveillanceProfile
from .storage import ContentRecord, RetentionStore, StoredAlert

__all__ = ["SurveillanceSystem"]


class SurveillanceSystem(Middlebox):
    """The surveillance tap; attach next to the censor with ``add_tap``.

    The tap is *purely passive* — it returns ``Action.PASS`` for every
    packet regardless of what it records.  ``process`` runs the full
    pipeline (rule engine, bot tracking, retention, MVR classification)
    on each packet as it arrives, in lockstep with the censor's engine on
    the same node: the two engines read one shared reassembled stream
    (see ``Node.add_tap``), so every query reflects every packet the tap
    has been handed.
    """

    name = "surveillance"

    def __init__(
        self,
        profile: SurveillanceProfile = NSA_PROFILE,
        attribution: Optional[AttributionEngine] = None,
        variables: Optional[Dict[str, str]] = None,
        extra_rules: str = "",
        detection_ruleset: Optional[str] = None,
        interest_ruleset: Optional[str] = None,
    ) -> None:
        self.profile = profile
        self.attribution = attribution
        self.store = RetentionStore(profile)
        # One attributed alert is enough to escalate: the paper's risk is
        # being attributed at all (the E9 claim).  Capacity, not the
        # threshold, is what a spoofed cover crowd exploits.
        self.analyst = Analyst(profile, escalation_threshold=1)
        variables = dict(variables or DEFAULT_VARIABLES)
        if detection_ruleset is None:
            detection_ruleset = mvr_detection_ruleset_text()
        if interest_ruleset is None:
            interest_ruleset = surveillance_interest_ruleset_text()
        ruleset = "\n".join([detection_ruleset, interest_ruleset, extra_rules])
        self.engine = RuleEngine.from_text(
            ruleset, variables=variables, obs_label="mvr"
        )
        #: the ingest ledger: ``{(): packets seen}`` (a tally a metrics
        #: fold can hold without holding the tap), bytes per class
        self._packets: Dict[tuple, int] = {(): 0}
        self.bytes_discarded = 0
        self.discarded_by_class: Counter = Counter()
        self.retained_by_class: Counter = Counter()
        # Per-stage byte/alert counters — the MVR numbers the paper's
        # argument is about (which stage a packet dies in).  The ingest
        # and per-class byte counters fold from the ledger on registry
        # read; the rare alert and bot counters stay inline.
        obs = active_or_none()
        self._obs = obs
        if obs is not None:
            TallyFold(obs, (
                (obs.counter(
                    "mvr_packets_ingested_total",
                    "Packets entering the surveillance tap",
                ), self._packets.items),
                (obs.counter(
                    "mvr_bytes_ingested_total",
                    "Wire bytes entering the surveillance tap",
                ), self.store.volume.items),
                (obs.counter(
                    "mvr_bytes_discarded_total",
                    "Bytes discarded by stage-1 Massive Volume Reduction",
                    ("traffic_class",),
                ), self.discarded_by_class.items),
                (obs.counter(
                    "mvr_bytes_retained_total",
                    "Bytes retained as content past stage 1",
                    ("traffic_class",),
                ), self.retained_by_class.items),
            ))
            self._m_alerts = obs.counter(
                "mvr_alerts_stored_total",
                "Interest alerts stored with user attribution",
                ("classtype",),
            )
            self._m_bot = obs.counter(
                "mvr_bot_sightings_total",
                "Commodity detections marking a source bot-like",
            )
        #: Sources the commodity detections classified as bot-like, with
        #: detection timestamps.  Interest alerts from such sources are
        #: suppressed within ``bot_suppression_window`` seconds: a host
        #: behaving like malware is treated as infected, not as a user
        #: intentionally touching censored content (paper Section 3.1).
        self.bot_suppression_window = 300.0
        self._bot_sightings: Dict[str, List[float]] = {}

    def sees_own_injections(self) -> bool:
        return True  # purely passive; it never injects, so nothing to skip

    def rule_engines(self) -> tuple:
        return (self.engine,)

    # -- tap entry point ----------------------------------------------------------

    @property
    def packets_seen(self) -> int:
        return self._packets[()]

    @packets_seen.setter
    def packets_seen(self, value: int) -> None:
        self._packets[()] = value

    def process(self, packet: IPPacket, ctx: TapContext) -> Action:
        self._packets[()] += 1
        now = ctx.now
        # wire_length() gives the serialized size without materializing (and
        # checksumming) the wire bytes for every transit packet.
        self._ingest(
            packet, now, packet.wire_length(), self.engine.process(packet, now)
        )
        return Action.PASS

    def flush(self) -> None:
        """A no-op: every packet is fully processed on arrival.  Kept
        because ``benchmarks/e2e/spans.py`` wraps it by name."""

    def _ingest(self, packet: IPPacket, now: float, size: int, alerts) -> None:
        self.store.observe_volume(size)
        obs = self._obs

        # Track bot-like behaviour per claimed source: these sightings
        # retroactively devalue interest alerts from the same source.
        for alert in alerts:
            if alert.classtype in BOT_CLASSTYPES:
                self._bot_sightings.setdefault(packet.src, []).append(now)
                if obs is not None:
                    self._m_bot.inc()

        # Retain user-focused alerts regardless of the MVR decision: the
        # interest rules are exactly what the system exists to keep.
        for alert in alerts:
            if alert.classtype in RETAIN_CLASSTYPES:
                user = (
                    self.attribution.user_of(packet.src)
                    if self.attribution is not None
                    else None
                )
                self.store.store_alert(
                    StoredAlert(
                        time=now,
                        alert=alert,
                        user=user,
                        origin_ip=packet.metadata.get("origin_ip"),
                    )
                )
                if obs is not None:
                    self._m_alerts.inc((alert.classtype,))

        traffic_class = classify_packet(packet, alerts)

        # Stage 1: Massive Volume Reduction.
        if traffic_class in TrafficClass.DISCARDED:
            self.bytes_discarded += size
            self.discarded_by_class[traffic_class] += size
            return

        self.retained_by_class[traffic_class] += size
        self.store.store_content(
            ContentRecord(
                time=now,
                src=packet.src,
                dst=packet.dst,
                size=size,
                fields=packet.summary_fields(),
            )
        )
        flow_key = canonical_flow(packet)
        if flow_key is not None:
            self.store.store_flow(flow_key, now, size)

    # -- pipeline maintenance --------------------------------------------------------

    def expire(self, now: float) -> None:
        """Apply retention windows (run periodically in long simulations)."""
        self.store.expire(now)

    def run_analyst(self, now: float) -> List[Investigation]:
        """Stage-2 triage over the effective (bot-suppressed) alerts."""
        return self.analyst.triage(self.effective_alerts(), now)

    # -- evaluation queries ------------------------------------------------------------

    def discard_fraction(self) -> float:
        """Fraction of observed bytes thrown away by MVR (stage 1)."""
        if self.store.bytes_seen == 0:
            return 0.0
        return self.bytes_discarded / self.store.bytes_seen

    def is_bot_suppressed(self, src_ip: str, time: float) -> bool:
        """Whether ``src_ip`` showed bot-like behaviour near ``time``."""
        sightings = self._bot_sightings.get(src_ip)
        if not sightings:
            return False
        window = self.bot_suppression_window
        return any(abs(time - seen) <= window for seen in sightings)

    def effective_alerts(self) -> List[StoredAlert]:
        """Retained alerts after bot suppression — what the analyst sees.

        An alert from a source that also triggered commodity bot detections
        (scan/DDoS/spam/p2p) in the surrounding window is written off as
        malware activity rather than user intent; this is the mechanism the
        paper's Section 3 techniques exploit.
        """
        return [
            stored
            for stored in self.store.alerts
            if not self.is_bot_suppressed(stored.alert.src, stored.time)
        ]

    def attributed_alerts_for_user(self, user: str) -> List[StoredAlert]:
        """Effective alerts the system pins on ``user`` (what it believes)."""
        return [stored for stored in self.effective_alerts() if stored.user == user]

    def raw_alerts_for_user(self, user: str) -> List[StoredAlert]:
        """All retained alerts for ``user``, before bot suppression."""
        return self.store.alerts_for_user(user)

    def suspect_report(self, sids=None) -> SuspectReport:
        """Attribution distribution over effective alerts."""
        if self.attribution is None:
            raise RuntimeError("no attribution engine configured")
        if sids is None:
            return self.attribution.report(self.effective_alerts())
        return self.attribution.report_for_sids(self.effective_alerts(), sids)

    def users_contacting(
        self, ip: str, now: float, window: Optional[float] = None
    ) -> List[str]:
        """Retrospective metadata query: who talked to ``ip`` recently?

        Alert evasion is not metadata evasion: connection records are kept
        for the metadata window (30 days under the NSA profile), so an
        analyst who later learns that ``ip`` is interesting can ask this
        question about the past.  The stealthy techniques reduce *alert*
        risk; this query is the residual exposure an honest risk analysis
        must mention (see EXPERIMENTS.md caveats).
        """
        if window is None:
            window = self.profile.metadata_retention
        users = set()
        for flow in self.store.flows_touching(ip):
            if now - flow.last_seen > window:
                continue
            for endpoint in (flow.key.src, flow.key.dst):
                if endpoint == ip or self.attribution is None:
                    continue
                user = self.attribution.user_of(endpoint)
                if user is not None:
                    users.add(user)
        return sorted(users)

    def summary(self) -> Dict[str, object]:
        """Byte accounting for experiment E4."""
        return {
            "packets_seen": self.packets_seen,
            "bytes_seen": self.store.bytes_seen,
            "bytes_discarded_stage1": self.bytes_discarded,
            "discard_fraction": self.discard_fraction(),
            "bytes_retained_content": self.store.bytes_retained,
            "retained_fraction": self.store.retained_fraction(),
            "retained_alerts": len(self.store.alerts),
            "flow_records": len(self.store.flows),
            "discarded_by_class": dict(self.discarded_by_class),
            "retained_by_class": dict(self.retained_by_class),
        }
