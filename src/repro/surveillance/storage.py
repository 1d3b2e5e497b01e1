"""Retention stores: content, connection metadata, and alerts.

The storage asymmetry is the paper's first exploitable difference
(Section 2.2, "Storage requirements"): a surveillance system must keep
history to track users, and history has a byte budget and expiry windows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..packets import FiveTuple
from ..packets.ip import format_summary
from ..rules import Alert
from .profile import SurveillanceProfile

__all__ = ["ContentRecord", "FlowMetadata", "StoredAlert", "RetentionStore"]


class ContentRecord:
    """A captured packet's content (sized, not byte-hoarded, for memory).

    The one-line ``summary`` is formatted on first read, from
    ``IPPacket.summary_fields()`` captured at ingest: the byte budget
    evicts most records unread.  The record never holds the packet.
    """

    __slots__ = ("time", "src", "dst", "size", "_summary", "_fields")

    def __init__(
        self,
        time: float,
        src: str,
        dst: str,
        size: int,
        summary: Optional[str] = None,
        fields: Optional[tuple] = None,
    ) -> None:
        self.time = time
        self.src = src
        self.dst = dst
        self.size = size
        self._summary = summary
        self._fields = fields

    @property
    def summary(self) -> str:
        if self._summary is None:
            self._summary = format_summary(self.src, self.dst, self._fields)
            self._fields = None
        return self._summary


@dataclass
class FlowMetadata:
    """A NetFlow/CDR-style connection record."""

    key: FiveTuple
    first_seen: float
    last_seen: float
    packets: int = 0
    bytes: int = 0


@dataclass
class StoredAlert:
    """A retained, user-attributable alert."""

    time: float
    alert: Alert
    user: Optional[str]
    origin_ip: Optional[str]  # ground-truth origin, for evaluation only


class RetentionStore:
    """Byte-budgeted, window-expiring storage for a surveillance system.

    ``budget_bytes(now)`` enforces the storage-fraction constraint: retained
    content may never exceed ``profile.storage_fraction`` of the bytes the
    tap has seen.  Oldest content is evicted first, exactly the behaviour
    that makes old measurement traffic unprosecutable.
    """

    def __init__(self, profile: SurveillanceProfile) -> None:
        self.profile = profile
        self.content: Deque[ContentRecord] = deque()
        self.flows: Dict[FiveTuple, FlowMetadata] = {}
        self.alerts: List[StoredAlert] = []
        #: ``{(): bytes observed}``, a tally a metrics fold can hold
        #: without holding the store
        self.volume: Dict[tuple, int] = {(): 0}
        self.bytes_retained = 0
        self.bytes_evicted_for_budget = 0
        self.bytes_expired = 0

    # -- ingest -----------------------------------------------------------------

    @property
    def bytes_seen(self) -> int:
        return self.volume[()]

    @bytes_seen.setter
    def bytes_seen(self, value: int) -> None:
        self.volume[()] = value

    def observe_volume(self, size: int) -> None:
        """Account every observed byte (retained or not)."""
        self.volume[()] += size

    def store_content(self, record: ContentRecord) -> None:
        if not self.profile.captures_content:
            return
        self.content.append(record)
        self.bytes_retained += record.size
        self._enforce_budget()

    def store_flow(self, key: FiveTuple, now: float, size: int) -> None:
        flow = self.flows.get(key)
        if flow is None:
            flow = FlowMetadata(key=key, first_seen=now, last_seen=now)
            self.flows[key] = flow
        flow.last_seen = now
        flow.packets += 1
        flow.bytes += size

    def store_alert(self, stored: StoredAlert) -> None:
        self.alerts.append(stored)

    # -- expiry and budget ------------------------------------------------------

    def _enforce_budget(self) -> None:
        budget = self.profile.storage_fraction * self.volume[()]
        while self.content and self.bytes_retained > budget:
            evicted = self.content.popleft()
            self.bytes_retained -= evicted.size
            self.bytes_evicted_for_budget += evicted.size

    def expire(self, now: float) -> None:
        """Apply the retention windows."""
        content_cutoff = now - self.profile.content_retention
        while self.content and self.content[0].time < content_cutoff:
            expired = self.content.popleft()
            self.bytes_retained -= expired.size
            self.bytes_expired += expired.size
        metadata_cutoff = now - self.profile.metadata_retention
        stale = [key for key, flow in self.flows.items() if flow.last_seen < metadata_cutoff]
        for key in stale:
            del self.flows[key]
        alert_cutoff = now - self.profile.alert_retention
        self.alerts = [stored for stored in self.alerts if stored.time >= alert_cutoff]

    # -- queries -------------------------------------------------------------------

    def retained_fraction(self) -> float:
        """Fraction of observed volume currently retained as content."""
        return self.bytes_retained / self.bytes_seen if self.bytes_seen else 0.0

    def content_mentioning(self, text: str) -> List[ContentRecord]:
        return [record for record in self.content if text in record.summary]

    def flows_touching(self, ip: str) -> List[FlowMetadata]:
        return [
            flow
            for flow in self.flows.values()
            if ip in (flow.key.src, flow.key.dst)
        ]

    def alerts_for_user(self, user: str) -> List[StoredAlert]:
        return [stored for stored in self.alerts if stored.user == user]
