"""Node types: hosts (endpoints), switches, and routers.

Routers decrement TTL, emit ICMP time-exceeded, and enforce source-address
validation (SAV); switches forward transparently.  Either kind can carry
taps (censor, surveillance MVR) via the ``Middlebox`` interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..packets import ICMPMessage, IPPacket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spoofing.sav import SAVFilter
    from .network import Network
    from .stack import NetworkStack

__all__ = ["Node", "Host", "Switch", "Router"]


class Node:
    """Base network element; identified by a unique name.

    ``is_host`` and ``decrements_ttl`` are class-level flags the
    forwarding path reads per hop instead of type checks.
    """

    forwards = False
    is_host = False
    decrements_ttl = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: Optional["Network"] = None
        self.taps: List = []
        self.packets_seen = 0
        self.packets_dropped = 0

    def add_tap(self, tap) -> None:
        """Attach a middlebox that observes all transiting packets."""
        self.taps.append(tap)
        if self.network is not None:
            # Tap placement feeds the tiered-fidelity boundary; stale
            # reachability answers would let observable flows stay aggregate.
            self.network._invalidate_tap_paths()

    def counters(self) -> dict:
        """Introspection snapshot for analysis reports (subclasses extend)."""
        return {
            "packets_seen": self.packets_seen,
            "packets_dropped": self.packets_dropped,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Switch(Node):
    """A transparent L2-style forwarder (no TTL decrement)."""

    forwards = True


class Router(Node):
    """An L3 forwarder: decrements TTL and may enforce SAV.

    ``send_time_exceeded`` mirrors real router behaviour; the stateful
    mimicry technique depends on TTL-limited packets dying at routers.
    """

    forwards = True
    decrements_ttl = True

    def __init__(
        self,
        name: str,
        sav: Optional["SAVFilter"] = None,
        send_time_exceeded: bool = True,
    ) -> None:
        super().__init__(name)
        self.sav = sav
        self.send_time_exceeded = send_time_exceeded
        self.sav_drops = 0
        self.ttl_drops = 0

    def sav_permits(self, packet: IPPacket) -> bool:
        """Check claimed source against the true origin's spoofing scope."""
        if self.sav is None:
            return True
        origin = packet.metadata.get("origin_ip")
        if origin is None:  # packet from outside this AS or synthesized on-path
            return True
        return self.sav.permits(claimed_src=packet.src, true_src=origin)

    def counters(self) -> dict:
        snapshot = super().counters()
        snapshot["sav_drops"] = self.sav_drops
        snapshot["ttl_drops"] = self.ttl_drops
        return snapshot


class Host(Node):
    """An endpoint with one primary IP address and a protocol stack.

    The stack is created lazily by the network on attach so that hosts can
    be declared before the simulator exists.
    """

    forwards = False
    is_host = True

    def __init__(self, name: str, ip: str, spoof_scope: Optional[int] = None) -> None:
        super().__init__(name)
        self.ip = ip
        #: Prefix length within which this host can spoof (None = cannot
        #: spoof at all beyond its own address; 0 = can spoof anything).
        #: Enforced by the AS edge router's SAV filter, not locally.
        self.spoof_scope = spoof_scope
        self.stack: Optional["NetworkStack"] = None
        self.user: Optional[str] = None  # identity used by surveillance attribution

    # -- convenience passthroughs to the stack ------------------------------

    def send_ip(self, packet: IPPacket) -> None:
        """Send a packet with this host's true source address."""
        packet.metadata["origin_ip"] = self.ip
        assert self.network is not None, f"{self.name} not attached to a network"
        self.network.originate(packet, self)

    def send_raw(self, packet: IPPacket) -> None:
        """Send a raw (possibly spoofed-source) packet.

        The true origin travels in metadata for SAV enforcement and for
        ground-truth accounting; rule engines never read metadata.
        """
        packet.metadata["origin_ip"] = self.ip
        assert self.network is not None, f"{self.name} not attached to a network"
        self.network.originate(packet, self)

    def deliver(self, packet: IPPacket) -> None:
        """Called by the network when a packet reaches this host."""
        self.packets_seen += 1
        if self.stack is not None:
            self.stack.handle(packet)

    def counters(self) -> dict:
        snapshot = super().counters()
        if self.stack is not None:
            snapshot["tcp_retransmissions"] = self.stack.retransmitted_segments
            snapshot["tcp_retry_exhausted"] = self.stack.retransmit_exhausted
        return snapshot

    def icmp_unreachable(self, original: IPPacket, code: int = 3) -> IPPacket:
        """Build a port/host-unreachable reply quoting ``original``."""
        return IPPacket(
            src=self.ip,
            dst=original.src,
            payload=ICMPMessage.dest_unreachable(original.to_bytes(), code=code),
        )
