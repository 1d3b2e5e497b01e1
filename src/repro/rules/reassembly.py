"""TCP stream reassembly for the rule engine (Snort stream5 analogue).

Censorship systems "need only store enough data to reassemble flows and
store access control lists" (paper Section 1); this module is that state.
It tracks handshake progress per flow, accumulates in-order payload per
direction up to a configurable depth, and reports which side initiated the
flow so ``flow:to_server``/``to_client`` rule options work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..packets import PROTO_TCP, FiveTuple, IPPacket

__all__ = ["FlowRecord", "StreamReassembler", "StreamUpdate"]

DEFAULT_STREAM_DEPTH = 8192


@dataclass
class FlowRecord:
    """Per-flow reassembly state."""

    key: FiveTuple  # canonical (direction-insensitive)
    initiator: str = ""
    responder: str = ""
    syn_seen: bool = False
    synack_seen: bool = False
    established: bool = False
    reset: bool = False
    closed: bool = False
    first_seen: float = 0.0
    last_seen: float = 0.0
    packets: int = 0
    #: reassembled application bytes per direction key ("c2s" / "s2c")
    buffers: Dict[str, bytearray] = field(
        default_factory=lambda: {"c2s": bytearray(), "s2c": bytearray()}
    )
    next_seq: Dict[str, Optional[int]] = field(
        default_factory=lambda: {"c2s": None, "s2c": None}
    )
    #: sids that already alerted on this flow's stream content
    alerted_sids: Set[int] = field(default_factory=set)
    #: bumped whenever already-buffered bytes are *rewritten* (overlap
    #: policy "last"); appends don't bump it.  Snapshot caches and saved
    #: multipattern scan states key on (content_version, length).
    content_version: int = 0
    #: per-direction resumable multipattern scan state (engine-owned)
    mp_states: Dict[str, object] = field(default_factory=dict, repr=False, compare=False)
    #: direction -> (content_version, length, {id(rule): payload matched}),
    #: the engine's memo of payload-option results for unchanged streams
    payload_memo: Dict[str, tuple] = field(default_factory=dict, repr=False, compare=False)
    #: plain-tuple key into the reassembler's fast flow table
    _tkey: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: direction -> (content_version, length, bytes, lowered-or-None)
    _snapshots: Dict[str, tuple] = field(default_factory=dict, repr=False, compare=False)

    def direction_of(self, packet: IPPacket) -> str:
        return "c2s" if packet.src == self.initiator else "s2c"

    def buffer(self, direction: str) -> bytes:
        return self.snapshot(direction)

    def snapshot(self, direction: str) -> bytes:
        """An immutable copy of one direction's buffer, cached until the
        buffer grows or is rewritten (every candidate rule on a packet —
        and every packet that doesn't advance the stream — shares it)."""
        buf = self.buffers[direction]
        cached = self._snapshots.get(direction)
        if (
            cached is not None
            and cached[0] == self.content_version
            and cached[1] == len(buf)
        ):
            return cached[2]
        data = bytes(buf)
        self._snapshots[direction] = (self.content_version, len(buf), data, None)
        return data

    def snapshot_lower(self, direction: str) -> bytes:
        """``snapshot(direction).lower()``, folded once per buffer state."""
        cached = self._snapshots.get(direction)
        if (
            cached is not None
            and cached[0] == self.content_version
            and cached[1] == len(self.buffers[direction])
            and cached[3] is not None
        ):
            return cached[3]
        data = self.snapshot(direction)
        lowered = data.lower()
        self._snapshots[direction] = (
            self.content_version,
            len(data),
            data,
            lowered,
        )
        return lowered

    @property
    def total_bytes(self) -> int:
        return sum(len(buf) for buf in self.buffers.values())


@dataclass(slots=True)
class StreamUpdate:
    """What one packet did to its flow."""

    flow: FlowRecord
    direction: str
    new_data: bytes
    is_new_flow: bool


class StreamReassembler:
    """Tracks TCP flows and reassembles payload in order.

    ``stream_depth`` caps buffered bytes per direction — the same knob a
    real IDS has, and the thing evasion-by-overflow attacks target.
    """

    def __init__(
        self,
        stream_depth: int = DEFAULT_STREAM_DEPTH,
        max_flows: int = 100_000,
        overlap_policy: str = "first",
    ) -> None:
        if overlap_policy not in ("first", "last"):
            raise ValueError("overlap_policy must be 'first' or 'last'")
        self.stream_depth = stream_depth
        self.max_flows = max_flows
        #: How retransmitted/overlapping data is resolved: "first" keeps
        #: the bytes already buffered (BSD-style), "last" lets a
        #: retransmission overwrite them (Windows-style).  Ptacek &
        #: Newsham's insertion/evasion attacks live in the gap between an
        #: IDS's policy and the end host's.
        self.overlap_policy = overlap_policy
        self.flows: Dict[FiveTuple, FlowRecord] = {}
        #: plain-tuple mirror of ``flows`` — (lo_ip, lo_port, hi_ip, hi_port)
        #: keys skip FiveTuple construction on the per-packet hot path
        self._fast: Dict[tuple, FlowRecord] = {}
        self.evicted_flows = 0

    def feed(self, packet: IPPacket, now: float) -> Optional[StreamUpdate]:
        """Advance flow state with ``packet``; returns None for non-TCP."""
        segment = packet.tcp
        if segment is None:
            return None
        return self.feed_tcp(packet, segment, now)

    def feed_tcp(self, packet: IPPacket, segment, now: float) -> StreamUpdate:
        """The TCP hot path: caller already extracted ``segment``."""
        src = packet.src
        dst = packet.dst
        sport = segment.sport
        dport = segment.dport
        # Canonical ordering, same as FiveTuple.canonical(): lower
        # (ip, port) endpoint first.
        if (src, sport) <= (dst, dport):
            tkey = (src, sport, dst, dport)
        else:
            tkey = (dst, dport, src, sport)
        flow = self._fast.get(tkey)
        is_new = flow is None
        if flow is None:
            if len(self.flows) >= self.max_flows:
                self._evict_oldest()
            key = FiveTuple(
                src=src, sport=sport, dst=dst, dport=dport, protocol=PROTO_TCP
            ).canonical()
            flow = FlowRecord(key=key, first_seen=now)
            # Whoever we see first is provisionally the initiator; a SYN
            # observed later corrects this (matters for mid-flow pickup).
            flow.initiator, flow.responder = src, dst
            flow._tkey = tkey
            self.flows[key] = flow
            self._fast[tkey] = flow
        flow.last_seen = now
        flow.packets += 1

        flags = segment.flags
        if flags & 0x02:  # SYN
            if flags & 0x10:  # SYN|ACK
                flow.synack_seen = True
                flow.initiator, flow.responder = dst, src
            else:
                flow.syn_seen = True
                flow.initiator, flow.responder = src, dst
        elif flags & 0x10 and flow.syn_seen and flow.synack_seen:  # ACK
            flow.established = True
        if flags & 0x04:  # RST
            flow.reset = True
        if flags & 0x01:  # FIN
            flow.closed = True

        direction = "c2s" if src == flow.initiator else "s2c"
        new_data = b""
        if segment.payload:
            new_data = self._append(flow, direction, segment)
        return StreamUpdate(flow=flow, direction=direction, new_data=new_data, is_new_flow=is_new)

    def _append(self, flow: FlowRecord, direction: str, segment) -> bytes:
        expected = flow.next_seq[direction]
        if expected is not None and segment.seq < expected:
            if self.overlap_policy == "last":
                self._overwrite(flow, direction, segment, expected)
            return b""  # retransmission / injected duplicate
        buffer = flow.buffers[direction]
        room = self.stream_depth - len(buffer)
        if room <= 0:
            return b""  # beyond inspection depth
        data = segment.payload[:room]
        buffer.extend(data)
        flow.next_seq[direction] = segment.seq + len(segment.payload)
        return data

    def _overwrite(self, flow: FlowRecord, direction: str, segment, expected: int) -> None:
        """Last-wins: a retransmission replaces already-buffered bytes.

        The buffer tail corresponds to sequence numbers
        [expected - len(buffer), expected); map the segment onto it.
        """
        buffer = flow.buffers[direction]
        buffer_start_seq = expected - len(buffer)
        offset = segment.seq - buffer_start_seq
        if offset < 0:
            data = segment.payload[-offset:]
            offset = 0
        else:
            data = segment.payload
        data = data[: max(0, len(buffer) - offset)]
        buffer[offset : offset + len(data)] = data
        # A sid that alerted on the old bytes may now face different
        # content; allow re-evaluation of stream rules on this flow, and
        # invalidate cached snapshots, saved multipattern scan states and
        # payload-option memos.
        flow.alerted_sids.clear()
        flow.content_version += 1

    def _drop(self, record: FlowRecord) -> None:
        if record._tkey is not None:
            self._fast.pop(record._tkey, None)

    def _evict_oldest(self) -> None:
        oldest_key = min(self.flows, key=lambda key: self.flows[key].last_seen)
        self._drop(self.flows.pop(oldest_key))
        self.evicted_flows += 1

    def flush_flow(self, key: FiveTuple) -> None:
        """Drop a flow's state (e.g. after the censor kills it)."""
        record = self.flows.pop(key.canonical(), None)
        if record is not None:
            self._drop(record)

    def expire(self, now: float, idle: float = 60.0) -> int:
        """Remove flows idle longer than ``idle`` seconds; returns count."""
        stale = [key for key, flow in self.flows.items() if now - flow.last_seen > idle]
        for key in stale:
            self._drop(self.flows.pop(key))
        return len(stale)
