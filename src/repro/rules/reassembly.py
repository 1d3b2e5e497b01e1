"""TCP stream reassembly for the rule engine (Snort stream5 analogue).

Censorship systems "need only store enough data to reassemble flows and
store access control lists" (paper Section 1); this module is that state.
It tracks handshake progress per flow, accumulates in-order payload per
direction up to a configurable depth, and reports which side initiated the
flow so ``flow:to_server``/``to_client`` rule options work.

A :class:`StreamReassembler` is a flow table; rule engines read it through
a :class:`StreamReader`.  Engines on one tap node with the same stream
configuration share one table, like the censor and the MVR reading one tap
in the paper's Figure 1: each packet is reassembled once per arrival, and
the second engine reuses the first one's :class:`StreamUpdate`.  An
engine's view of a flow always equals what a private table would hold:
when it does not consume a packet the table was fed (the censor dropping a
packet before its engine runs, a tap skipping its own injection), its view
of that flow forks to a private record without that packet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..packets import PROTO_TCP, FiveTuple, IPPacket

__all__ = ["FlowRecord", "StreamReader", "StreamReassembler", "StreamUpdate"]

DEFAULT_STREAM_DEPTH = 8192

_DIRECTIONS = ("c2s", "s2c")


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
    #: creation order, across a table and its readers' private records
    #: (breaks ``last_seen`` ties when a view evicts at ``max_flows``)
    serial: int = 0
    #: reassembled application bytes per direction key ("c2s" / "s2c")
    buffers: Dict[str, bytearray] = field(
        default_factory=lambda: {"c2s": bytearray(), "s2c": bytearray()}
    )
    #: ``buffers`` case-folded, kept byte for byte in step with them
    lowered: Dict[str, bytearray] = field(
        default_factory=lambda: {"c2s": bytearray(), "s2c": bytearray()}
    )
    next_seq: Dict[str, Optional[int]] = field(
        default_factory=lambda: {"c2s": None, "s2c": None}
    )
    #: bumped whenever already-buffered bytes are *rewritten* (overlap
    #: policy "last"); appends don't bump it.  Engine memos and saved
    #: multipattern scan states key on (content_version, length).
    content_version: int = 0
    #: reader slot -> that engine's own state for this flow (alerted sids,
    #: scan states, payload memos; see ``RuleEngine``)
    reader_state: Dict[int, object] = field(default_factory=dict, repr=False, compare=False)
    #: plain-tuple key into the reassembler's fast flow table
    _tkey: Optional[tuple] = field(default=None, repr=False, compare=False)

    def buffer(self, direction: str) -> bytearray:
        return self.buffers[direction]

    def snapshot(self, direction: str) -> bytearray:
        """One direction's reassembled bytes: the live buffer, not a copy.

        Every rule engine reading the flow matches on it in place.  It
        changes when the next packet is fed, so nothing may hold it across
        a feed; memos keyed on ``(content_version, len)`` stay valid.
        """
        return self.buffers[direction]

    def snapshot_lower(self, direction: str) -> bytearray:
        """``snapshot(direction).lower()``, maintained as bytes arrive."""
        return self.lowered[direction]

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
    #: the flow's state before this packet, on shared tables only: what a
    #: reader that skips the packet forks from (see ``_before``)
    prior: Optional[list] = None


def _table_key(src: str, sport: int, dst: str, dport: int) -> tuple:
    """Canonical plain-tuple flow key, same order as FiveTuple.canonical():
    lower (ip, port) endpoint first."""
    if (src, sport) <= (dst, dport):
        return (src, sport, dst, dport)
    return (dst, dport, src, sport)


class _ReaderState:
    """What a table keeps per reader (no reference back to the reader, so
    a table and its readers never form a reference cycle)."""

    __slots__ = ("slot", "bit", "forked", "private")

    def __init__(self, table: "StreamReassembler", slot: int) -> None:
        self.slot = slot
        self.bit = 1 << slot
        #: table keys of the flows this reader forked away from
        self.forked: Set[tuple] = set()
        #: the forked flows this reader holds a record of; the table caps
        #: the reader's whole view at ``max_flows`` (see ``_fit_view``)
        self.private = StreamReassembler(
            stream_depth=table.stream_depth,
            max_flows=float("inf"),
            overlap_policy=table.overlap_policy,
        )
        self.private._serial = table._serial


class StreamReader:
    """One rule engine's view of a flow table.

    On a table with one reader the view is the table.  On a shared table
    it is the table minus ``forked``: flows whose history this reader
    diverged from.  A forked flow lives on in ``private`` (a table only
    this reader feeds), or is absent from the view until its next packet.
    """

    __slots__ = ("table", "slot", "bit", "forked", "private", "_state")

    def __init__(self, table: "StreamReassembler", state: _ReaderState) -> None:
        self.table = table
        self.slot = state.slot
        self.bit = state.bit
        self.forked = state.forked
        self.private = state.private
        self._state = state

    def feed_tcp(self, packet: IPPacket, segment, now: float) -> StreamUpdate:
        """Advance this reader's view with ``packet``.

        Readers of one table see each arrival in turn; the first feeds the
        table and the others reuse its update.  An arrival one reader
        never consumed is settled when the table is next fed.
        """
        table = self.table
        if not table._shared:
            return table.feed_tcp(packet, segment, now)
        last = table._last
        if (
            last is not None
            and last[0] is packet
            and last[1] == now
            and not table._consumed & self.bit
        ):
            table._consumed |= self.bit
            update = last[2]
            if update.flow._tkey in self.forked:
                update = self.private.feed_tcp(packet, segment, now)
        else:
            if table._consumed != table._all_bits:
                table._settle()
            forked = self.forked
            if forked and _table_key(
                packet.src, segment.sport, packet.dst, segment.dport
            ) in forked:
                update = self.private.feed_tcp(packet, segment, now)
            else:
                update = table.feed_tcp(packet, segment, now)
                table._last = (packet, now, update)
                table._consumed = self.bit
        if update.is_new_flow:
            table._fit_view(self._state, update.flow)
        return update

    def flows(self) -> Dict[FiveTuple, FlowRecord]:
        """This reader's flows, keyed like ``StreamReassembler.flows``."""
        table = self.table
        forked = self.forked
        view = {
            key: flow for key, flow in table.flows.items() if flow._tkey not in forked
        }
        last = table._last
        if last is not None and not table._consumed & self.bit:
            # The table's newest packet has not reached this reader (yet):
            # show the flow as it was before it.
            update = last[2]
            if update.flow._tkey not in forked:
                del view[update.flow.key]
                if not update.is_new_flow:
                    view[update.flow.key] = table._before(update)
        view.update(self.private.flows)
        return view

    def close(self) -> None:
        """Stop reading the table (the engine is being replaced)."""
        self.table._close(self._state)


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
        #: engines reading this table; more than one makes it shared
        self._readers: List[_ReaderState] = []
        self._shared = False
        self._all_bits = 0
        self._next_slot = 0
        #: the newest packet fed through a reader of a shared table,
        #: ``(packet, now, update)``, and the bitmask of readers that have
        #: consumed it; later readers of the same arrival reuse the update
        self._last: Optional[Tuple[IPPacket, float, StreamUpdate]] = None
        self._consumed = 0
        self._serial = itertools.count()

    # -- readers -------------------------------------------------------------

    def open_reader(self) -> StreamReader:
        """A new engine's view.  Flows already in the table are forked
        away from it: a private table opened now would not hold them."""
        self._settle()
        state = _ReaderState(self, self._next_slot)
        self._next_slot += 1
        state.forked.update(self._fast)
        self._readers.append(state)
        self._shared = len(self._readers) > 1
        self._all_bits |= state.bit
        return StreamReader(self, state)

    def _close(self, reader: _ReaderState) -> None:
        self._settle()
        self._readers.remove(reader)
        self._all_bits &= ~reader.bit
        for flow in self.flows.values():
            flow.reader_state.pop(reader.slot, None)
        # Flows every remaining reader has forked away from are nobody's.
        orphans = [
            flow
            for flow in self.flows.values()
            if all(flow._tkey in other.forked for other in self._readers)
        ]
        for flow in orphans:
            del self.flows[flow.key]
            self._drop(flow)
        # A sole reader still holding forks keeps the shared path, which
        # routes those flows to its own records.
        self._shared = len(self._readers) > 1 or any(
            other.forked for other in self._readers
        )

    def _settle(self) -> None:
        """Fork the readers that did not consume the newest packet."""
        last = self._last
        if last is None:
            return
        self._last = None
        if self._consumed == self._all_bits:
            return
        update = last[2]
        tkey = update.flow._tkey
        for reader in self._readers:
            if self._consumed & reader.bit or tkey in reader.forked:
                continue
            reader.forked.add(tkey)
            if not update.is_new_flow:
                record = self._before(update)
                # The reader's engine state moves with its view.
                state = update.flow.reader_state.pop(reader.slot, None)
                if state is not None:
                    record.reader_state[reader.slot] = state
                reader.private.flows[record.key] = record
                reader.private._fast[tkey] = record

    def _fit_view(self, reader: _ReaderState, new: FlowRecord) -> None:
        """Evict from ``reader``'s view what its own table would have
        evicted before adding ``new``: the least recently seen flow, first
        created on a tie, once the view outgrew ``max_flows``."""
        private = reader.private
        if len(self.flows) + len(private.flows) <= self.max_flows:
            return  # the view is at most this big
        forked = reader.forked
        fast = self._fast
        size = len(self.flows) + len(private.flows)
        size -= sum(1 for tkey in forked if tkey in fast)
        if size <= self.max_flows:
            return
        view = [flow for flow in self.flows.values() if flow._tkey not in forked]
        view.extend(private.flows.values())
        oldest = min(
            (flow for flow in view if flow is not new),
            key=lambda flow: (flow.last_seen, flow.serial),
        )
        tkey = oldest._tkey
        if private._fast.get(tkey) is oldest:
            del private.flows[oldest.key]
            private._drop(oldest)
            if tkey not in fast:
                forked.discard(tkey)
        else:
            forked.add(tkey)
            oldest.reader_state.pop(reader.slot, None)
            if all(tkey in other.forked for other in self._readers):
                del self.flows[oldest.key]
                self._drop(oldest)
        self.evicted_flows += 1

    def _before(self, update: StreamUpdate) -> FlowRecord:
        """A copy of ``update.flow`` as it was before that packet."""
        flow = update.flow
        (
            last_seen, packets, syn_seen, synack_seen, established, reset,
            closed, initiator, responder, content_version, lengths, next_seq,
            overwritten,
        ) = update.prior
        record = FlowRecord(
            key=flow.key,
            initiator=initiator,
            responder=responder,
            syn_seen=syn_seen,
            synack_seen=synack_seen,
            established=established,
            reset=reset,
            closed=closed,
            first_seen=flow.first_seen,
            last_seen=last_seen,
            packets=packets,
            serial=flow.serial,
            next_seq=dict(zip(_DIRECTIONS, next_seq)),
            content_version=content_version,
        )
        for direction, length in zip(_DIRECTIONS, lengths):
            record.buffers[direction] = flow.buffers[direction][:length]
            record.lowered[direction] = flow.lowered[direction][:length]
        if overwritten is not None:
            direction, data = overwritten
            record.buffers[direction] = bytearray(data)
            record.lowered[direction] = bytearray(data.lower())
        record._tkey = flow._tkey
        return record

    # -- feeding ---------------------------------------------------------------

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
        # Canonical ordering, as in _table_key (inlined: per-packet path).
        if (src, sport) <= (dst, dport):
            tkey = (src, sport, dst, dport)
        else:
            tkey = (dst, dport, src, sport)
        flow = self._fast.get(tkey)
        is_new = flow is None
        prior = None
        if flow is None:
            # A shared table caps each reader's view instead (_fit_view).
            if len(self.flows) >= self.max_flows and not self._shared:
                self._evict_oldest()
            key = FiveTuple(
                src=src, sport=sport, dst=dst, dport=dport, protocol=PROTO_TCP
            ).canonical()
            flow = FlowRecord(key=key, first_seen=now, serial=next(self._serial))
            # Whoever we see first is provisionally the initiator; a SYN
            # observed later corrects this (matters for mid-flow pickup).
            flow.initiator, flow.responder = src, dst
            flow._tkey = tkey
            self.flows[key] = flow
            self._fast[tkey] = flow
        elif self._shared:
            buffers = flow.buffers
            next_seq = flow.next_seq
            prior = [
                flow.last_seen, flow.packets, flow.syn_seen, flow.synack_seen,
                flow.established, flow.reset, flow.closed, flow.initiator,
                flow.responder, flow.content_version,
                (len(buffers["c2s"]), len(buffers["s2c"])),
                (next_seq["c2s"], next_seq["s2c"]),
                None,
            ]
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
            if prior is not None and self.overlap_policy == "last":
                expected = flow.next_seq[direction]
                if expected is not None and segment.seq < expected:
                    prior[-1] = (direction, bytes(flow.buffers[direction]))
            new_data = self._append(flow, direction, segment)
        return StreamUpdate(
            flow=flow,
            direction=direction,
            new_data=new_data,
            is_new_flow=is_new,
            prior=prior,
        )

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
        flow.lowered[direction].extend(data.lower())
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
        flow.lowered[direction][offset : offset + len(data)] = data.lower()
        # A sid that alerted on the old bytes may now face different
        # content: engines re-evaluate stream rules on this flow and drop
        # saved multipattern scan states and payload-option memos.
        flow.content_version += 1

    # -- removal ---------------------------------------------------------------

    def _drop(self, record: FlowRecord) -> None:
        tkey = record._tkey
        if tkey is None:
            return
        self._fast.pop(tkey, None)
        for reader in self._readers:
            # A reader with no record of its own for the flow now agrees
            # with the table again: the flow is absent from both.
            if tkey in reader.forked and tkey not in reader.private._fast:
                reader.forked.discard(tkey)

    def _evict_oldest(self) -> None:
        oldest_key = min(self.flows, key=lambda key: self.flows[key].last_seen)
        self._drop(self.flows.pop(oldest_key))
        self.evicted_flows += 1

    def flush_flow(self, key: FiveTuple) -> None:
        """Drop a flow's state (e.g. after the censor kills it), from every
        reader's view."""
        self._settle()
        key = key.canonical()
        tkey = _table_key(key.src, key.sport, key.dst, key.dport)
        if self.flows.pop(key, None) is not None:
            self._fast.pop(tkey, None)
        for reader in self._readers:
            reader.private.flush_flow(key)
            reader.forked.discard(tkey)

    def expire(self, now: float, idle: float = 60.0) -> int:
        """Remove flows idle longer than ``idle`` seconds, from the table
        and every reader's view; returns how many table flows went."""
        self._settle()
        for reader in self._readers:
            reader.private.expire(now, idle)
        stale = [key for key, flow in self.flows.items() if now - flow.last_seen > idle]
        for key in stale:
            self._drop(self.flows.pop(key))
        for reader in self._readers:
            reader.forked.intersection_update(
                [tkey for tkey in reader.forked
                 if tkey in self._fast or tkey in reader.private._fast]
            )
        return len(stale)
