"""Fast-path rule dispatch: a protocol/port index and a per-packet context.

Real ISP-scale IDSes never scan their full ruleset per packet — they group
rules by protocol and destination port and consult only the candidate
bucket (Snort's port-group / fast-pattern architecture).  This module is
that layer for the reproduction's engine:

- :class:`MatchContext` computes the per-packet facts every candidate rule
  needs — transport object, ports, payload, stream haystack, lowercased
  haystack, integer addresses — exactly once, instead of once per rule.
- :class:`RuleDispatchIndex` buckets rules at engine construction so
  ``process()`` evaluates only rules whose protocol and port coverage can
  possibly match.  Candidate lists are always a *superset* of the rules
  whose headers match, and preserve ruleset order, so alert semantics
  (including ``pass``-rule suppression and threshold state) are identical
  to the naive full scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP, ip_to_int_cached
from .language import Rule
from .multipattern import anchor_literal_id, required_literal_ids
from .reassembly import StreamUpdate

__all__ = [
    "CompiledBucket",
    "MatchContext",
    "RuleDispatchIndex",
    "MAX_ENUMERATED_PORTS",
]

_UNSET = object()

_PROTO_NUMBER = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}

#: A destination-port spec covering more distinct ports than this is treated
#: as a catch-all rather than enumerated into per-port buckets.
MAX_ENUMERATED_PORTS = 256


class MatchContext:
    """Per-packet facts, computed once and shared by all candidate rules."""

    __slots__ = (
        "packet",
        "update",
        "tcp",
        "udp",
        "icmp",
        "sport",
        "dport",
        "payload",
        "_src_int",
        "_dst_int",
        "_haystack",
        "_lower_haystack",
    )

    def __init__(self, packet, update: Optional[StreamUpdate], tcp=_UNSET) -> None:
        self.packet = packet
        self.update = update
        if tcp is _UNSET:
            tcp = packet.tcp
        udp = packet.udp if tcp is None else None
        icmp = packet.icmp if tcp is None and udp is None else None
        self.tcp = tcp
        self.udp = udp
        self.icmp = icmp
        if tcp is not None:
            self.sport, self.dport = tcp.sport, tcp.dport
            self.payload = tcp.payload
        elif udp is not None:
            self.sport, self.dport = udp.sport, udp.dport
            self.payload = udp.payload
        else:
            self.sport = self.dport = 0
            if icmp is not None:
                self.payload = icmp.payload
            elif isinstance(packet.payload, (bytes, bytearray)):
                payload = packet.payload
                # Raw payloads are almost always bytes already; copy only
                # the bytearray case instead of unconditionally.
                self.payload = payload if type(payload) is bytes else bytes(payload)
            else:
                self.payload = b""
        self._src_int = None
        self._dst_int = None
        self._haystack = None
        self._lower_haystack = None

    @property
    def src_int(self) -> int:
        if self._src_int is None:
            self._src_int = ip_to_int_cached(self.packet.src)
        return self._src_int

    @property
    def dst_int(self) -> int:
        if self._dst_int is None:
            self._dst_int = ip_to_int_cached(self.packet.dst)
        return self._dst_int

    @property
    def haystack(self) -> bytes:
        """What payload rules match against: the reassembled stream for TCP
        flows, the raw payload otherwise.  Materialized once per packet."""
        if self._haystack is None:
            update = self.update
            if update is not None:
                self._haystack = update.flow.snapshot(update.direction)
            else:
                self._haystack = self.payload
        return self._haystack

    @property
    def lower_haystack(self) -> bytes:
        """``haystack.lower()``, folded at most once per *buffer state*:
        stream haystacks cache the folded copy on the flow record, shared
        by every packet that doesn't advance the stream."""
        if self._lower_haystack is None:
            update = self.update
            if update is not None:
                self._lower_haystack = update.flow.snapshot_lower(update.direction)
            else:
                self._lower_haystack = self.haystack.lower()
        return self._lower_haystack


class CompiledBucket:
    """One ordered candidate list, pre-split for the multipattern fast path.

    ``always`` holds the (order, rule) entries with no required content
    literal — they can never be literal-filtered.  Every other entry is
    bucketed under its *anchor* literal id (the longest required needle),
    so the engine only revives a content rule when its rarest literal was
    actually seen in the payload; the full required-id subset check runs
    afterwards.  Survivors merge back in ruleset order, which keeps pass
    -rule suppression and threshold call sequences identical to the naive
    scan.
    """

    __slots__ = ("rules", "always", "by_anchor")

    def __init__(self, ordered: List[Tuple[int, Rule]]) -> None:
        #: bare rules in ruleset order (every rule the bucket dispatches to)
        self.rules: List[Rule] = [rule for _order, rule in ordered]
        self.always: List[Tuple[int, Rule]] = []
        self.by_anchor: Dict[int, List[Tuple[int, Rule]]] = {}
        for order, rule in ordered:
            anchor = anchor_literal_id(rule)
            required_literal_ids(rule)  # warm the subset-check cache
            if anchor is None:
                self.always.append((order, rule))
            else:
                self.by_anchor.setdefault(anchor, []).append((order, rule))


class _ProtoTable:
    """Port buckets for one packet protocol."""

    __slots__ = (
        "port_rules",
        "catch_all",
        "catch_all_compiled",
        "merged_compiled",
    )

    def __init__(self) -> None:
        #: enumerated dport -> ordered [(order, rule), ...]
        self.port_rules: Dict[int, List[Tuple[int, Rule]]] = {}
        #: rules whose dport coverage is not enumerable, in order
        self.catch_all: List[Tuple[int, Rule]] = []
        self.catch_all_compiled = CompiledBucket([])
        #: dport -> compiled candidate bucket (port bucket ∪ catch-all)
        self.merged_compiled: Dict[int, CompiledBucket] = {}

    def finalize(self) -> None:
        self.catch_all_compiled = CompiledBucket(sorted(self.catch_all))
        self.merged_compiled = {
            port: CompiledBucket(sorted(bucket + self.catch_all))
            for port, bucket in self.port_rules.items()
        }


class RuleDispatchIndex:
    """Buckets rules by protocol and destination-port coverage."""

    def __init__(self, rules: Optional[List[Rule]] = None) -> None:
        self._tables: Dict[int, _ProtoTable] = {
            PROTO_TCP: _ProtoTable(),
            PROTO_UDP: _ProtoTable(),
            PROTO_ICMP: _ProtoTable(),
        }
        #: table consulted for protocols other than tcp/udp/icmp — only
        #: ``ip`` rules can match those packets
        self._other = _ProtoTable()
        #: (protocol, dport or None, sport) -> CompiledBucket memo for the
        #: dynamic sport-merge path (bidirectional rules); dport is None
        #: when it has no enumerated bucket.  Cleared on add()
        self._dynamic: Dict[Tuple[int, Optional[int], int], CompiledBucket] = {}
        self._size = 0
        if rules:
            self.add(rules)

    def __len__(self) -> int:
        return self._size

    # -- construction ------------------------------------------------------

    def add(self, rules: List[Rule]) -> None:
        """Index ``rules`` (in ruleset order, after any already added)."""
        all_tables = list(self._tables.values()) + [self._other]
        for rule in rules:
            order = self._size
            self._size += 1
            if rule.protocol == "ip":
                tables = all_tables
            else:
                tables = [self._tables[_PROTO_NUMBER[rule.protocol]]]
            ports = _enumerable_ports(rule)
            for table in tables:
                if ports is None:
                    table.catch_all.append((order, rule))
                else:
                    for port in ports:
                        table.port_rules.setdefault(port, []).append((order, rule))
        for table in all_tables:
            table.finalize()
        self._dynamic.clear()

    # -- lookup ------------------------------------------------------------

    def lookup(self, protocol: int, dport: int, sport: int) -> CompiledBucket:
        """The compiled candidate bucket for a packet — a superset of every
        rule whose header can match it, pre-split by anchor literal.

        A bidirectional rule matches in reverse when its dport spec covers
        the packet's *source* port, so the sport bucket is consulted too.
        (Forward-only rules surfaced that way are harmless noise: the full
        header match still rejects them.)  The sport-merge combination is
        built on first sight and memoized.
        """
        table = self._tables.get(protocol, self._other)
        extra = table.port_rules.get(sport) if sport != dport else None
        if not extra:
            bucket = table.merged_compiled.get(dport)
            if bucket is not None:
                return bucket
            return table.catch_all_compiled
        # A dport without an enumerated bucket (a reply to an ephemeral
        # port) contributes nothing, so all of them share one memo entry
        # per sport: the memo stays bounded by the enumerated ports.
        port_rules = table.port_rules.get(dport)
        key = (protocol, dport if port_rules else None, sport)
        bucket = self._dynamic.get(key)
        if bucket is None:
            parts = table.catch_all + (port_rules or []) + extra
            seen = set()
            ordered = []
            for order, rule in sorted(parts):
                if order not in seen:
                    seen.add(order)
                    ordered.append((order, rule))
            bucket = CompiledBucket(ordered)
            self._dynamic[key] = bucket
        return bucket


def _enumerable_ports(rule: Rule) -> Optional[List[int]]:
    """The destination ports to index ``rule`` under, or None for catch-all."""
    spec = rule.dport
    if spec.any or spec.negated:
        return None
    total = sum(hi - lo + 1 for lo, hi in spec.ranges)
    if total > MAX_ENUMERATED_PORTS:
        return None
    ports: List[int] = []
    for lo, hi in spec.ranges:
        ports.extend(range(lo, hi + 1))
    return ports
