"""Population-scale background traffic with tiered fidelity.

Models thousands to millions of simulated users (web browsing, DNS
churn, video-segment fetches, SMTP) without a ``Host`` per user: users
live inside prefix-routed synthetic address space behind gateway hosts,
and every flow is planned at flow level (:class:`AggregateFlow`).  The
:class:`~repro.netsim.flows.FlowFidelityEngine` then advances each flow
at the cheapest fidelity the tap placement allows — flows that stay
inside the AS (user ↔ local CDN/resolver, user ↔ user) never cross the
border taps and advance as single aggregate events; flows to the
external synthetic internet cross the border (censor + MVR taps) and are
expanded into byte-accurate packets.

Determinism contract: the flow schedule (ids, times, endpoints, sizes)
is a pure function of ``(seed, users, profile)``.  Templates consume no
RNG at materialization (payload content derives arithmetically from the
flow id and params), the tier decision consumes no RNG at all, and the
generator draws only from private ``mix_seed`` substreams — never from
``sim.rng`` — so adding a population to a scenario does not perturb any
existing workload, and switching fidelity modes does not perturb the
schedule.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..netsim.flows import FIDELITY_MODES, AggregateFlow, FlowFidelityEngine
from ..netsim.impairment import mix_seed
from ..netsim.node import Host
from ..netsim.topology import CensoredASTopology
from ..packets import ACK, FIN, PSH, SYN, IPPacket, TCPSegment, UDPDatagram

__all__ = [
    "PopulationProfile",
    "PopulationTraffic",
    "USERS_A_CIDR",
    "USERS_B_CIDR",
    "LOCAL_SERVICES_CIDR",
    "EXTERNAL_SERVICES_CIDR",
]

#: Synthetic address plan.  Two user blocks (so user↔user flows still
#: cross the access switch), an in-AS service block (local CDN, resolver,
#: mail relay — tap-free paths), and an external service block reached
#: through the border taps.
USERS_A_CIDR = "10.128.0.0/11"
USERS_B_CIDR = "10.160.0.0/11"
LOCAL_SERVICES_CIDR = "10.224.0.0/16"
EXTERNAL_SERVICES_CIDR = "198.18.128.0/17"

_USERS_A_BASE = 0x0A800000  # 10.128.0.0
_USERS_B_BASE = 0x0AA00000  # 10.160.0.0
MAX_USERS = 4_000_000  # 2 × (2^21 − 2) host slots, rounded down

#: mix_seed namespace for population substreams (never collides with the
#: per-link ordinals, which are small integers).
_POP_NS = 0x706F7075
_WORKLOAD_IDS = {"web": 1, "dns": 2, "video": 3, "smtp": 4}

_MSS = 1460
_TCP_OVERHEAD = 40  # IPv4 header (20) + TCP header (20), no options
_UDP_OVERHEAD = 28  # IPv4 header (20) + UDP header (8)
_CLIENT_ISN = 1000
_SERVER_ISN = 5000
#: Fixed origination pacing inside one flow's packet script.
_TICK = 0.004


def _int_to_ip(value: int) -> str:
    return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


def _sport_for(flow_id: int) -> int:
    """Deterministic ephemeral source port (Knuth multiplicative hash)."""
    return 1024 + (flow_id * 2654435761) % 60000


def _chunks(total: int, chunk: int = _MSS) -> Iterator[int]:
    while total > chunk:
        yield chunk
        total -= chunk
    if total > 0:
        yield total


#: ``_TICKS[n]`` is ``_TICK`` added ``n`` times to 0.0: the exact float a
#: script's repeated ``t += _TICK`` reaches after ``n`` packets.
_TICKS = [0.0]


def _tick_offset(count: int) -> float:
    ticks = _TICKS
    while len(ticks) <= count:
        ticks.append(ticks[-1] + _TICK)
    return ticks[count]


class _FlowTemplate:
    """Shared plan/materialize machinery for one workload's flows.

    Subclasses implement :meth:`script`, the single source of truth for a
    flow's packets: the packet-level materialization iterates it, and the
    flow-level plan (byte/packet totals) either walks it too or, for TCP
    templates, sums the same turns arithmetically — so the two tiers
    cannot drift apart, and ``FlowFidelityEngine._expand`` asserts they
    haven't.
    """

    kind = ""
    protocol = "tcp"
    dport = 0

    def script(
        self, flow_id: int, params: Tuple
    ) -> Iterator[Tuple[float, int, bytes, int]]:
        """Yield (offset, side, payload, tcp_flags); side 0=up, 1=down."""
        raise NotImplementedError

    def plan_key(self, flow_id: int, params: Tuple) -> Tuple:
        """Exactly what :meth:`plan` depends on: two flows with equal keys
        have equal plans.  Payloads that format the flow id do so at a
        fixed width, so by default a plan depends on ``params`` alone."""
        return params

    def plan(self, flow_id: int, params: Tuple) -> Tuple[int, int, int, int, float]:
        """(packets_up, bytes_up, packets_down, bytes_down, duration)."""
        overhead = _TCP_OVERHEAD if self.protocol == "tcp" else _UDP_OVERHEAD
        packets = [0, 0]
        bytes_ = [0, 0]
        last = 0.0
        for offset, side, payload, _flags in self.script(flow_id, params):
            packets[side] += 1
            bytes_[side] += overhead + len(payload)
            if offset > last:
                last = offset
        return packets[0], bytes_[0], packets[1], bytes_[1], last + _TICK

    def materialize(
        self, flow: AggregateFlow
    ) -> Iterator[Tuple[float, str, IPPacket]]:
        sport = _sport_for(flow.flow_id)
        if self.protocol == "udp":
            for offset, side, payload, _flags in self.script(flow.flow_id, flow.params):
                if side == 0:
                    datagram = UDPDatagram(sport, self.dport, payload=payload)
                    packet = IPPacket(flow.src_ip, flow.dst_ip, datagram)
                    yield offset, flow.src_gateway, packet
                else:
                    datagram = UDPDatagram(self.dport, sport, payload=payload)
                    packet = IPPacket(flow.dst_ip, flow.src_ip, datagram)
                    yield offset, flow.dst_gateway, packet
            return
        # TCP: sequence numbers accumulate per side so stream reassembly
        # (rule-engine flow scanning) sees a coherent byte stream.
        seq = [_CLIENT_ISN, _SERVER_ISN]
        for offset, side, payload, flags in self.script(flow.flow_id, flow.params):
            other = 1 - side
            segment = TCPSegment(
                sport if side == 0 else self.dport,
                self.dport if side == 0 else sport,
                seq=seq[side],
                ack=seq[other] if flags & ACK else 0,
                flags=flags,
                payload=payload,
            )
            seq[side] += len(payload)
            if flags & (SYN | FIN):
                seq[side] += 1
            if side == 0:
                packet = IPPacket(flow.src_ip, flow.dst_ip, segment)
                yield offset, flow.src_gateway, packet
            else:
                packet = IPPacket(flow.dst_ip, flow.src_ip, segment)
                yield offset, flow.dst_gateway, packet


def _tcp_conversation(
    turns: Iterator[Tuple[int, Union[bytes, int]]], fill: bytes
) -> Iterator[Tuple[float, int, bytes, int]]:
    """Wrap (side, payload) turns in a SYN/FIN envelope with fixed pacing;
    an ``int`` payload is a run of that many ``fill`` bytes in MSS chunks."""
    t = 0.0
    yield t, 0, b"", SYN
    t += _TICK
    yield t, 1, b"", SYN | ACK
    t += _TICK
    yield t, 0, b"", ACK
    for side, payload in turns:
        if type(payload) is int:
            for size in _chunks(payload):
                t += _TICK
                yield t, side, fill * size, PSH | ACK
        else:
            t += _TICK
            yield t, side, payload, PSH | ACK
    t += _TICK
    yield t, 0, b"", FIN | ACK
    t += _TICK
    yield t, 1, b"", FIN | ACK
    t += _TICK
    yield t, 0, b"", ACK


class _TCPTemplate(_FlowTemplate):
    """A TCP conversation: :meth:`turns` inside the SYN/FIN envelope.

    A turn is ``(side, payload)``; a payload that is an ``int`` is a filler
    run of that many ``fill`` bytes.  :meth:`script` expands the runs into
    MSS-sized segments for materialization, while :meth:`plan` sums the
    same turns in O(turns) without allocating any filler.
    """

    #: the byte every filler run repeats
    fill = b"\x00"

    def turns(self, flow_id: int, params: Tuple) -> Iterator[Tuple[int, Union[bytes, int]]]:
        raise NotImplementedError

    def script(self, flow_id, params):
        return _tcp_conversation(self.turns(flow_id, params), self.fill)

    def plan(self, flow_id: int, params: Tuple) -> Tuple[int, int, int, int, float]:
        # The envelope: SYN, ACK, FIN|ACK, ACK up; SYN|ACK, FIN|ACK down.
        packets = [4, 2]
        bytes_ = [4 * _TCP_OVERHEAD, 2 * _TCP_OVERHEAD]
        for side, payload in self.turns(flow_id, params):
            if type(payload) is int:
                count = -(-payload // _MSS)
                packets[side] += count
                bytes_[side] += payload + _TCP_OVERHEAD * count
            else:
                packets[side] += 1
                bytes_[side] += _TCP_OVERHEAD + len(payload)
        # Every packet after the SYN is one tick later than the previous.
        last = _tick_offset(packets[0] + packets[1] - 1)
        return packets[0], bytes_[0], packets[1], bytes_[1], last + _TICK


class _WebTemplate(_TCPTemplate):
    """One browsing page fetch: GET + segmented response.

    params = (host_header, page_bytes)
    """

    kind = "web"
    dport = 80
    fill = b"\x20"

    def turns(self, flow_id, params):
        host, page_bytes = params
        yield 0, (
            f"GET /page/{flow_id & 0xFFFF:05d} HTTP/1.1\r\n"
            f"Host: {host}\r\nUser-Agent: population-sim\r\n\r\n"
        ).encode()
        yield 1, f"HTTP/1.1 200 OK\r\nContent-Length: {page_bytes:08d}\r\n\r\n".encode()
        yield 1, page_bytes


class _VideoTemplate(_TCPTemplate):
    """One video-segment batch fetch from the in-AS CDN.

    params = (host_header, segment_bytes, segment_count)
    """

    kind = "video"
    dport = 80
    fill = b"\x56"

    def turns(self, flow_id, params):
        host, segment_bytes, segment_count = params
        for index in range(segment_count):
            yield 0, (
                f"GET /seg/{flow_id & 0xFFFFFF:08d}-{index:02d}.ts HTTP/1.1\r\n"
                f"Host: {host}\r\n\r\n"
            ).encode()
            yield 1, (
                f"HTTP/1.1 200 OK\r\nContent-Length: {segment_bytes:08d}\r\n\r\n"
            ).encode()
            yield 1, segment_bytes


class _SMTPTemplate(_TCPTemplate):
    """One outbound mail delivery: command/response turns + body.

    params = (helo_name, message_bytes)
    """

    kind = "smtp"
    dport = 25
    fill = b"\x41"

    def plan_key(self, flow_id, params):
        # ``user{...:06d}`` grows a seventh digit from 1,000,000 upward.
        return params, (flow_id & 0xFFFFF) >= 1_000_000

    def turns(self, flow_id, params):
        helo, message_bytes = params
        yield 1, b"220 relay ESMTP ready\r\n"
        yield 0, f"HELO {helo}\r\n".encode()
        yield 1, b"250 relay\r\n"
        yield 0, f"MAIL FROM:<user{flow_id & 0xFFFFF:06d}@{helo}>\r\n".encode()
        yield 1, b"250 ok\r\n"
        yield 0, b"RCPT TO:<inbox@example.net>\r\n"
        yield 1, b"250 ok\r\n"
        yield 0, b"DATA\r\n"
        yield 1, b"354 go ahead\r\n"
        yield 0, message_bytes
        yield 0, b"\r\n.\r\n"
        yield 1, b"250 queued\r\n"
        yield 0, b"QUIT\r\n"
        yield 1, b"221 bye\r\n"


class _DNSTemplate(_FlowTemplate):
    """One query/response pair against a resolver.

    params = (qname,)
    """

    kind = "dns"
    protocol = "udp"
    dport = 53

    @staticmethod
    def _encode_qname(qname: str) -> bytes:
        encoded = b"".join(
            bytes([len(label)]) + label.encode() for label in qname.split(".")
        )
        return encoded + b"\x00"

    def script(self, flow_id, params):
        (qname,) = params
        txid = (flow_id * 40503) & 0xFFFF
        question = self._encode_qname(qname) + b"\x00\x01\x00\x01"
        query = txid.to_bytes(2, "big") + b"\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00" + question
        answer = (
            txid.to_bytes(2, "big")
            + b"\x81\x80\x00\x01\x00\x01\x00\x00\x00\x00"
            + question
            + b"\xc0\x0c\x00\x01\x00\x01\x00\x00\x01\x2c\x00\x04"
            + bytes([(flow_id >> 8) & 255, flow_id & 255, 0, 1])
        )
        yield 0.0, 0, query, 0
        yield _TICK, 1, answer, 0


@dataclass
class PopulationProfile:
    """Per-user flow rates (flows/user/second) and size knobs.

    Defaults model a light browsing population: mostly in-AS traffic
    (local CDN, local resolver), with configurable fractions routed to
    the external synthetic internet — those cross the border taps and
    pay full packet fidelity in hybrid mode.
    """

    web_rate: float = 0.05
    dns_rate: float = 0.10
    video_rate: float = 0.02
    smtp_rate: float = 0.005
    #: Fraction of each workload's flows that leave the AS.
    web_external_fraction: float = 0.10
    dns_external_fraction: float = 0.05
    smtp_external_fraction: float = 0.50
    page_bytes: Tuple[int, ...] = (2_200, 14_600, 58_400)
    video_segment_bytes: int = 65_536
    video_segments_per_fetch: Tuple[int, ...] = (2, 4)
    message_bytes: Tuple[int, ...] = (900, 4_300)
    site_count: int = 8

    def rates(self) -> Dict[str, float]:
        return {
            "web": self.web_rate,
            "dns": self.dns_rate,
            "video": self.video_rate,
            "smtp": self.smtp_rate,
        }


class PopulationTraffic:
    """A tiered-fidelity background population over a censored-AS topology.

    Construction is fidelity-independent: the same gateways, links, and
    prefix routes are created in every mode, so link RNG ordinals — and
    therefore every downstream deterministic stream — are identical
    whether the population runs aggregate, hybrid, or full.
    """

    def __init__(
        self,
        topo: CensoredASTopology,
        users: int,
        fidelity: str = "hybrid",
        profile: Optional[PopulationProfile] = None,
        seed: Optional[int] = None,
        log_schedule: bool = False,
    ) -> None:
        if not 1 <= users <= MAX_USERS:
            raise ValueError(f"users must be in [1, {MAX_USERS}], got {users}")
        if fidelity not in FIDELITY_MODES:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_MODES}, not {fidelity!r}"
            )
        self.topo = topo
        self.sim = topo.sim
        self.network = topo.network
        self.users = users
        self.profile = profile if profile is not None else PopulationProfile()
        self.seed = seed if seed is not None else topo.sim.seed
        self.schedule_log: Optional[List[Tuple]] = [] if log_schedule else None
        self.flows_created = 0
        self._next_flow_id = 0
        self._stopped = False

        network = topo.network
        self._gw_a = self._add_gateway("popgw-a", "10.128.0.1", topo.access_switch)
        self._gw_b = self._add_gateway("popgw-b", "10.160.0.1", topo.access_switch)
        self._gw_local = self._add_gateway("popsvc", "10.224.0.1", topo.internal_router)
        self._gw_ext = self._add_gateway("popext", "198.18.128.1", topo.transit_router)
        network.add_prefix_route(USERS_A_CIDR, self._gw_a)
        network.add_prefix_route(USERS_B_CIDR, self._gw_b)
        network.add_prefix_route(LOCAL_SERVICES_CIDR, self._gw_local)
        network.add_prefix_route(EXTERNAL_SERVICES_CIDR, self._gw_ext)

        self.engine = FlowFidelityEngine(network, mode=fidelity)

        count = self.profile.site_count
        self._local_sites = [
            (f"10.224.10.{10 + k}", f"cdn-{k:02d}.example.com") for k in range(count)
        ]
        self._external_sites = [
            (f"198.18.200.{10 + k}", f"ext-{k:02d}.example.net") for k in range(count)
        ]
        self._video_cdns = [f"10.224.20.{10 + k}" for k in range(count)]
        self._local_resolver = "10.224.0.53"
        self._external_resolver = "198.18.129.53"
        self._local_relay = "10.224.0.25"
        self._external_relay = "198.18.201.25"
        self._dns_names = [f"cdn-{k:02d}.example.com" for k in range(count)] + [
            f"ext-{k:02d}.example.net" for k in range(count)
        ]

        self._templates = {
            "web": _WebTemplate(),
            "dns": _DNSTemplate(),
            "video": _VideoTemplate(),
            "smtp": _SMTPTemplate(),
        }
        #: (kind, plan_key) -> plan: a profile draws from a few dozen
        #: params, so nearly every flow reuses a plan already computed
        self._plans: Dict[Tuple, Tuple[int, int, int, int, float]] = {}
        # Plain functions, not bound methods: a dict of bound methods on
        # the instance would be a reference cycle through ``self``.
        self._spawners = {
            "web": PopulationTraffic._spawn_web,
            "dns": PopulationTraffic._spawn_dns,
            "video": PopulationTraffic._spawn_video,
            "smtp": PopulationTraffic._spawn_smtp,
        }
        # One private RNG stream per workload, derived from the seed —
        # never from sim.rng, whose draw sequence existing workloads own.
        self._rngs = {
            kind: random.Random(mix_seed(self.seed, _POP_NS, wid))
            for kind, wid in _WORKLOAD_IDS.items()
        }

    def _add_gateway(self, name: str, ip: str, attach_to) -> Host:
        gateway = self.network.add(Host(name, ip))
        self.network.connect(gateway, attach_to)
        # Gateways are pure sinks: no protocol stack, so delivered packets
        # are counted and dropped instead of provoking RSTs that would
        # differ from the flow plan.
        gateway.stack = None
        return gateway

    # -- addressing ----------------------------------------------------------

    def user_ip(self, index: int) -> str:
        """The synthetic address of user ``index`` (stable, prefix-routed)."""
        base = _USERS_A_BASE if index % 2 == 0 else _USERS_B_BASE
        return _int_to_ip(base + 2 + index // 2)

    def _user_gateway(self, index: int) -> str:
        return "popgw-a" if index % 2 == 0 else "popgw-b"

    # -- scheduling ----------------------------------------------------------

    def start(self, duration: float) -> None:
        """Generate flows for ``duration`` simulated seconds from now."""
        until = self.sim.now + duration
        for kind, rate in self.profile.rates().items():
            total_rate = rate * self.users
            if total_rate <= 0:
                continue
            self._schedule_next(kind, total_rate, until)

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self, kind: str, total_rate: float, until: float) -> None:
        rng = self._rngs[kind]
        delay = rng.expovariate(total_rate)
        if self.sim.now + delay > until or self._stopped:
            return

        def fire() -> None:
            if not self._stopped:
                self._spawners[kind](self, rng)
                self._schedule_next(kind, total_rate, until)

        self.sim.at_uncancellable(delay, fire)

    def _submit(
        self,
        kind: str,
        rng: random.Random,
        user: int,
        dst_ip: str,
        dst_gateway: str,
        params: Tuple,
    ) -> None:
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        template = self._templates[kind]
        packets_up, bytes_up, packets_down, bytes_down, duration = self._plan(
            template, flow_id, params
        )
        flow = AggregateFlow(
            flow_id=flow_id,
            kind=kind,
            src_ip=self.user_ip(user),
            dst_ip=dst_ip,
            src_gateway=self._user_gateway(user),
            dst_gateway=dst_gateway,
            duration=duration,
            packets_up=packets_up,
            bytes_up=bytes_up,
            packets_down=packets_down,
            bytes_down=bytes_down,
            template=template,
            params=params,
        )
        self.flows_created += 1
        if self.schedule_log is not None:
            self.schedule_log.append(
                (
                    round(self.sim.now, 9),
                    flow_id,
                    kind,
                    flow.src_ip,
                    dst_ip,
                    flow.packets_total,
                    flow.bytes_total,
                )
            )
        self.engine.submit(flow)

    def _plan(self, template: _FlowTemplate, flow_id: int, params: Tuple):
        """``template.plan(flow_id, params)``, memoised on its plan key."""
        key = (template.kind, template.plan_key(flow_id, params))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = template.plan(flow_id, params)
        return plan

    def _spawn_web(self, rng: random.Random) -> None:
        user = rng.randrange(self.users)
        external = rng.random() < self.profile.web_external_fraction
        sites = self._external_sites if external else self._local_sites
        ip, host = sites[rng.randrange(len(sites))]
        page = rng.choice(self.profile.page_bytes)
        gateway = "popext" if external else "popsvc"
        self._submit("web", rng, user, ip, gateway, (host, page))

    def _spawn_dns(self, rng: random.Random) -> None:
        user = rng.randrange(self.users)
        external = rng.random() < self.profile.dns_external_fraction
        qname = self._dns_names[rng.randrange(len(self._dns_names))]
        if external:
            self._submit("dns", rng, user, self._external_resolver, "popext", (qname,))
        else:
            self._submit("dns", rng, user, self._local_resolver, "popsvc", (qname,))

    def _spawn_video(self, rng: random.Random) -> None:
        user = rng.randrange(self.users)
        cdn = self._video_cdns[rng.randrange(len(self._video_cdns))]
        segments = rng.choice(self.profile.video_segments_per_fetch)
        params = ("video.example.com", self.profile.video_segment_bytes, segments)
        self._submit("video", rng, user, cdn, "popsvc", params)

    def _spawn_smtp(self, rng: random.Random) -> None:
        user = rng.randrange(self.users)
        external = rng.random() < self.profile.smtp_external_fraction
        message = rng.choice(self.profile.message_bytes)
        relay = self._external_relay if external else self._local_relay
        gateway = "popext" if external else "popsvc"
        self._submit("smtp", rng, user, relay, gateway, ("client.example.com", message))

    # -- introspection -------------------------------------------------------

    def bytes_total(self) -> int:
        """All background wire bytes accounted so far, both tiers."""
        return self.engine.bytes_total

    def schedule_digest(self) -> str:
        """SHA-256 over the logged flow schedule (requires log_schedule)."""
        if self.schedule_log is None:
            raise ValueError("construct with log_schedule=True to digest")
        hasher = hashlib.sha256()
        for entry in self.schedule_log:
            hasher.update(repr(entry).encode())
        return hasher.hexdigest()

    def stats(self) -> Dict[str, int]:
        snapshot = dict(self.engine.stats())
        snapshot["flows_created"] = self.flows_created
        snapshot["users"] = self.users
        return snapshot
