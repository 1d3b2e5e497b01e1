"""The reference censorship system: a GFC-model middlebox.

A transaction-focused, off-path IDS that (paper Section 2.1):

- matches keyword and HTTP-Host signatures on reassembled TCP flows and
  responds by injecting RSTs at both endpoints;
- injects forged A answers for DNS queries of blocked names (for both A
  and MX query types, as measured against the real GFC);
- null-routes blocked IPs/endpoints, producing timeout-style blocking;
- keeps a short residual flow-kill list (the GFC's post-reset penalty) —
  the *only* state it retains, unlike the surveillance system.

Every enforcement is recorded as a :class:`CensorEvent` so evaluations have
ground truth for the accuracy criterion.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..netsim.middlebox import Action, TapContext
from ..packets import DNSMessage, IPPacket, QTYPE_A, QTYPE_MX, flow_of
from ..rules import DEFAULT_VARIABLES, RuleEngine
from ..rules.rulesets import censor_ruleset_text
from .actions import craft_block_page, craft_poisoned_response, craft_rst_pair
from .policy import CensorshipPolicy
from .registry import CensorEvent, CensorModel, register_censor

__all__ = ["CensorEvent", "GreatFirewall"]

DNS_PORT = 53


@register_censor("gfc", provenance="paper Section 2.1 (GFC reference model)")
class GreatFirewall(CensorModel):
    """The censor tap; attach to a forwarding node with ``add_tap``."""

    def __init__(
        self,
        policy: Optional[CensorshipPolicy] = None,
        variables: Optional[Dict[str, str]] = None,
        stream_depth: int = 8192,
        overlap_policy: str = "first",
    ) -> None:
        super().__init__(policy)
        self._variables = dict(variables or DEFAULT_VARIABLES)
        # Unlike the passive surveillance tap, the censor cannot defer
        # evaluation into batches: every packet needs its verdict
        # (DROP/PASS, RST/DNS injection) before it may be forwarded, so it
        # calls ``RuleEngine.process`` once per packet.
        #: Bytes of each flow direction the censor's reassembler inspects —
        #: the GFC's finite reassembly the evasion literature probes
        #: (Khattak et al. [26]); exposed for the stream-depth ablation.
        self.stream_depth = stream_depth
        #: Overlap resolution ("first" or "last") — see StreamReassembler.
        self.overlap_policy = overlap_policy
        self.rst_injections = 0
        self.dns_injections = 0
        self.ip_drops = 0
        self.residual_drops = 0
        #: canonical flow key -> penalty expiry time
        self._killed_flows: Dict[object, float] = {}
        self._engine = self._build_engine()
        from ..packets.fragment import FragmentReassembler

        self._fragments = FragmentReassembler()

    def _build_engine(self) -> RuleEngine:
        keywords = self.policy.keywords if self.policy.keyword_filtering else ()
        domains = self.policy.blocked_domains if self.policy.http_host_filtering else ()
        if not keywords and not domains:
            return RuleEngine(
                rules=[], variables=self._variables, stream_depth=self.stream_depth,
                overlap_policy=self.overlap_policy, obs_label="censor",
            )
        text = censor_ruleset_text(keywords, domains)
        return RuleEngine.from_text(
            text, variables=self._variables, stream_depth=self.stream_depth,
            overlap_policy=self.overlap_policy, obs_label="censor",
        )

    def set_policy(self, policy: CensorshipPolicy) -> None:
        """Swap policy (and rebuild signatures) — the evaluation's toggle."""
        super().set_policy(policy)
        self._engine = self._build_engine()

    # -- tap entry point -----------------------------------------------------------

    def process(self, packet: IPPacket, ctx: TapContext) -> Action:
        # 0. IP fragments: an off-path censor cannot hold fragments back,
        #    so they are forwarded — but a reassembling censor inspects the
        #    rebuilt packet as soon as the group completes and enforces on
        #    it (injections only; the fragments are already gone).
        if packet.frag_offset > 0 or packet.flags & 0x1:
            if self.policy.reassemble_fragments:
                rebuilt = self._fragments.feed(packet, ctx.now)
                if rebuilt is not None and rebuilt is not packet:
                    self._inspect_rebuilt(rebuilt, ctx)
            return Action.PASS

        # 1. Null-routing of blocked addresses.
        if self.policy.ip_blocking and packet.tcp is not None:
            if (packet.dst, packet.tcp.dport) in self.policy.rst_endpoints:
                if packet.tcp.is_syn:
                    self._forge_synack_refusal(packet, ctx)
                self._record(ctx.now, "ip", packet, f"reset endpoint {packet.dst}")
                return Action.DROP
            if self.policy.endpoint_is_blocked(packet.dst, packet.tcp.dport):
                self.ip_drops += 1
                self._record(ctx.now, "ip", packet, f"null-route {packet.dst}")
                return Action.DROP
        if self.policy.ip_blocking and packet.tcp is None:
            # UDP gets the same port-granular endpoint check as TCP: a
            # blocked resolver at (ip, 53) must not answer datagrams any
            # more than it accepts connections.
            if packet.udp is not None:
                if self.policy.endpoint_is_blocked(packet.dst, packet.udp.dport):
                    self.ip_drops += 1
                    self._record(ctx.now, "ip", packet, f"null-route {packet.dst}")
                    return Action.DROP
            elif packet.dst in self.policy.blocked_ips:
                self.ip_drops += 1
                self._record(ctx.now, "ip", packet, f"null-route {packet.dst}")
                return Action.DROP

        # 2. DNS poisoning (off-path: the query still passes; the forged
        #    answer wins the race because it is injected at the border).
        if self.policy.dns_poisoning and packet.udp is not None:
            if packet.udp.dport == DNS_PORT:
                self._maybe_poison(packet, ctx)

        # 3. Residual flow-kill from an earlier keyword reset.
        directed = flow_of(packet)
        if directed is not None and self._killed_flows:
            key = directed.canonical()
            expiry = self._killed_flows.get(key)
            if expiry is not None:
                if ctx.now < expiry:
                    self.residual_drops += 1
                    self._record(ctx.now, "residual", packet, "flow in penalty window")
                    if packet.tcp is not None:
                        self._inject_rsts(packet, ctx)
                    return Action.DROP
                del self._killed_flows[key]

        # 4. Signature matching on reassembled flows.
        for alert in self._engine.process(packet, ctx.now):
            if alert.action not in ("reject", "drop"):
                continue
            mechanism = "http_host" if "host" in alert.msg.lower() else "keyword"
            self._record(ctx.now, mechanism, packet, alert.msg)
            if alert.action == "drop":
                return Action.DROP
            if mechanism == "http_host" and self.policy.http_block_page:
                for injected in craft_block_page(packet):
                    ctx.inject(injected, tag=self.name)
                self.rst_injections += 1
            else:
                self._inject_rsts(packet, ctx)
            if directed is not None and self.policy.residual_block_seconds > 0:
                self._killed_flows[directed.canonical()] = (
                    ctx.now + self.policy.residual_block_seconds
                )
            break  # one enforcement per packet is enough
        return Action.PASS

    # -- helpers ----------------------------------------------------------------------

    def _inspect_rebuilt(self, packet: IPPacket, ctx: TapContext) -> None:
        """Signature-match a reassembled packet; inject on matches."""
        from ..packets import flow_of as _flow_of

        for alert in self._engine.process(packet, ctx.now):
            if alert.action not in ("reject", "drop"):
                continue
            mechanism = "http_host" if "host" in alert.msg.lower() else "keyword"
            self._record(ctx.now, mechanism, packet, alert.msg + " (reassembled)")
            if packet.tcp is not None:
                self._inject_rsts(packet, ctx)
            directed = _flow_of(packet)
            if directed is not None and self.policy.residual_block_seconds > 0:
                self._killed_flows[directed.canonical()] = (
                    ctx.now + self.policy.residual_block_seconds
                )
            break

    def _maybe_poison(self, packet: IPPacket, ctx: TapContext) -> None:
        try:
            query = DNSMessage.from_bytes(packet.udp.payload)
        except (ValueError, IndexError):
            return
        question = query.question
        if question is None or query.is_response:
            return
        # The measured GFC forges answers for A and MX lookups only
        # (paper Section 3.2.3); AAAA/TXT/NS queries pass unpoisoned.
        if question.qtype not in (QTYPE_A, QTYPE_MX):
            return
        if not self.policy.domain_is_blocked(question.name):
            return
        forged = craft_poisoned_response(packet, query, self.policy.poison_ip)
        ctx.inject(forged, tag=self.name)
        self.dns_injections += 1
        self._record(
            ctx.now, "dns", packet, f"poisoned {question.name} (qtype {question.qtype})"
        )

    def _forge_synack_refusal(self, packet: IPPacket, ctx: TapContext) -> None:
        """Answer a SYN to a reset-blocked endpoint with a forged RST/ACK."""
        from ..packets import ACK, RST, TCPSegment

        segment = packet.tcp
        refusal = IPPacket(
            src=packet.dst,
            dst=packet.src,
            payload=TCPSegment(
                sport=segment.dport,
                dport=segment.sport,
                seq=0,
                ack=segment.seq + 1,
                flags=RST | ACK,
            ),
        )
        ctx.inject(refusal, tag=self.name)
        self.rst_injections += 1

    def _inject_rsts(self, packet: IPPacket, ctx: TapContext) -> None:
        for injected in craft_rst_pair(packet):
            ctx.inject(injected, tag=self.name)
        self.rst_injections += 1

    # -- introspection -------------------------------------------------------------------

    def reset_counters(self) -> None:
        super().reset_counters()
        self.rst_injections = 0
        self.dns_injections = 0
        self.ip_drops = 0
        self.residual_drops = 0
        self._killed_flows.clear()
