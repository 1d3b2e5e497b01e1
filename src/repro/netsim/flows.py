"""Tiered-fidelity flow layer: aggregate flows that expand only at taps.

Population-scale background traffic cannot afford a packet event per hop
per user — but the paper's observables (rule hits, censor verdicts, MVR
retained bytes) are all measured *at taps*.  The fidelity boundary
exploits that: a flow whose routed path never crosses a tap advances as a
single flow-level event (link byte/packet accounting only), while a flow
that would be observed is expanded into byte-accurate packets before it
reaches the tap.  The contract that makes this safe:

* **Tier decision is deterministic and RNG-free.**  It depends only on
  the routed path and tap placement (``Network.path_crosses_tap``), so
  the flow schedule is identical across fidelity modes.
* **Templates plan exactly.**  ``AggregateFlow`` byte/packet totals are
  computed arithmetically by the traffic templates, and ``_expand``
  asserts that materialized wire bytes equal the plan — conservation is
  enforced at runtime, not just in tests.
* **Aggregate accounting preserves link invariants.**  Aggregate flows
  bump offered/carried/bytes equally (``Link.account_flow``), so
  ``DirectionStats.conserved`` holds trivially.  The accepted fidelity
  loss: aggregate flows bypass impairment pipelines — by definition they
  are unobserved, so their losses cannot change any tap observable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from ..obs.metrics import TallyFold, active_or_none

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .link import Link
    from .network import Network

__all__ = ["AggregateFlow", "FlowFidelityEngine", "FIDELITY_MODES"]

#: ``hybrid`` expands only tap-crossing flows (the point of this module);
#: ``full`` expands everything (the equivalence / fidelity baseline);
#: ``aggregate`` expands nothing (pure throughput ceiling, taps see nothing).
FIDELITY_MODES = ("hybrid", "full", "aggregate")


class AggregateFlow:
    """One background flow, planned at flow level.

    Byte/packet totals are *exact*: the template that created this flow
    guarantees that lazy materialization produces packets whose wire
    lengths sum to ``bytes_up + bytes_down`` — so the aggregate and
    expanded tiers account identical traffic onto the links they share.

    ``src_gateway``/``dst_gateway`` are node names: synthetic users are
    prefix-routed to gateway hosts rather than existing as ``Host``
    objects, which is what lets a population scale to millions.
    """

    __slots__ = (
        "flow_id",
        "kind",
        "src_ip",
        "dst_ip",
        "src_gateway",
        "dst_gateway",
        "duration",
        "packets_up",
        "bytes_up",
        "packets_down",
        "bytes_down",
        "template",
        "params",
    )

    def __init__(
        self,
        flow_id: int,
        kind: str,
        src_ip: str,
        dst_ip: str,
        src_gateway: str,
        dst_gateway: str,
        duration: float,
        packets_up: int,
        bytes_up: int,
        packets_down: int,
        bytes_down: int,
        template,
        params: Tuple = (),
    ) -> None:
        self.flow_id = flow_id
        self.kind = kind
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_gateway = src_gateway
        self.dst_gateway = dst_gateway
        self.duration = duration
        self.packets_up = packets_up
        self.bytes_up = bytes_up
        self.packets_down = packets_down
        self.bytes_down = bytes_down
        self.template = template
        self.params = params

    @property
    def bytes_total(self) -> int:
        return self.bytes_up + self.bytes_down

    @property
    def packets_total(self) -> int:
        return self.packets_up + self.packets_down

    def __repr__(self) -> str:
        return (
            f"AggregateFlow(#{self.flow_id} {self.kind} "
            f"{self.src_ip}->{self.dst_ip}, {self.bytes_total}B)"
        )


class FlowFidelityEngine:
    """Routes flows to the aggregate or packet tier and keeps the ledger.

    One engine per simulation; the population generator submits every
    flow here at its start time.  The tier decision consumes no RNG and
    reads only (gateway pair, tap placement), so switching ``mode`` never
    perturbs the flow schedule — the property the tap-equivalence suite
    is built on.
    """

    def __init__(self, network: "Network", mode: str = "hybrid") -> None:
        if mode not in FIDELITY_MODES:
            raise ValueError(
                f"fidelity mode must be one of {FIDELITY_MODES}, not {mode!r}"
            )
        self.network = network
        self.sim = network.sim
        self.mode = mode
        #: the ledger: (tier, kind) -> flows advanced
        self.flows: Dict[Tuple[str, str], int] = {}
        #: (tier, kind) -> wire bytes accounted
        self.bytes: Dict[Tuple[str, str], int] = {}
        #: (kind,) -> packets materialized
        self.packets: Dict[Tuple[str], int] = {}
        self._path_links: Dict[Tuple[str, str], List[Tuple["Link", str]]] = {}
        obs = active_or_none()
        if obs is not None:
            TallyFold(obs, (
                (obs.counter(
                    "population_flows_total",
                    "Background flows advanced, by fidelity tier and workload kind",
                    ("tier", "kind"),
                ), self.flows.items),
                (obs.counter(
                    "population_bytes_total",
                    "Background wire bytes accounted, by fidelity tier and kind",
                    ("tier", "kind"),
                ), self.bytes.items),
                (obs.counter(
                    "population_packets_materialized_total",
                    "Byte-accurate packets materialized for tap-crossing flows",
                    ("kind",),
                ), self.packets.items),
            ))

    # -- tier decision -------------------------------------------------------

    def tier_of(self, flow: AggregateFlow) -> str:
        """``"expanded"`` or ``"aggregate"`` for this flow under ``mode``."""
        if self.mode == "full":
            return "expanded"
        if self.mode == "aggregate":
            return "aggregate"
        if self.network.path_crosses_tap(flow.src_gateway, flow.dst_gateway):
            return "expanded"
        return "aggregate"

    def submit(self, flow: AggregateFlow) -> None:
        """Advance ``flow`` (starting now) at the appropriate fidelity."""
        if self.tier_of(flow) == "expanded":
            self._expand(flow)
        else:
            self._advance_aggregate(flow)

    # -- aggregate tier ------------------------------------------------------

    def _links_between(self, src_name: str, dst_name: str) -> List[Tuple["Link", str]]:
        key = (src_name, dst_name)
        cached = self._path_links.get(key)
        if cached is not None:
            return cached
        network = self.network
        names = network.path_nodes(src_name, dst_name)
        links: List[Tuple["Link", str]] = []
        for a, b in zip(names, names[1:]):
            link = network._find_link(a, b)
            links.append((link, link.direction_from(network.nodes[a])))
        self._path_links[key] = links
        return links

    def _advance_aggregate(self, flow: AggregateFlow) -> None:
        key = ("aggregate", flow.kind)
        self.flows[key] = self.flows.get(key, 0) + 1
        self.bytes[key] = self.bytes.get(key, 0) + flow.bytes_total
        links = self._links_between(flow.src_gateway, flow.dst_gateway)
        packets_up, bytes_up = flow.packets_up, flow.bytes_up
        packets_down, bytes_down = flow.packets_down, flow.bytes_down

        def complete() -> None:
            for link, forward in links:
                reverse = "ba" if forward == "ab" else "ab"
                if packets_up:
                    link.account_flow(packets_up, bytes_up, forward)
                if packets_down:
                    link.account_flow(packets_down, bytes_down, reverse)

        # One event per flow: all accounting lands when the flow completes.
        self.sim.at_uncancellable(max(flow.duration, 0.0), complete)

    # -- packet tier ---------------------------------------------------------

    def _expand(self, flow: AggregateFlow) -> None:
        network = self.network
        nodes = network.nodes
        emitted_bytes = 0
        emitted_packets = 0
        for offset, origin_name, packet in flow.template.materialize(flow):
            emitted_bytes += packet.wire_length()
            emitted_packets += 1
            network.originate(packet, nodes[origin_name], delay=offset)
        if emitted_bytes != flow.bytes_total or emitted_packets != flow.packets_total:
            raise AssertionError(
                f"flow plan/materialization mismatch for {flow!r}: planned "
                f"{flow.packets_total}p/{flow.bytes_total}B, materialized "
                f"{emitted_packets}p/{emitted_bytes}B"
            )
        key = ("expanded", flow.kind)
        self.flows[key] = self.flows.get(key, 0) + 1
        self.bytes[key] = self.bytes.get(key, 0) + emitted_bytes
        kind = (flow.kind,)
        self.packets[kind] = self.packets.get(kind, 0) + emitted_packets

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        def tier_total(tally: Dict[Tuple[str, str], int], tier: str) -> int:
            return sum(value for (of, _), value in tally.items() if of == tier)

        return {
            "flows_aggregate": tier_total(self.flows, "aggregate"),
            "flows_expanded": tier_total(self.flows, "expanded"),
            "bytes_aggregate": tier_total(self.bytes, "aggregate"),
            "bytes_materialized": tier_total(self.bytes, "expanded"),
            "packets_materialized": sum(self.packets.values()),
        }

    @property
    def bytes_total(self) -> int:
        """All background wire bytes accounted across both tiers."""
        return sum(self.bytes.values())
