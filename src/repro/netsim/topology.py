"""Reference topologies.

``build_three_node`` reproduces the paper's controlled environment
(Figure 1): a client, a software switch carrying two IDS taps (one censor,
one surveillance MVR), and a server.

``build_censored_as`` is the country-scale analogue used for the Section 4
spoofing experiments and the vantage-point studies: a censored AS holding a
population of hosts plus one measurement client, a border router where the
censor and the surveillance tap sit, and external DNS/web/mail/measurement
servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .engine import Simulator
from .network import Network
from .node import Host, Router, Switch

__all__ = [
    "ThreeNodeTopology",
    "CensoredASTopology",
    "build_three_node",
    "build_censored_as",
    "CLIENT_AS_CIDR",
]

CLIENT_AS_CIDR = "10.1.0.0/16"


@dataclass
class ThreeNodeTopology:
    """The paper's Figure 1 environment."""

    sim: Simulator
    network: Network
    client: Host
    server: Host
    switch: Switch

    def run(self, duration: Optional[float] = None) -> int:
        """Convenience: drain the event queue (optionally time-bounded)."""
        if duration is None:
            return self.sim.run()
        return self.sim.run_for(duration)


def build_three_node(seed: int = 0, latency: float = 0.005) -> ThreeNodeTopology:
    """Client — switch — server, with the switch ready to carry taps."""
    sim = Simulator(seed=seed)
    network = Network(sim, default_latency=latency)
    client = network.add(Host("client", "10.0.0.1"))
    server = network.add(Host("server", "192.0.2.10"))
    switch = network.add(Switch("s1"))
    network.connect(client, switch)
    network.connect(switch, server)
    return ThreeNodeTopology(sim=sim, network=network, client=client, server=server, switch=switch)


@dataclass
class CensoredASTopology:
    """A censored client AS plus the external internet.

    Packet path from a client host:
    host — access switch — internal router — border router (censor tap +
    surveillance tap) — transit router — external server.

    TTLs decrement at the three routers, so a server reply with
    ``ttl = 2`` entering at the transit router crosses the border (and its
    taps) and dies at the internal router — the paper's TTL-limiting trick.
    """

    sim: Simulator
    network: Network
    measurement_client: Host
    population: List[Host]
    access_switch: Switch
    internal_router: Router
    border_router: Router
    transit_router: Router
    dns_server: Host
    blocked_web: Host
    control_web: Host
    blocked_mail: Host
    control_mail: Host
    measurement_server: Host
    domains: Dict[str, str] = field(default_factory=dict)

    @property
    def all_clients(self) -> List[Host]:
        return [self.measurement_client] + self.population

    def run(self, duration: Optional[float] = None) -> int:
        if duration is None:
            return self.sim.run()
        return self.sim.run_for(duration)

    def reply_ttl_dying_inside(self) -> int:
        """A TTL that crosses the border taps but expires before clients.

        Counted from the measurement server: transit router (−1), border
        router (−1) — still alive at the border taps — then the internal
        router decrements to 0 and drops.
        """
        return 3


def build_censored_as(
    seed: int = 0,
    population_size: int = 20,
    sav_filter=None,
    latency: float = 0.002,
    spoof_scope: Optional[int] = 24,
) -> CensoredASTopology:
    """Build the censored-AS topology.

    ``sav_filter`` (a :class:`repro.spoofing.sav.SAVFilter` or None) is
    installed at the border router.  ``spoof_scope`` is recorded on each
    population host for the Beverly-style feasibility model.
    """
    sim = Simulator(seed=seed)
    network = Network(sim, default_latency=latency)

    access = network.add(Switch("access"))
    internal = network.add(Router("internal"))
    border = network.add(Router("border", sav=sav_filter))
    transit = network.add(Router("transit"))
    network.connect(access, internal)
    network.connect(internal, border)
    network.connect(border, transit, latency=latency * 5)  # international hop

    measurement_client = network.add(
        Host("mclient", "10.1.0.100", spoof_scope=spoof_scope)
    )
    measurement_client.user = "measurer"
    network.connect(measurement_client, access)

    population: List[Host] = []
    for index in range(population_size):
        host = network.add(
            Host(f"pop{index}", f"10.1.{1 + index // 250}.{1 + index % 250}",
                 spoof_scope=spoof_scope)
        )
        host.user = f"user{index}"
        network.connect(host, access)
        population.append(host)

    dns_server = network.add(Host("dns", "8.8.8.8"))
    blocked_web = network.add(Host("blockedweb", "203.0.113.10"))
    control_web = network.add(Host("controlweb", "203.0.113.20"))
    blocked_mail = network.add(Host("blockedmail", "203.0.113.11"))
    control_mail = network.add(Host("controlmail", "203.0.113.21"))
    measurement_server = network.add(Host("mserver", "198.51.100.50"))
    for server in (dns_server, blocked_web, control_web, blocked_mail, control_mail, measurement_server):
        network.connect(server, transit)

    # Keep the name universe aligned with the stock censor blocklist so the
    # same zone serves both blocked and control lookups.
    from ..rules.rulesets import BLOCKED_DOMAINS

    domains = {domain: blocked_web.ip for domain in BLOCKED_DOMAINS}
    domains.update(
        {
            "example.org": control_web.ip,
            "weather.gov": control_web.ip,
            "wikipedia.org": control_web.ip,
            "archive.org": control_web.ip,
        }
    )

    return CensoredASTopology(
        sim=sim,
        network=network,
        measurement_client=measurement_client,
        population=population,
        access_switch=access,
        internal_router=internal,
        border_router=border,
        transit_router=transit,
        dns_server=dns_server,
        blocked_web=blocked_web,
        control_web=control_web,
        blocked_mail=blocked_mail,
        control_mail=control_mail,
        measurement_server=measurement_server,
        domains=domains,
    )
