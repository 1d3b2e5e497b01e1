"""A full population-traffic mix over the censored-AS topology.

Wires web, DNS, p2p, spam, and background-scanning workloads into one
object so evaluations can stand up a realistic population with one call.
The p2p share is deliberately large: Massive Volume Reduction achieves its
~30 % cut chiefly by discarding p2p (paper Section 2.1).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..netsim.dnssrv import DNSServer, Zone
from ..netsim.mailsrv import MailServer
from ..netsim.node import Host
from ..netsim.topology import CensoredASTopology
from ..netsim.websrv import WebServer
from .dnsload import DNSWorkload
from .p2p import P2PWorkload
from .scanners import BackgroundScanners
from .spammers import SpamWorkload
from .web import WebWorkload

__all__ = ["PopulationMix", "install_standard_servers"]

BACKGROUND_NAMES = [
    "example.org",
    "weather.gov",
    "news.example.net",
    "cdn.example.net",
    "mail.example.org",
]


def install_standard_servers(topo: CensoredASTopology) -> Dict[str, object]:
    """Install DNS/web/mail servers matching ``topo.domains``.

    Returns the created server objects keyed by role.  Safe to call once
    per topology.
    """
    zone = Zone()
    for domain, ip in topo.domains.items():
        zone.add_a(domain, ip)
        mail_ip = topo.blocked_mail.ip if ip == topo.blocked_web.ip else topo.control_mail.ip
        zone.add_mx(domain, f"mail.{domain}")
        zone.add_a(f"mail.{domain}", mail_ip)
    for name in BACKGROUND_NAMES:
        if not zone.knows(name):
            zone.add_a(name, topo.control_web.ip)
            zone.add_mx(name, f"mx.{name}")
            zone.add_a(f"mx.{name}", topo.control_mail.ip)

    from ..netsim.tlssrv import TLSServer

    servers = {
        "dns": DNSServer(topo.dns_server, zone),
        "blocked_web": WebServer(
            topo.blocked_web,
            default_body="<html><body>persecution of falun practitioners</body></html>",
        ),
        "control_web": WebServer(
            topo.control_web,
            default_body="<html><body>weather report: sunny</body></html>",
        ),
        "blocked_mail": MailServer(topo.blocked_mail),
        "control_mail": MailServer(topo.control_mail),
        "blocked_tls": TLSServer(topo.blocked_web),
        "control_tls": TLSServer(topo.control_web),
    }
    return servers


class PopulationMix:
    """All background workloads over a censored-AS topology."""

    def __init__(
        self,
        topo: CensoredASTopology,
        rng: Optional[random.Random] = None,
        web_interval: float = 0.5,
        dns_interval: float = 0.4,
        p2p_interval: float = 1.5,
        spam_interval: float = 4.0,
        scan_interval: float = 1.0,
        censored_fraction: float = 0.0157,
        p2p_chunk: int = 16384,
        outside_peer_count: int = 3,
        scanner_count: int = 3,
    ) -> None:
        self.topo = topo
        self.rng = rng if rng is not None else topo.sim.rng
        network = topo.network

        self.outside_peers: List[Host] = []
        for index in range(outside_peer_count):
            peer = network.add(Host(f"xpeer{index}", f"198.18.0.{10 + index}"))
            network.connect(peer, topo.transit_router)
            self.outside_peers.append(peer)

        self.scanners: List[Host] = []
        for index in range(scanner_count):
            scanner = network.add(Host(f"xscan{index}", f"198.18.1.{10 + index}"))
            network.connect(scanner, topo.transit_router)
            self.scanners.append(scanner)

        control_sites = [(topo.control_web.ip, "example.org"), (topo.control_web.ip, "weather.gov")]
        censored_sites = [(topo.blocked_web.ip, "twitter.com"), (topo.blocked_web.ip, "youtube.com")]

        self.web = WebWorkload(
            clients=topo.population,
            sites=control_sites,
            rng=self.rng,
            mean_interval=web_interval,
            censored_sites=censored_sites,
            censored_fraction=censored_fraction,
        )
        self.dns = DNSWorkload(
            clients=topo.population,
            resolver_ip=topo.dns_server.ip,
            names=BACKGROUND_NAMES + list(topo.domains),
            rng=self.rng,
            mean_interval=dns_interval,
        )
        self.p2p = P2PWorkload(
            inside_peers=topo.population,
            outside_peers=self.outside_peers,
            rng=self.rng,
            mean_interval=p2p_interval,
            chunk_size=p2p_chunk,
        )
        # Some population hosts are botnet-infected and send spam outbound
        # (crossing the border taps), alongside external bots.
        infected = list(topo.population[: max(1, len(topo.population) // 5)])
        self.spam = SpamWorkload(
            bots=infected + self.scanners,
            mail_servers=[
                (topo.control_mail.ip, "example.org"),
                (topo.blocked_mail.ip, "twitter.com"),
            ],
            rng=self.rng,
            mean_interval=spam_interval,
        )
        self.scan = BackgroundScanners(
            scanners=self.scanners,
            target_ips=[host.ip for host in topo.population],
            rng=self.rng,
            mean_interval=scan_interval,
        )
        self._workloads = [self.web, self.dns, self.p2p, self.spam, self.scan]

    def start(self, until: float) -> None:
        """Begin all workloads until simulated time ``until``."""
        for workload in self._workloads:
            workload.start(until)

    def stop(self) -> None:
        for workload in self._workloads:
            workload.stop()

    def stats(self) -> Dict[str, int]:
        return {
            "web_requests": self.web.requests_issued,
            "dns_queries": self.dns.queries_issued,
            "p2p_transfers": self.p2p.transfers_started,
            "spam_messages": self.spam.messages_attempted,
            "scan_probes": self.scan.probes_sent,
        }
