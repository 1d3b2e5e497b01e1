"""A client measurement platform (the OONI/Centinel role).

The paper assumes "a client-based measurement platform with the ability to
construct raw packets (e.g., OONI, Centinel)" (§1).  This module is that
platform: it runs a standard *deck* of tests — DNS consistency, HTTP
reachability, mail-path reachability, TCP reachability — choosing between
overt and stealthy implementations of each test according to a configured
risk posture, and assesses the measurer's risk after the deck.
``repro deck --json`` prints the deck's results as record rows (the
sweep's one result serialisation, :func:`repro.results.rows_from_point`).

Risk postures:

- ``overt`` — the traditional platform: direct queries, maximum clarity,
  fully attributable.
- ``stealthy`` — the paper's §3 techniques: malware-mimicking traffic the
  MVR discards.
- ``paranoid`` — §3 plus §4: stealthy techniques *and* spoofed cover
  crowds, for networks where even diluted attribution matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .ddos import DDoSMeasurement
from .evaluation import Environment
from .measurement import MeasurementTechnique
from .overt import OvertDNSMeasurement, OvertHTTPMeasurement
from .results import MeasurementResult
from .risk import RiskAssessment, assess_risk
from .scanning import ScanMeasurement, ScanTarget
from .spam import SpamMeasurement
from .spoofing_stateless import SpoofedSYNReachability, StatelessSpoofedDNSMeasurement

__all__ = ["DeckReport", "MeasurementPlatform", "RISK_POSTURES"]

RISK_POSTURES = ("overt", "stealthy", "paranoid")


@dataclass
class DeckReport:
    """Everything one deck run produced."""

    posture: str
    domains: List[str]
    results_by_test: Dict[str, List[MeasurementResult]]
    risk: Optional[RiskAssessment] = None

    def blocked_domains(self) -> List[str]:
        """Domains any test judged blocked."""
        blocked = set()
        for results in self.results_by_test.values():
            for result in results:
                if result.blocked:
                    for domain in self.domains:
                        if domain in result.target:
                            blocked.add(domain)
        return sorted(blocked)


class MeasurementPlatform:
    """Runs test decks from a vantage point at a chosen risk posture."""

    def __init__(
        self,
        env: Environment,
        posture: str = "stealthy",
        cover_size: int = 11,
    ) -> None:
        if posture not in RISK_POSTURES:
            raise ValueError(
                f"unknown posture {posture!r}; expected one of {RISK_POSTURES}"
            )
        self.env = env
        self.posture = posture
        self.cover_size = cover_size
        self._techniques: Dict[str, MeasurementTechnique] = {}

    # -- deck construction --------------------------------------------------------

    def _dns_test(self, domains: List[str]) -> MeasurementTechnique:
        if self.posture == "paranoid":
            return StatelessSpoofedDNSMeasurement(
                self.env.ctx, domains, self.env.cover_ips(self.cover_size)
            )
        if self.posture == "stealthy":
            # The spam method IS the stealthy DNS test (MX + A lookups).
            return SpamMeasurement(self.env.ctx, domains, deliver_message=True)
        return OvertDNSMeasurement(self.env.ctx, domains)

    def _http_test(self, domains: List[str]) -> MeasurementTechnique:
        if self.posture in ("stealthy", "paranoid"):
            return DDoSMeasurement(self.env.ctx, domains, requests_per_target=25)
        return OvertHTTPMeasurement(self.env.ctx, domains)

    def _tcp_test(self, domains: List[str]) -> MeasurementTechnique:
        targets = []
        for domain in domains:
            address = self.env.ctx.expected_addresses.get(domain)
            if address is not None:
                targets.append((address, 80, domain))
        if self.posture == "paranoid":
            return SpoofedSYNReachability(
                self.env.ctx,
                [(ip, port) for ip, port, _d in targets],
                self.env.cover_ips(self.cover_size),
            )
        return ScanMeasurement(
            self.env.ctx,
            [ScanTarget(ip, [port], label) for ip, port, label in targets],
            port_count=60 if self.posture != "overt" else 1,
        )

    # -- execution -------------------------------------------------------------------

    def run_deck(self, domains: List[str], duration: float = 120.0) -> DeckReport:
        """Run the full deck over ``domains`` and return the report."""
        self._techniques = {
            "dns_consistency": self._dns_test(domains),
            "http_reachability": self._http_test(domains),
            "tcp_reachability": self._tcp_test(domains),
        }
        for technique in self._techniques.values():
            technique.start()
        self.env.run(duration=duration)

        risk = assess_risk(
            self.env.surveillance,
            technique=f"deck[{self.posture}]",
            measurer_user=self.env.topo.measurement_client.user or "measurer",
            measurer_ip=self.env.topo.measurement_client.ip,
            now=self.env.sim.now,
        )
        return DeckReport(
            posture=self.posture,
            domains=list(domains),
            results_by_test={
                name: list(technique.results)
                for name, technique in self._techniques.items()
            },
            risk=risk,
        )
