"""A client measurement platform (the OONI/Centinel role).

The paper assumes "a client-based measurement platform with the ability to
construct raw packets (e.g., OONI, Centinel)" (§1).  This module is that
platform: it runs a standard *deck* of tests — DNS consistency, HTTP
reachability, mail-path reachability, TCP reachability — choosing between
overt and stealthy implementations of each test according to a configured
risk posture.  A deck is one more technique: ``deck-POSTURE`` (see
:data:`repro.core.evaluation.DECK_TECHNIQUES`) runs as one sweep point,
whose record rows and risk columns are the deck's result.
``repro deck --json`` prints those rows.

Risk postures:

- ``overt`` — the traditional platform: direct queries, maximum clarity,
  fully attributable.
- ``stealthy`` — the paper's §3 techniques: malware-mimicking traffic the
  MVR discards.
- ``paranoid`` — §3 plus §4: stealthy techniques *and* spoofed cover
  crowds, for networks where even diluted attribution matters.
"""

from __future__ import annotations

from typing import List

from ..rules.rulesets import BLOCKED_DOMAINS
from .ddos import DDoSMeasurement
from .measurement import MeasurementTechnique
from .overt import OvertDNSMeasurement, OvertHTTPMeasurement
from .scanning import ScanMeasurement, ScanTarget
from .spam import SpamMeasurement
from .spoofing_stateless import SpoofedSYNReachability, StatelessSpoofedDNSMeasurement

__all__ = ["DECK_TARGETS", "DeckMeasurement"]

#: What every deck measures: five blocked names and two controls.
DECK_TARGETS = (*BLOCKED_DOMAINS[:5], "example.org", "weather.gov")


def _scan(env, port_count: int) -> ScanMeasurement:
    addresses = env.ctx.expected_addresses
    return ScanMeasurement(
        env.ctx,
        [ScanTarget(addresses[domain], [80], domain) for domain in DECK_TARGETS],
        port_count=port_count,
    )


def _overt(env, cover: int) -> List[MeasurementTechnique]:
    return [
        OvertDNSMeasurement(env.ctx, DECK_TARGETS),
        OvertHTTPMeasurement(env.ctx, DECK_TARGETS),
        _scan(env, port_count=1),
    ]


def _stealthy(env, cover: int) -> List[MeasurementTechnique]:
    # The spam method IS the stealthy DNS test (MX + A lookups).
    return [
        SpamMeasurement(env.ctx, DECK_TARGETS, deliver_message=True),
        DDoSMeasurement(env.ctx, DECK_TARGETS, requests_per_target=25),
        _scan(env, port_count=60),
    ]


def _paranoid(env, cover: int) -> List[MeasurementTechnique]:
    return [
        StatelessSpoofedDNSMeasurement(env.ctx, DECK_TARGETS, env.cover_ips(cover)),
        DDoSMeasurement(env.ctx, DECK_TARGETS, requests_per_target=25),
        SpoofedSYNReachability(
            env.ctx,
            [(env.ctx.expected_addresses[domain], 80) for domain in DECK_TARGETS],
            env.cover_ips(cover),
        ),
    ]


#: Posture -> its (DNS, HTTP, TCP) tests.
_POSTURES = {"overt": _overt, "stealthy": _stealthy, "paranoid": _paranoid}


class DeckMeasurement(MeasurementTechnique):
    """The three tests of one posture, run as one technique."""

    def __init__(self, env, posture: str, cover: int) -> None:
        super().__init__(env.ctx)
        self.name = f"deck-{posture}"
        self.stealthy = posture != "overt"
        self.parts = _POSTURES[posture](env, cover)
        for part in self.parts:
            part.on_result(self.results.append)

    def start(self) -> None:
        for part in self.parts:
            part.start()

    @property
    def done(self) -> bool:
        return all(part.done for part in self.parts)
