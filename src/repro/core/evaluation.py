"""The controlled evaluation environment (paper Section 3.2, Figure 1).

Builds a complete environment — censored AS, censor tap, surveillance tap,
servers — and names the techniques that run in it.  The paper's two
criteria, **accuracy** (detect blocking exactly when the censor enforces
it) and **evasion** (the MVR attributes no alert to the measurer), are
scored from record rows by :class:`~repro.results.RecordAnalysis`; the E1
matrix is the :data:`repro.runner.E1_PACK` scenario pack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..censor import CensorModel, CensorshipPolicy, build_censor
from ..netsim.topology import CensoredASTopology, build_censored_as
from ..surveillance import AttributionEngine, SurveillanceSystem
from ..traffic.mix import PopulationMix, install_standard_servers
from .measurement import MeasurementContext, MeasurementTechnique
from .spoofing_stateful import MimicryServer

__all__ = [
    "Environment",
    "build_environment",
    "technique_factory",
    "TECHNIQUES",
    "DECK_TECHNIQUES",
    "POPULATION_SIZE",
    "BLOCKED_TARGETS",
    "CONTROL_TARGETS",
]

#: A short target split for tests and examples that probe a few names.
BLOCKED_TARGETS = ["twitter.com", "youtube.com"]
CONTROL_TARGETS = ["example.org", "weather.gov"]

#: Full lists for campaign-scale experiments (volume thresholds matter).
from ..rules.rulesets import BLOCKED_DOMAINS as BLOCKED_TARGETS_FULL  # noqa: E402

CONTROL_TARGETS_FULL = ["example.org", "weather.gov", "wikipedia.org", "archive.org"]

#: Population hosts :func:`build_environment` puts in the censored AS by
#: default: the most spoofed cover a technique can draw on.
POPULATION_SIZE = 20


@dataclass
class Environment:
    """A fully wired evaluation environment."""

    topo: CensoredASTopology
    censor: CensorModel
    surveillance: SurveillanceSystem
    servers: Dict[str, object]
    ctx: MeasurementContext
    mimicry_server: MimicryServer
    population_mix: Optional[PopulationMix] = None
    #: The in-AS caching resolver, when built with ``resolver_in_as=True``.
    local_resolver: Optional[object] = None
    #: Tiered-fidelity synthetic population (``synthetic_users > 0``).
    #: Built but not started — the caller owns the generation window.
    population: Optional[object] = None

    @property
    def sim(self):
        return self.topo.sim

    def run(self, duration: Optional[float] = None) -> int:
        return self.topo.run(duration)

    def cover_ips(self, count: Optional[int] = None) -> List[str]:
        """Addresses of population hosts usable as spoofed cover.

        Raises ``ValueError`` when ``count`` exceeds the population: a
        short crowd would change the technique's attribution odds
        silently.
        """
        hosts = self.topo.population
        if count is not None:
            if count > len(hosts):
                raise ValueError(
                    f"cover {count} exceeds the {len(hosts)} population hosts"
                )
            hosts = hosts[:count]
        return [host.ip for host in hosts]


def build_environment(
    censored: bool = True,
    seed: int = 0,
    population_size: int = POPULATION_SIZE,
    with_population_traffic: bool = False,
    population_duration: float = 30.0,
    policy: Optional[CensorshipPolicy] = None,
    sav_filter=None,
    resolver_in_as: bool = False,
    censor: str = "gfc",
    censor_params: Optional[Dict[str, object]] = None,
    synthetic_users: int = 0,
    fidelity: str = "hybrid",
) -> Environment:
    """Stand up the full reference environment.

    ``censored`` toggles the censor policy (the evaluation's control knob);
    an explicit ``policy`` overrides the toggle.  ``censor`` names the
    censor-model family to attach (see
    :func:`repro.censor.build_censor`; ``censor_params`` go to its
    constructor) — a disabled policy makes every family inert, so the
    clean condition is family-independent by contract.  ``resolver_in_as``
    interposes a caching recursive resolver inside the AS (the common ISP
    deployment): client DNS then never crosses the border, and poisoned
    upstream answers are cached for everyone.
    """
    topo = build_censored_as(seed=seed, population_size=population_size, sav_filter=sav_filter)
    if policy is None:
        policy = CensorshipPolicy() if censored else CensorshipPolicy.disabled()
    censor_tap = build_censor(censor, policy=policy, **(censor_params or {}))
    surveillance = SurveillanceSystem(
        attribution=AttributionEngine.from_network(topo.network)
    )
    # Tap order matches Figure 1: both IDS instances on the same box; the
    # MVR is attached first so it observes traffic even when the censor
    # subsequently drops it.
    topo.border_router.add_tap(surveillance)
    topo.border_router.add_tap(censor_tap)

    servers = install_standard_servers(topo)
    mimicry_server = MimicryServer(
        topo.measurement_server,
        port=80,
        reply_ttl=topo.reply_ttl_dying_inside(),
    )

    resolver_ip = topo.dns_server.ip
    local_resolver = None
    if resolver_in_as:
        from ..netsim.node import Host
        from ..netsim.resolver import CachingResolver

        resolver_host = topo.network.add(Host("asresolver", "10.1.250.53"))
        topo.network.connect(resolver_host, topo.internal_router)
        local_resolver = CachingResolver(resolver_host, upstream_ip=topo.dns_server.ip)
        resolver_ip = resolver_host.ip

    ctx = MeasurementContext(
        client=topo.measurement_client,
        resolver_ip=resolver_ip,
        expected_addresses=dict(topo.domains),
    )

    mix = None
    if with_population_traffic:
        mix = PopulationMix(topo)
        mix.start(until=population_duration)

    # The tiered-fidelity population attaches after the taps, so its
    # tap-reachability analysis sees the final middlebox placement.  It is
    # built but not started: callers own the generation window (the sweep
    # worker aligns it with the point's run duration).
    population = None
    if synthetic_users:
        from ..traffic.population import PopulationTraffic

        population = PopulationTraffic(topo, users=synthetic_users, fidelity=fidelity)

    return Environment(
        topo=topo,
        censor=censor_tap,
        surveillance=surveillance,
        servers=servers,
        ctx=ctx,
        mimicry_server=mimicry_server,
        population_mix=mix,
        local_resolver=local_resolver,
        population=population,
    )


TechniqueFactory = Callable[[Environment], MeasurementTechnique]

#: Technique names accepted by :func:`technique_factory` (and the CLI).
TECHNIQUES = (
    "overt-http",
    "overt-dns",
    "scan",
    "spam",
    "ddos",
    "spoofed-dns",
    "stateful",
)

#: The measurement platform's decks, one per risk posture
#: (:mod:`repro.core.platform`); accepted by :func:`technique_factory`
#: and sweep specs alongside :data:`TECHNIQUES`.
DECK_TECHNIQUES = ("deck-overt", "deck-stealthy", "deck-paranoid")


def technique_factory(name: str, cover: int = 8) -> TechniqueFactory:
    """Build the ``factory(env) -> technique`` for a named technique.

    The sweep worker builds every point's technique here, and the CLI
    runs its techniques as one-point sweeps, so all agree on what each
    technique name means.  ``cover`` is the number of
    population hosts used as spoofed cover where applicable.
    """
    from .ddos import DDoSMeasurement
    from .overt import OvertDNSMeasurement, OvertHTTPMeasurement
    from .scanning import ScanMeasurement, ScanTarget
    from .spam import SpamMeasurement
    from .spoofing_stateful import StatefulMimicryMeasurement
    from .spoofing_stateless import StatelessSpoofedDNSMeasurement

    full = list(BLOCKED_TARGETS_FULL) + CONTROL_TARGETS_FULL

    if name == "overt-http":
        return lambda env: OvertHTTPMeasurement(env.ctx, full)
    if name == "overt-dns":
        return lambda env: OvertDNSMeasurement(env.ctx, full)
    if name == "spam":
        return lambda env: SpamMeasurement(env.ctx, full)
    if name == "ddos":
        return lambda env: DDoSMeasurement(env.ctx, full[:4], requests_per_target=25)
    if name == "spoofed-dns":
        return lambda env: StatelessSpoofedDNSMeasurement(
            env.ctx, full, env.cover_ips(cover)
        )
    if name == "stateful":
        payloads = [b"GET /falun HTTP/1.1\r\nHost: probe\r\n\r\n"]
        return lambda env: StatefulMimicryMeasurement(
            env.ctx, env.mimicry_server, payloads, env.cover_ips(cover)
        )
    if name == "scan":
        def factory(env: Environment) -> MeasurementTechnique:
            env.censor.policy.blocked_ips.add(env.topo.blocked_web.ip)
            return ScanMeasurement(
                env.ctx,
                [ScanTarget(env.topo.blocked_web.ip, [80], "blocked-service"),
                 ScanTarget(env.topo.control_web.ip, [80], "control-service")],
                port_count=80,
            )
        return factory
    if name in DECK_TECHNIQUES:
        from .platform import DeckMeasurement

        posture = name[len("deck-"):]
        return lambda env: DeckMeasurement(env, posture, cover)
    raise ValueError(f"unknown technique: {name}")

