"""The controlled evaluation harness (paper Section 3.2, Figure 1).

Builds a complete environment — censored AS, censor tap, surveillance tap,
servers — runs a technique with the censor on and off, and scores the two
criteria the paper defines:

- **accuracy**: the measurement detects blocking exactly when the censor
  enforces it (controlled by the policy toggle);
- **evasion**: the surveillance MVR retains no user-attributed alert for
  the measurer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..censor import CensorModel, CensorshipPolicy, build_censor
from ..netsim.topology import CensoredASTopology, build_censored_as
from ..surveillance import AttributionEngine, SurveillanceSystem
from ..traffic.mix import PopulationMix, install_standard_servers
from .measurement import MeasurementContext, MeasurementTechnique
from .results import MeasurementResult, Verdict
from .risk import RiskAssessment, assess_risk
from .spoofing_stateful import MimicryServer

__all__ = [
    "Environment",
    "build_environment",
    "RunRecord",
    "EvaluationOutcome",
    "evaluate_technique",
    "technique_factory",
    "TECHNIQUES",
    "BLOCKED_TARGETS",
    "CONTROL_TARGETS",
]

#: Default target split used throughout the benchmarks.
BLOCKED_TARGETS = ["twitter.com", "youtube.com"]
CONTROL_TARGETS = ["example.org", "weather.gov"]

#: Full lists for campaign-scale experiments (volume thresholds matter).
from ..rules.rulesets import BLOCKED_DOMAINS as BLOCKED_TARGETS_FULL  # noqa: E402

CONTROL_TARGETS_FULL = ["example.org", "weather.gov", "wikipedia.org", "archive.org"]


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
        """Addresses of population hosts usable as spoofed cover."""
        hosts = self.topo.population if count is None else self.topo.population[:count]
        return [host.ip for host in hosts]


def build_environment(
    censored: bool = True,
    seed: int = 0,
    population_size: int = 20,
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


@dataclass
class RunRecord:
    """One technique execution in one environment condition."""

    censored: bool
    results: List[MeasurementResult]
    risk: RiskAssessment
    censor_events: int

    def verdict_for(self, target_substring: str) -> Optional[Verdict]:
        for result in self.results:
            if target_substring in result.target:
                return result.verdict
        return None


@dataclass
class EvaluationOutcome:
    """Accuracy and evasion scores for one technique (the E1 matrix row)."""

    technique: str
    censored_run: RunRecord
    control_run: RunRecord
    blocked_targets: List[str]
    control_targets: List[str]

    @property
    def accuracy(self) -> float:
        """Fraction of (target, condition) cells judged correctly."""
        correct = 0
        total = 0
        for target in self.blocked_targets:
            verdict = self.censored_run.verdict_for(target)
            total += 1
            correct += int(verdict is not None and verdict.indicates_blocking)
        for target in self.control_targets:
            verdict = self.censored_run.verdict_for(target)
            total += 1
            correct += int(verdict is Verdict.ACCESSIBLE)
        for target in self.blocked_targets + self.control_targets:
            verdict = self.control_run.verdict_for(target)
            total += 1
            correct += int(verdict is Verdict.ACCESSIBLE)
        return correct / total if total else 0.0

    @property
    def detects_censorship(self) -> bool:
        return all(
            (v := self.censored_run.verdict_for(t)) is not None and v.indicates_blocking
            for t in self.blocked_targets
        )

    @property
    def no_false_positives(self) -> bool:
        return all(
            self.control_run.verdict_for(t) is Verdict.ACCESSIBLE
            for t in self.blocked_targets + self.control_targets
        )

    @property
    def evades_surveillance(self) -> bool:
        """Evasion in both conditions (the MVR never attributes the user)."""
        return self.censored_run.risk.evaded and self.control_run.risk.evaded

    @property
    def successful(self) -> bool:
        """The paper's success criterion: accurate and evasive."""
        return self.detects_censorship and self.no_false_positives and self.evades_surveillance


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


def technique_factory(name: str, cover: int = 8) -> TechniqueFactory:
    """Build the ``factory(env) -> technique`` for a named technique.

    Shared by the CLI subcommands and the sweep runner so the two agree
    on what each technique name means.  ``cover`` is the number of
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
    raise ValueError(f"unknown technique: {name}")


def _execute(
    factory: TechniqueFactory,
    censored: bool,
    seed: int,
    run_duration: float,
) -> RunRecord:
    env = build_environment(censored=censored, seed=seed)
    technique = factory(env)
    technique.start()
    env.run(duration=run_duration)
    risk = assess_risk(
        env.surveillance,
        technique=technique.name,
        measurer_user=env.topo.measurement_client.user or "measurer",
        measurer_ip=env.topo.measurement_client.ip,
        now=env.sim.now,
    )
    return RunRecord(
        censored=censored,
        results=list(technique.results),
        risk=risk,
        censor_events=len(env.censor.events),
    )


def evaluate_technique(
    factory: TechniqueFactory,
    technique_name: str,
    blocked_targets: Optional[List[str]] = None,
    control_targets: Optional[List[str]] = None,
    seed: int = 0,
    run_duration: float = 60.0,
) -> EvaluationOutcome:
    """Run ``factory``'s technique censor-on and censor-off and score it."""
    censored_run = _execute(factory, True, seed, run_duration)
    control_run = _execute(factory, False, seed, run_duration)
    return EvaluationOutcome(
        technique=technique_name,
        censored_run=censored_run,
        control_run=control_run,
        blocked_targets=list(blocked_targets or BLOCKED_TARGETS),
        control_targets=list(control_targets or CONTROL_TARGETS),
    )
