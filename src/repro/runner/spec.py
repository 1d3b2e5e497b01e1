"""Declarative sweep specifications: a cartesian grid of scenario points.

A :class:`SweepSpec` names the axes the survey-scale experiments sweep —
seeds, loss models, retry policies, techniques, topologies — and expands
them into a deterministic, fully ordered list of :class:`SweepPoint`\\ s.
Every point carries a simulator seed derived from the spec's base seed
via :func:`~repro.netsim.impairment.mix_seed`, so the grid's randomness
is a pure function of the spec: the same spec always produces the same
points, no matter how many workers later execute them or in what order.

Specs load from JSON or TOML files (``repro sweep grid.json``) or build
programmatically; both paths go through the same validation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..censor import censor_families
from ..core.evaluation import DECK_TECHNIQUES, POPULATION_SIZE, TECHNIQUES
from ..core.measurement import RetryPolicy
from ..netsim.impairment import mix_seed

__all__ = [
    "E1_PACK",
    "E9_PACK",
    "SweepPoint",
    "SweepSpec",
    "TOPOLOGIES",
    "VANTAGES",
    "parse_retry_policy",
]

#: Topologies a sweep point can run in.  ``three-node`` is the minimal
#: client–middlebox–server path (scan-only, cheap — the false-block-curve
#: workload); ``censored-as`` is the full Figure-1 censored AS.
TOPOLOGIES = ("three-node", "censored-as")

#: Techniques the three-node topology supports (no censor, no population).
THREE_NODE_TECHNIQUES = ("scan",)

#: Vantage-axis values: ``censored`` runs the point inside the censored
#: AS with the censor enforcing, ``clean`` runs the same point with the
#: censor disabled — the simulated analogue of measuring from inside vs
#: outside the censored network.  A spec that lists both gets every
#: scenario measured from both vantages, which is what the
#: vantage-differential classifier in :mod:`repro.results` consumes.
VANTAGES = ("censored", "clean")

#: The paper's E1 accuracy/evasion matrix (Section 3.2, Figure 1) as a
#: scenario pack: each technique it evaluates, from both vantages of the
#: censored AS.  Build a spec with ``SweepSpec.from_mapping({**E1_PACK,
#: ...})``; ``repro matrix`` overrides ``base_seed``, ``duration`` and
#: ``cover``, the robustness claim ``seeds``.
E1_PACK: Mapping[str, object] = MappingProxyType({
    "name": "e1-matrix",
    "techniques": ["overt-http", "scan", "spam", "ddos", "spoofed-dns"],
    "topologies": ["censored-as"],
    "loss_rates": [0.0],
    "retry_policies": ["single-shot"],
    "vantages": ["censored", "clean"],
    "duration": 60.0,
    "cover": 8,
})

#: The paper's E9 risk comparison (Sections 3-4) as a scenario pack: every
#: technique at the censored vantage, scored by the risk columns of its
#: record rows.  Eleven covers put the spoofed suspect crowd at 12, above
#: the analyst's capacity of 10 investigations a day.
E9_PACK: Mapping[str, object] = MappingProxyType({
    "name": "e9-risk",
    "techniques": ["overt-http", "overt-dns", "scan", "spam", "ddos",
                   "spoofed-dns", "stateful"],
    "topologies": ["censored-as"],
    "loss_rates": [0.0],
    "retry_policies": ["single-shot"],
    "vantages": ["censored"],
    "duration": 120.0,
    "cover": 11,
})


def parse_retry_policy(name: str, timeout: float = 1.0) -> RetryPolicy:
    """Parse a retry-policy axis value into a :class:`RetryPolicy`.

    ``"single-shot"`` is the paper's one-probe behaviour; ``"retry-N"``
    probes up to N times with the default backoff.
    """
    if name == "single-shot":
        return RetryPolicy.single_shot(timeout=timeout)
    if name.startswith("retry-"):
        try:
            attempts = int(name[len("retry-"):])
        except ValueError:
            raise ValueError(f"bad retry policy {name!r}: retry-N needs an integer N")
        if attempts < 2:
            raise ValueError(f"bad retry policy {name!r}: retry-N needs N >= 2")
        return RetryPolicy(max_attempts=attempts, timeout=timeout)
    raise ValueError(
        f"unknown retry policy {name!r} (expected 'single-shot' or 'retry-N')"
    )


def _is(kind: type, value: object) -> bool:
    """Whether a JSON value is of ``kind``; ``float`` means any finite number."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        finite = isinstance(value, float) and math.isfinite(value)
        return finite or isinstance(value, int)
    return isinstance(value, kind)


#: kind -> (one such value, several), for error messages
_KINDS = {
    int: ("an integer", "integers"),
    float: ("a finite number", "finite numbers"),
    str: ("a string", "strings"),
    bool: ("true or false", "booleans"),
}

#: The JSON shape of every spec key: (kind, container), where the
#: container is None for one value, ``list`` for a list of values, or
#: ``dict`` for a map from grid index to value.  Checked before any value
#: is used, so a malformed key is a ``ValueError`` that names it.
_SHAPES = {
    "name": (str, None),
    "base_seed": (int, None),
    "seeds": (int, list),
    "techniques": (str, list),
    "topologies": (str, list),
    "loss_rates": (float, list),
    "retry_policies": (str, list),
    "vantages": (str, list),
    "censors": (str, list),
    "populations": (int, list),
    "burst": (float, None),
    "duration": (float, None),
    "port_count": (int, None),
    "censored": (bool, None),
    "cover": (int, None),
    "inject_failures": (str, dict),
    "inject_delays": (float, dict),
}


def _check_shape(key: str, value: object) -> None:
    kind, container = _SHAPES[key]
    if container is list:
        ok = isinstance(value, (list, tuple)) and all(_is(kind, v) for v in value)
        expected = f"a list of {_KINDS[kind][1]}"
    elif container is dict:
        # JSON object keys are strings: accept decimal ones as indexes.
        ok = isinstance(value, Mapping) and all(
            (_is(int, index) or (_is(str, index) and index.isdecimal()))
            and _is(kind, item)
            for index, item in value.items()
        )
        expected = f"a map from grid index to {_KINDS[kind][1]}"
    else:
        ok = _is(kind, value)
        expected = _KINDS[kind][0]
    if not ok:
        raise ValueError(f"{key} must be {expected} (got {value!r})")


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved scenario in a sweep grid.

    ``index`` is the point's position in the spec's canonical grid order
    and ``sim_seed`` its derived simulator seed — both are functions of
    the spec alone, which is what makes sharded execution reproducible.
    """

    index: int
    sim_seed: int
    seed: int  # the seed-axis value this point came from
    technique: str
    topology: str
    loss: float
    burst: float
    retry: str
    duration: float
    port_count: int
    censored: bool
    cover: int
    #: vantage-axis value ("censored" | "clean"), or "" for legacy specs
    #: that pin the condition with the ``censored`` flag alone
    vantage: str = ""
    #: censor-axis value (a registered censor-family name), or "" for
    #: legacy specs, which run the default "gfc" model
    censor: str = ""
    #: synthetic background-population size (tiered-fidelity users), or 0
    #: for no background population (the legacy grid)
    population: int = 0
    #: crash-injection hook for tests/CI: "" (none), "exception", "exit",
    #: or "unpicklable" (the record refuses to cross the pool boundary)
    fail: str = ""
    #: artificial wall-clock cost (seconds slept before the scenario) —
    #: the cost-skew hook the work-stealing starvation tests use.  It
    #: burns real time without touching the simulation, so a point's
    #: results are identical with or without it.
    delay: float = 0.0

    def retry_policy(self) -> RetryPolicy:
        return parse_retry_policy(self.retry)

    def censor_name(self) -> str:
        """The censor family this point runs against ("gfc" for legacy
        points with no censor-axis value)."""
        return self.censor or "gfc"

    def vantage_name(self) -> str:
        """The vantage this point measures from (``censored`` | ``clean``).

        Explicit vantage-axis values win; legacy points ("" vantage)
        derive it from the topology and the ``censored`` flag — a
        three-node path has no censor anywhere, so it is always clean.
        """
        if self.topology == "three-node":
            return "clean"
        if self.vantage:
            return self.vantage
        return "censored" if self.censored else "clean"

    def effective_censored(self) -> bool:
        """Whether the censor enforces for this point's run."""
        return self.topology == "censored-as" and self.vantage_name() == "censored"

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepPoint":
        return cls(**data)


@dataclass
class SweepSpec:
    """A cartesian grid of scenario parameters.

    Axes (each a sequence; the grid is their product, in this fixed
    order): ``seeds`` × ``techniques`` × ``topologies`` × ``loss_rates``
    × ``retry_policies``.  The remaining fields are per-point constants.
    """

    name: str = "sweep"
    base_seed: int = 0
    seeds: Tuple[int, ...] = (0,)
    techniques: Tuple[str, ...] = ("scan",)
    topologies: Tuple[str, ...] = ("three-node",)
    loss_rates: Tuple[float, ...] = (0.0,)
    retry_policies: Tuple[str, ...] = ("single-shot",)
    #: optional vantage axis ("censored" / "clean"); empty keeps the
    #: legacy single-condition grid controlled by the ``censored`` flag.
    #: When non-empty it is the fastest-varying axis and overrides
    #: ``censored`` per point — list both values to get every scenario
    #: measured from both vantages for differential classification.
    vantages: Tuple[str, ...] = ()
    #: optional censor axis (registered censor-family names, see
    #: :func:`repro.censor.censor_families`); empty keeps the legacy
    #: default-"gfc" grid.  When non-empty it is the fastest-varying
    #: axis (after ``vantages``) and each point runs against that
    #: family — the "which technique survives which censor" sweep.
    censors: Tuple[str, ...] = ()
    #: optional background-population axis (synthetic tiered-fidelity
    #: user counts; 0 = no population).  When non-empty it is the
    #: fastest-varying axis (after ``censors``); each point stands up
    #: that many simulated users of hybrid-fidelity cover traffic.
    #: Needs the censored-as topology (the population gateways attach to
    #: its switch/routers).
    populations: Tuple[int, ...] = ()
    #: Gilbert–Elliott mean burst length for lossy points.
    burst: float = 5.0
    #: simulated-seconds budget per point.
    duration: float = 120.0
    #: ports per scan target (three-node topology).
    port_count: int = 100
    #: censor on/off (censored-as topology).
    censored: bool = True
    #: spoofed-cover host count (censored-as techniques that use cover).
    cover: int = 8
    #: grid-index -> fail mode ("exception" | "exit" | "unpicklable"),
    #: for crash-isolation tests and the CI smoke job.
    inject_failures: Dict[int, str] = field(default_factory=dict)
    #: grid-index -> wall-clock seconds of artificial per-point cost, for
    #: the work-stealing starvation/skew tests (delays change wall time,
    #: never simulation outcomes).
    inject_delays: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in _SHAPES:
            _check_shape(key, getattr(self, key))
        self.seeds = tuple(self.seeds)
        self.techniques = tuple(self.techniques)
        self.topologies = tuple(self.topologies)
        self.loss_rates = tuple(self.loss_rates)
        self.retry_policies = tuple(self.retry_policies)
        self.vantages = tuple(self.vantages)
        self.censors = tuple(self.censors)
        self.populations = tuple(self.populations)
        self.inject_failures = {
            int(index): mode for index, mode in dict(self.inject_failures).items()
        }
        self.inject_delays = {
            int(index): float(delay)
            for index, delay in dict(self.inject_delays).items()
        }
        self._validate()

    def _validate(self) -> None:
        for axis_name in ("seeds", "techniques", "topologies", "loss_rates",
                          "retry_policies"):
            if not getattr(self, axis_name):
                raise ValueError(f"sweep axis {axis_name!r} must be non-empty")
        for technique in self.techniques:
            if technique not in TECHNIQUES and technique not in DECK_TECHNIQUES:
                raise ValueError(
                    f"techniques: unknown technique {technique!r} "
                    f"(choose from {TECHNIQUES + DECK_TECHNIQUES})"
                )
        for topology in self.topologies:
            if topology not in TOPOLOGIES:
                raise ValueError(
                    f"topologies: unknown topology {topology!r} "
                    f"(choose from {TOPOLOGIES})"
                )
        if "three-node" in self.topologies:
            unsupported = [t for t in self.techniques
                           if t not in THREE_NODE_TECHNIQUES]
            if unsupported:
                raise ValueError(
                    f"techniques: three-node topology only supports "
                    f"{THREE_NODE_TECHNIQUES}; got {unsupported} (use topology "
                    f"'censored-as' for these)"
                )
        for loss in self.loss_rates:
            if not 0.0 <= loss < 1.0:
                raise ValueError(f"loss_rates: loss rate {loss} outside [0, 1)")
        for policy in self.retry_policies:
            try:
                parse_retry_policy(policy)
            except ValueError as exc:
                raise ValueError(f"retry_policies: {exc}") from None
        for vantage in self.vantages:
            if vantage not in VANTAGES:
                raise ValueError(
                    f"vantages: unknown vantage {vantage!r} "
                    f"(choose from {VANTAGES})"
                )
        if "censored" in self.vantages and "three-node" in self.topologies:
            raise ValueError(
                "vantages: the 'censored' vantage needs the censored-as topology; "
                "three-node paths have no censor to enforce"
            )
        known_censors = censor_families()
        for censor in self.censors:
            if censor not in known_censors:
                raise ValueError(
                    f"censors: unknown censor family {censor!r} "
                    f"(choose from {known_censors})"
                )
        if self.censors and "three-node" in self.topologies:
            raise ValueError(
                "censors: the censors axis needs the censored-as topology; "
                "three-node paths have no censor tap to swap"
            )
        for count in self.populations:
            if count < 0:
                raise ValueError(
                    f"populations: population sizes must be >= 0 (got {count})"
                )
        if any(self.populations) and "three-node" in self.topologies:
            raise ValueError(
                "populations: the populations axis needs the censored-as topology; "
                "three-node paths have nowhere to attach the population gateways"
            )
        for mode in self.inject_failures.values():
            if mode not in ("exception", "exit", "unpicklable"):
                raise ValueError(f"inject_failures: unknown fail mode {mode!r}")
        for delay in self.inject_delays.values():
            if delay < 0:
                raise ValueError(f"inject_delays values must be >= 0 (got {delay})")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive (got {self.duration})")
        if self.port_count < 1:
            raise ValueError(f"port_count must be >= 1 (got {self.port_count})")
        if self.cover < 0:
            raise ValueError(f"cover must be >= 0 (got {self.cover})")
        if "censored-as" in self.topologies and self.cover > POPULATION_SIZE:
            raise ValueError(
                f"cover must be <= {POPULATION_SIZE}, the censored AS's "
                f"population hosts (got {self.cover})"
            )
        if self.burst < 1:
            raise ValueError(
                f"burst is a mean burst length in packets: must be >= 1 "
                f"(got {self.burst})"
            )

    def __len__(self) -> int:
        return (len(self.seeds) * len(self.techniques) * len(self.topologies)
                * len(self.loss_rates) * len(self.retry_policies)
                * max(1, len(self.vantages)) * max(1, len(self.censors))
                * max(1, len(self.populations)))

    def points(self) -> List[SweepPoint]:
        """Expand the grid into its canonical ordered point list.

        The order is the axes' cartesian product with ``seeds`` slowest
        and ``retry_policies`` fastest (``vantages``, when present, is
        faster still, ``censors`` faster than that, and ``populations``
        fastest of all); ``sim_seed`` mixes the base seed, the seed-axis
        value, and the grid index so every point gets an independent
        deterministic RNG stream.  An empty ``vantages`` (or ``censors``,
        or ``populations``) axis expands to a single legacy point per
        cell, so pre-existing specs keep their exact grid order and
        indexes.
        """
        out: List[SweepPoint] = []
        grid = itertools.product(
            self.seeds, self.techniques, self.topologies,
            self.loss_rates, self.retry_policies,
            self.vantages or ("",),
            self.censors or ("",),
            self.populations or (0,),
        )
        for index, (seed, technique, topology, loss, retry, vantage,
                    censor, population) in enumerate(grid):
            out.append(SweepPoint(
                index=index,
                sim_seed=mix_seed(self.base_seed, seed, index),
                seed=seed,
                technique=technique,
                topology=topology,
                loss=loss,
                burst=self.burst,
                retry=retry,
                vantage=vantage,
                censor=censor,
                population=population,
                duration=self.duration,
                port_count=self.port_count,
                censored=self.censored,
                cover=self.cover,
                fail=self.inject_failures.get(index, ""),
                delay=self.inject_delays.get(index, 0.0),
            ))
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form, embedded verbatim in sweep reports."""
        return {
            "name": self.name,
            "base_seed": self.base_seed,
            "seeds": list(self.seeds),
            "techniques": list(self.techniques),
            "topologies": list(self.topologies),
            "loss_rates": list(self.loss_rates),
            "retry_policies": list(self.retry_policies),
            "vantages": list(self.vantages),
            "censors": list(self.censors),
            "populations": list(self.populations),
            "burst": self.burst,
            "duration": self.duration,
            "port_count": self.port_count,
            "censored": self.censored,
            "cover": self.cover,
            "inject_failures": {
                str(index): mode
                for index, mode in sorted(self.inject_failures.items())
            },
            "inject_delays": {
                str(index): delay
                for index, delay in sorted(self.inject_delays.items())
            },
        }

    def content_hash(self) -> str:
        """A stable digest of the grid this spec denotes.

        Campaign journals are keyed by this hash: a checkpoint is only
        resumable against the *identical* spec, because point indexes
        (and derived seeds) are positions in this spec's grid — any edit
        renumbers the grid and silently mis-attributes journaled
        records.  Hashing the canonical JSON of :meth:`as_dict` makes
        the digest independent of how the spec was loaded (JSON, TOML,
        constructed in code) and of dict ordering.
        """
        canonical = json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Build a spec from parsed JSON/TOML; a malformed key raises
        ``ValueError`` naming it."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a sweep spec must be a mapping of keys to values "
                f"(got {type(data).__name__})"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def load(cls, path: str) -> "SweepSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError as exc:  # pragma: no cover - py<3.11
                raise RuntimeError(
                    "TOML specs need Python 3.11+ (tomllib); use JSON instead"
                ) from exc
            with open(path, "rb") as fh:
                data = tomllib.load(fh)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        return cls.from_mapping(data)
