"""Layer spans for the end-to-end benchmark, recorded from outside the program.

The benchmark does not instrument ``src/``.  :func:`install` replaces each
layer's public entry point with a timing wrapper *where the caller looks
the name up* — a module attribute such as
``repro.runner.worker.build_environment`` or a class attribute such as
``Link.transmit`` — and :func:`install`'s return value puts the originals
back.  A wrapper pushes a frame on one in-memory stack, so each span knows
its parent; when it ends it adds its duration to the parent's child time.
Per name the tracer keeps calls, total time and self time (duration minus
the time child spans cover).  Self times therefore partition the root
spans exactly: summed over every name they equal the traced wall time.

Spans that belong to one request (a sweep point, a replay round) are also
kept individually with their request id and written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install", "layer_metrics", "PER_LAYER", "LAYERS"]


def _point_index(args, kwargs) -> int:
    """Request id of a ``run_shard`` call: the grid index of its point."""
    return args[0][0]["index"]


def _batch_level(args, kwargs) -> int:
    """Request id of a once-per-batch call (record sink, report step)."""
    return -1


#: (module, attribute path, span name[, request id of one call]).
#: Every name is patched in the module or class the caller resolves it
#: through at call time, so the program itself is untouched.
SPANS: Tuple[tuple, ...] = (
    ("repro.runner.runner", "SweepRunner.run", "runner.run"),
    ("repro.runner.runner", "run_shard", "runner.point", _point_index),
    ("repro.runner.runner", "write_records", "results.write_records", _batch_level),
    ("repro.runner.runner", "run_report", "obs.report"),
    ("repro.runner.worker", "run_point", "core.run_point"),
    ("repro.runner.worker", "build_environment", "core.build_environment"),
    ("repro.runner.worker", "build_three_node", "core.build_environment"),
    ("repro.runner.worker", "assess_risk", "core.assess_risk"),
    ("repro.runner.worker", "rows_from_point", "results.rows_from_point"),
    ("repro.runner.worker", "run_report", "obs.report"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs.snapshot"),
    ("repro.obs.metrics", "MetricsRegistry.merge", "obs.merge"),
    ("repro.netsim.engine", "Simulator.run", "netsim.engine"),
    ("repro.netsim.link", "Link.transmit", "netsim.link.transmit"),
    ("repro.netsim.impairment", "ImpairedPath.traverse", "netsim.impairment.traverse"),
    ("repro.netsim.stack", "NetworkStack.handle", "netsim.stack.handle"),
    ("repro.netsim.flows", "FlowFidelityEngine.submit", "netsim.flows.submit"),
    ("repro.traffic.population", "PopulationTraffic.__init__", "traffic.population"),
    ("repro.traffic.population", "PopulationTraffic.start", "traffic.population"),
    ("repro.traffic.population", "PopulationTraffic._submit", "traffic.population"),
    ("repro.rules.engine", "RuleEngine.from_text", "rules.construct"),
    ("repro.rules.engine", "RuleEngine.__init__", "rules.construct"),
    ("repro.rules.engine", "RuleEngine.process", "rules.process"),
    ("repro.rules.engine", "RuleEngine.process_batch", "rules.process"),
    ("repro.surveillance.system", "SurveillanceSystem.process", "surveillance.process"),
    ("repro.surveillance.system", "SurveillanceSystem.flush", "surveillance.flush"),
    ("repro.results.record", "write_records", "results.write_records", _batch_level),
    ("repro.results.analyze", "analyze_records", "results.analyze", _batch_level),
)

#: The simulator hands packets from hop to hop as objects, so an
#: ``IPPacket.from_bytes`` happens only in fragment reassembly; the
#: decode span covers every packet-layer parser (DNS, HTTP, SMTP, TLS and
#: the transports) so that the codec's parsing shows up at all.
PACKET_CLASSES = (
    "DNSMessage", "HTTPRequest", "HTTPResponse", "ICMPMessage", "IPPacket",
    "SMTPCommand", "SMTPReply", "EmailMessage", "TCPSegment", "ClientHello",
    "ServerHello", "UDPDatagram",
)

#: span name -> layer; a layer's self time is the sum over its spans.
LAYER_OF: Dict[str, str] = {
    "runner.run": "runner",
    "runner.point": "runner",
    "core.run_point": "core",
    "core.build_environment": "core",
    "core.assess_risk": "core",
    "netsim.engine": "netsim.engine",
    "netsim.link.transmit": "netsim.link",
    "netsim.impairment.traverse": "netsim.impairment",
    "netsim.stack.handle": "netsim.stack",
    "netsim.flows.submit": "netsim.flows",
    "traffic.population": "traffic",
    "rules.construct": "rules",
    "rules.process": "rules",
    "censor.process": "censor",
    "surveillance.process": "surveillance",
    "surveillance.flush": "surveillance",
    "packets.decode": "packets",
    "obs.report": "obs",
    "obs.snapshot": "obs",
    "obs.merge": "obs",
    "results.rows_from_point": "results",
    "results.write_records": "results",
    "results.analyze": "results",
}

LAYERS: Tuple[str, ...] = (
    "runner", "core", "netsim.engine", "netsim.link", "netsim.impairment",
    "netsim.stack", "netsim.flows", "traffic", "rules", "censor",
    "surveillance", "packets", "obs", "results",
)

#: Every per-layer metric a traced run reports, with its unit.  Each is
#: reported for every workload; a layer the workload never enters reads 0.
PER_LAYER: Dict[str, str] = {
    "rules.process.self_s": "s",
    "rules.construct_s": "s",
    "rules.candidates_per_packet": "rules/packet",
    "rules.prefilter_skip_ratio": "ratio",
    "censor.process.self_s": "s",
    "surveillance.process.self_s": "s",
    "surveillance.flush.self_s": "s",
    "surveillance.retain_ratio": "ratio",
    "netsim.engine.self_s": "s",
    "netsim.engine.events": "count",
    "netsim.engine.us_per_event": "us",
    "netsim.engine.queue_hwm": "count",
    "netsim.link.transmit.self_s": "s",
    "netsim.impairment.traverse_s": "s",
    "netsim.link.packets_offered": "count",
    "netsim.link.loss_ratio": "ratio",
    "netsim.stack.handle.self_s": "s",
    "netsim.stack.retransmits": "count",
    "core.attempts_per_result": "attempts/result",
    "netsim.flows.submit.self_s": "s",
    "traffic.population.self_s": "s",
    "netsim.flows.expanded_ratio": "ratio",
    "netsim.flows.packets_materialized": "count",
    "packets.decode_s": "s",
    "packets.encode_calls": "count",
    "core.build_environment.self_s": "s",
    "core.assess_risk_s": "s",
    "obs.snapshot_s": "s",
    "obs.merge_s": "s",
    "results.rows_from_point_s": "s",
    "runner.merge.self_s": "s",
    "results.write_records_s": "s",
    "results.analyze_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder: per-name aggregates plus request spans."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        #: span name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: counted-only call sites (no span, no timing)
        self.counts: Dict[str, int] = {}
        #: (batch, request id, span name, start, end), start/end relative
        #: to ``origin`` — the spans kept per request
        self.requests: List[Tuple[int, int, str, float, float]] = []
        #: which batch (sweep batch or replay round) is running
        self.batch = 0
        #: open spans: [name, seconds covered by finished children]
        self._stack: List[list] = []

    def wrap(self, name: str, fn: Callable, request_of: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock
        requests = self.requests

        def traced(*args, **kwargs):
            # A call re-entering its own span name (process_batch calling
            # process, a family's process calling its base class's) is
            # part of the enclosing span, not a new one.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if request_of is not None:
                    requests.append((
                        self.batch, request_of(args, kwargs), name,
                        start - self.origin, end - self.origin,
                    ))

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self) -> Dict[str, float]:
        layers = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, own) in self.stats.items():
            layers[LAYER_OF[name]] += own
        return layers


def _replace(owner, attr: str, make: Callable, originals: list) -> None:
    raw = vars(owner)[attr]
    originals.append((owner, attr, raw))
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps them."""
    originals: list = []
    for entry in SPANS:
        module_name, path, name = entry[:3]
        request_of = entry[3] if len(entry) > 3 else None
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        _replace(owner, attr,
                 lambda fn, name=name, req=request_of: tracer.wrap(name, fn, req),
                 originals)

    from repro.censor.registry import CENSOR_FAMILIES
    for cls in CENSOR_FAMILIES.values():
        if "process" in vars(cls):
            _replace(cls, "process",
                     lambda fn: tracer.wrap("censor.process", fn), originals)

    packets = importlib.import_module("repro.packets")
    for class_name in PACKET_CLASSES:
        cls = getattr(packets, class_name)
        if "from_bytes" in vars(cls):
            _replace(cls, "from_bytes",
                     lambda fn: tracer.wrap("packets.decode", fn), originals)
        if "to_bytes" in vars(cls):
            _replace(cls, "to_bytes",
                     lambda fn: tracer.count("packets.encode_calls", fn), originals)

    def restore() -> None:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)

    return restore


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    counts: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced run.

    ``counts`` are the program's own counters summed over the traced
    batches (see ``workloads.COUNTERS``); ``traced_wall`` and
    ``untraced_wall`` are the benchmark's timings of the same batches
    with and without the wrappers installed.
    """
    self_time = tracer.self_time
    events = counts["events_fired"]
    engine_self = self_time("netsim.engine")
    metrics = {
        "rules.process.self_s": self_time("rules.process"),
        "rules.construct_s": tracer.total("rules.construct"),
        "rules.candidates_per_packet": _ratio(
            counts["rules_candidates_evaluated_total"], counts["rules_packets_total"]),
        "rules.prefilter_skip_ratio": _ratio(
            counts["rules_prefilter_skips_total"],
            counts["rules_candidates_evaluated_total"]),
        "censor.process.self_s": self_time("censor.process"),
        "surveillance.process.self_s": self_time("surveillance.process"),
        "surveillance.flush.self_s": self_time("surveillance.flush"),
        "surveillance.retain_ratio": _ratio(
            counts["mvr_bytes_retained_total"], counts["mvr_bytes_ingested_total"]),
        "netsim.engine.self_s": engine_self,
        "netsim.engine.events": events,
        "netsim.engine.us_per_event": _ratio(engine_self * 1e6, events),
        "netsim.engine.queue_hwm": counts["queue_depth_high_water"],
        "netsim.link.transmit.self_s": self_time("netsim.link.transmit"),
        "netsim.impairment.traverse_s": tracer.total("netsim.impairment.traverse"),
        "netsim.link.packets_offered": counts["link_packets_offered_total"],
        "netsim.link.loss_ratio": _ratio(
            counts["link_packets_dropped_total"], counts["link_packets_offered_total"]),
        "netsim.stack.handle.self_s": self_time("netsim.stack.handle"),
        "netsim.stack.retransmits": counts["tcp_retransmitted_segments_total"],
        "core.attempts_per_result": _ratio(
            counts["measurement_attempts_total"], counts["measurement_results_total"]),
        "netsim.flows.submit.self_s": self_time("netsim.flows.submit"),
        "traffic.population.self_s": self_time("traffic.population"),
        "netsim.flows.expanded_ratio": _ratio(
            counts["population_flows_expanded"], counts["population_flows_total"]),
        "netsim.flows.packets_materialized": counts["population_packets_materialized_total"],
        "packets.decode_s": tracer.total("packets.decode"),
        "packets.encode_calls": tracer.counts.get("packets.encode_calls", 0),
        "core.build_environment.self_s": self_time("core.build_environment"),
        "core.assess_risk_s": tracer.total("core.assess_risk"),
        "obs.snapshot_s": tracer.total("obs.snapshot"),
        "obs.merge_s": tracer.total("obs.merge"),
        "results.rows_from_point_s": tracer.total("results.rows_from_point"),
        "runner.merge.self_s": self_time("runner.run"),
        "results.write_records_s": tracer.total("results.write_records"),
        "results.analyze_s": tracer.total("results.analyze"),
    }
    for layer, own in tracer.layer_self().items():
        metrics[f"{layer}.share"] = _ratio(own, traced_wall)
    metrics["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    return metrics
