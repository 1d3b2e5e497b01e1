"""Observability native to simulated time: metrics registry + span tracing.

Install a registry/tracer around environment construction and every
instrumented layer (netsim, rules, surveillance, techniques) records
into it; leave them uninstalled and the hot paths pay one ``is not
None`` check:

    from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer

    registry, tracer = MetricsRegistry(), Tracer()
    with use_registry(registry), use_tracer(tracer):
        env = build_environment(seed=7)
        tracer.bind_clock(lambda: env.sim.now)
        ...  # run
    tracer.finalize()
    tracer.write_chrome("run.trace.json")   # open in Perfetto
"""

from .export import canonical_json, write_json, write_jsonl
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    active_or_none,
    set_registry,
    use_registry,
)
from .trace import (
    Span,
    Tracer,
    active_tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "canonical_json",
    "write_json",
    "write_jsonl",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "active_or_none",
    "set_registry",
    "use_registry",
    "Span",
    "Tracer",
    "active_tracer",
    "current_tracer",
    "set_tracer",
    "use_tracer",
]
