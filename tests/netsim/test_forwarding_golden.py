"""Byte-identity gate for hop-by-hop forwarding.

A three-node 1000-port scan over a path with every impairment the
simulator models — Gilbert–Elliott burst loss, jitter, reordering,
duplication and the flat legacy ``loss=`` knob — must produce exactly the
run report it produced before any forwarding optimisation.  The pinned
hash covers the metrics snapshot (link counters by drop reason, TCP and
measurement counters), the simulator's event counts and the per-direction
link ledger, so any change to RNG draw order, event order, or accounting
on the forwarding path shows up as a different digest.
"""

import hashlib

from repro.analysis import run_report
from repro.core import MeasurementContext, RetryPolicy, ScanMeasurement, ScanTarget
from repro.netsim import Host, Network, Simulator, Switch, WebServer, burst_loss_profile
from repro.obs import MetricsRegistry, canonical_json, use_registry

#: sha256 of ``canonical_json(run_report(...))`` for :func:`golden_scan`,
#: recorded before the per-hop fast path existed.
GOLDEN_REPORT_SHA256 = (
    "53bc6a626524d1bb90df5f06b314ddcd0a0e5b3205314b2a915f122f396d7959"
)


def golden_scan():
    """The pinned scenario; returns (sim, network, registry, technique)."""
    registry = MetricsRegistry()
    with use_registry(registry):
        sim = Simulator(seed=29)
        network = Network(sim, default_latency=0.005)
        client = network.add(Host("client", "10.0.0.1"))
        server = network.add(Host("server", "192.0.2.10"))
        switch = network.add(Switch("s1"))
        network.connect(client, switch, loss=0.01)
        network.connect(switch, server, loss=0.01)
        WebServer(server)
        network.impair_all_links(
            burst_loss_profile(
                marginal=0.05,
                mean_burst_length=5.0,
                jitter=0.001,
                reorder_probability=0.02,
                duplicate_probability=0.02,
            )
        )
        ctx = MeasurementContext(
            client=client, retry_policy=RetryPolicy(max_attempts=4, timeout=1.0)
        )
        technique = ScanMeasurement(
            ctx,
            [ScanTarget(server.ip, [80], "server")],
            port_count=1000,
            probe_interval=0.005,
            timeout=1.0,
        )
        technique.start()
        sim.run(until=sim.now + 300.0)
    return sim, network, registry, technique


def test_forwarding_report_is_byte_identical_to_the_pinned_digest():
    sim, network, registry, technique = golden_scan()
    assert technique.done
    report = run_report(registry=registry, sim=sim, links=network.links)
    # The scenario really exercises every drop reason and duplication.
    dropped = registry.get("link_packets_dropped_total")
    reasons = {labels[2] for labels, value in dropped.labelled() if value}
    assert {"legacy_loss", "GilbertElliottLoss"} <= reasons
    assert sum(link.packets_duplicated for link in network.links) > 0
    digest = hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256
