"""Acceptance: observability is deterministic and conserves packets.

Two properties the obs layer must hold for its exports to be trustworthy
evidence rather than decoration:

1. **Same seed => byte-identical exports.**  The trace JSONL and the
   metrics report of two identical instrumented runs must match byte for
   byte — any hash-ordering or wall-clock leak breaks this immediately.
2. **Conservation cross-check.**  The registry's per-link counters are
   folded from the ``DirectionStats`` ledger when the registry is read
   (``Link.transmit`` touches only the ledger).  On an impaired 1000-port
   scan they must agree exactly, direction by direction, drop for drop.
"""

from repro.analysis import run_report
from repro.core import MeasurementContext, RetryPolicy, ScanMeasurement, ScanTarget
from repro.netsim import WebServer, build_three_node, burst_loss_profile
from repro.obs import MetricsRegistry, Tracer, canonical_json, use_registry, use_tracer


def instrumented_scan(seed=29, port_count=1000, duration=600.0):
    """One fully instrumented impaired scan; returns (topo, registry, tracer)."""
    registry = MetricsRegistry()
    tracer = Tracer()
    with use_registry(registry), use_tracer(tracer):
        topo = build_three_node(seed=seed)
        WebServer(topo.server)
        topo.network.impair_all_links(
            burst_loss_profile(marginal=0.05, mean_burst_length=5.0, jitter=0.001)
        )
        ctx = MeasurementContext(
            client=topo.client,
            retry_policy=RetryPolicy(max_attempts=5, timeout=1.0),
        )
        technique = ScanMeasurement(
            ctx,
            [ScanTarget(topo.server.ip, [80], "server")],
            port_count=port_count,
            probe_interval=0.005,
            timeout=1.0,
        )
    tracer.bind_clock(lambda: topo.sim.now)
    technique.start()
    topo.sim.run(until=topo.sim.now + duration)
    assert technique.done
    tracer.finalize()
    return topo, registry, tracer


class TestSameSeedDeterminism:
    def test_trace_and_metrics_exports_are_byte_identical(self, tmp_path):
        exports = []
        for run in ("a", "b"):
            topo, registry, tracer = instrumented_scan(
                seed=29, port_count=120, duration=300.0
            )
            trace_path = tracer.write_jsonl(str(tmp_path / f"{run}.trace.jsonl"))
            report = run_report(
                registry=registry, sim=topo.sim, links=topo.network.links
            )
            exports.append(
                (open(trace_path, "rb").read(), canonical_json(report))
            )
        (trace_a, report_a), (trace_b, report_b) = exports
        assert trace_a  # non-trivial: the runs actually traced something
        assert trace_a == trace_b
        assert report_a == report_b


class TestConservationCrossCheck:
    def test_registry_counters_equal_direction_stats_on_1000_port_scan(self):
        topo, registry, _ = instrumented_scan(seed=29, port_count=1000)

        offered = registry.get("link_packets_offered_total")
        carried = registry.get("link_packets_carried_total")
        dropped = registry.get("link_packets_dropped_total")
        duplicated = registry.get("link_packets_duplicated_total")
        assert offered is not None and dropped is not None

        # Sum drop rows per (link, direction); remember which models dropped.
        drops_by_direction = {}
        reasons = set()
        for (link, direction, reason), count in dropped.labelled():
            drops_by_direction[(link, direction)] = (
                drops_by_direction.get((link, direction), 0) + count
            )
            reasons.add(reason)

        checked = 0
        total_lost = 0
        for link in topo.network.links:
            name = f"{link.a.name}<->{link.b.name}"
            for direction, stats in link.stats.items():
                key = (name, direction)
                assert offered.value(key) == stats.packets_offered
                assert carried.value(key) == stats.packets_carried
                assert duplicated.value(key) == stats.packets_duplicated
                assert drops_by_direction.get(key, 0) == stats.packets_lost
                total_lost += stats.packets_lost
                checked += 1

        assert checked >= 4  # at least two links, both directions
        # The path really was hostile, and the drops name their impairment
        # model — not the flat legacy loss knob.
        assert total_lost > 0
        assert reasons and "legacy_loss" not in reasons

    def test_run_report_folds_all_sections(self):
        topo, registry, _ = instrumented_scan(seed=29, port_count=50, duration=120.0)
        report = run_report(
            registry=registry, sim=topo.sim, links=topo.network.links
        )
        assert set(report) == {"metrics", "simulator", "links"}
        assert report["simulator"]["events_fired"] > 0
        assert "tcp_retransmitted_segments_total" in report["metrics"]["instruments"]
        for entry in report["links"].values():
            assert entry["conserved"] is True
