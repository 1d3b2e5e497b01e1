"""Tiered-fidelity flow layer: tier decisions, prefix routing, conservation.

The fidelity boundary rests on three substrate guarantees tested here:
``path_crosses_tap`` answers from the routed path and current tap
placement (cache included), prefix routing delivers synthetic user
addresses without per-user hosts, and aggregate accounting preserves the
link conservation invariant packet forwarding already maintains.
"""

import gc
import weakref

import pytest

from repro.netsim import (
    AggregateFlow,
    FlowFidelityEngine,
    Host,
    Network,
    PacketCapture,
    Simulator,
    build_censored_as,
)
from repro.obs import MetricsRegistry, use_registry
from repro.traffic.population import PopulationTraffic


def line_network():
    """a -- b -- c with every node attached and routed."""
    sim = Simulator(seed=1)
    net = Network(sim)
    a = net.add(Host("a", "10.0.0.1"))
    b = net.add(Host("b", "10.0.0.2"))
    c = net.add(Host("c", "10.0.0.3"))
    net.connect(a, b)
    net.connect(b, c)
    return sim, net, a, b, c


def aggregate_flow(**overrides):
    params = dict(
        flow_id=1, kind="web", src_ip="10.128.0.2", dst_ip="10.224.10.10",
        src_gateway="a", dst_gateway="c", duration=0.5,
        packets_up=10, bytes_up=1_000, packets_down=20, bytes_down=20_000,
        template=None, params=(),
    )
    params.update(overrides)
    return AggregateFlow(**params)


class TestAtUncancellable:
    def test_fires_at_the_scheduled_time(self):
        sim = Simulator(seed=0)
        fired = []
        sim.at_uncancellable(0.25, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.25]

    def test_same_time_events_fire_in_scheduling_order(self):
        """Uncancellable events share the sequence counter with timers, so
        mixing the two at one timestamp preserves submission order."""
        sim = Simulator(seed=0)
        order = []
        sim.at(0.1, lambda: order.append("timer-1"))
        sim.at_uncancellable(0.1, lambda: order.append("flow-1"))
        sim.at(0.1, lambda: order.append("timer-2"))
        sim.at_uncancellable(0.1, lambda: order.append("flow-2"))
        sim.run()
        assert order == ["timer-1", "flow-1", "timer-2", "flow-2"]

    def test_survives_heap_compaction_of_cancelled_timers(self):
        """Compaction sweeps dead Timer entries; the timer-less flow
        entries must ride it out untouched."""
        sim = Simulator(seed=0)
        fired = []
        timers = [sim.at(1.0 + i * 0.001, lambda: fired.append("t"))
                  for i in range(600)]
        for i in range(100):
            sim.at_uncancellable(0.5 + i * 0.001, lambda: fired.append("u"))
        for timer in timers:
            timer.cancel()
        # cancelling en masse triggers compaction with None-timer entries
        # interleaved in the heap
        sim.run()
        assert fired == ["u"] * 100


class TestPrefixRouting:
    def test_prefix_delivers_to_gateway(self):
        _sim, net, a, _b, _c = line_network()
        net.add_prefix_route("10.128.0.0/11", a)
        assert net.owner_of("10.128.0.2") is a
        assert net.owner_of("10.159.255.254") is a
        assert net.owner_of("10.160.0.1") is None

    def test_exact_host_ip_wins_over_prefix(self):
        _sim, net, a, b, _c = line_network()
        net.add_prefix_route("10.0.0.0/8", a)
        assert net.owner_of("10.0.0.2") is b  # b's own address, not the route
        assert net.owner_of("10.7.7.7") is a

    def test_longest_prefix_wins(self):
        _sim, net, a, b, _c = line_network()
        net.add_prefix_route("10.128.0.0/11", a)
        net.add_prefix_route("10.128.1.0/24", b)
        assert net.owner_of("10.128.1.5") is b
        assert net.owner_of("10.128.2.5") is a

    def test_cached_answers_refresh_when_routes_are_added(self):
        _sim, net, a, b, _c = line_network()
        net.add_prefix_route("10.128.0.0/11", a)
        assert net.owner_of("10.128.1.5") is a  # warms the cache
        net.add_prefix_route("10.128.1.0/24", b)
        assert net.owner_of("10.128.1.5") is b

    def test_host_bits_in_prefix_rejected(self):
        _sim, net, a, _b, _c = line_network()
        with pytest.raises(ValueError, match="host bits"):
            net.add_prefix_route("10.128.1.0/11", a)

    def test_non_cidr_rejected(self):
        _sim, net, a, _b, _c = line_network()
        with pytest.raises(ValueError, match="CIDR"):
            net.add_prefix_route("10.128.0.0", a)

    def test_unattached_gateway_rejected(self):
        _sim, net, _a, _b, _c = line_network()
        stray = Host("stray", "192.0.2.1")
        with pytest.raises(ValueError, match="not attached"):
            net.add_prefix_route("10.128.0.0/11", stray)


class TestTapReachability:
    def test_tap_free_path_does_not_cross(self):
        topo = build_censored_as(seed=2)
        net = topo.network
        assert not net.path_crosses_tap("access", "internal")
        assert not net.path_crosses_tap("access", "transit")

    def test_tap_on_path_detected(self):
        topo = build_censored_as(seed=2)
        topo.border_router.add_tap(PacketCapture())
        net = topo.network
        assert net.path_crosses_tap("access", "transit")
        assert net.path_crosses_tap("internal", "transit")
        # paths that stop short of the border stay unobserved
        assert not net.path_crosses_tap("access", "internal")

    def test_cache_invalidated_by_tap_attachment(self):
        """The answer must track tap placement even after being cached."""
        topo = build_censored_as(seed=2)
        net = topo.network
        assert not net.path_crosses_tap("access", "transit")  # cached False
        topo.border_router.add_tap(PacketCapture())
        assert net.path_crosses_tap("access", "transit")


class TestFidelityTiers:
    def test_mode_forces_tier(self):
        topo = build_censored_as(seed=2)
        topo.border_router.add_tap(PacketCapture())
        flow = aggregate_flow(src_gateway="access", dst_gateway="transit")
        assert FlowFidelityEngine(topo.network, "full").tier_of(flow) == "expanded"
        assert FlowFidelityEngine(topo.network, "aggregate").tier_of(flow) == "aggregate"

    def test_hybrid_tier_follows_tap_reachability(self):
        topo = build_censored_as(seed=2)
        topo.border_router.add_tap(PacketCapture())
        engine = FlowFidelityEngine(topo.network, "hybrid")
        crossing = aggregate_flow(src_gateway="access", dst_gateway="transit")
        internal = aggregate_flow(src_gateway="access", dst_gateway="internal")
        assert engine.tier_of(crossing) == "expanded"
        assert engine.tier_of(internal) == "aggregate"

    def test_bad_mode_rejected(self):
        topo = build_censored_as(seed=2)
        with pytest.raises(ValueError, match="fidelity mode"):
            FlowFidelityEngine(topo.network, "cinematic")


class TestAggregateAccounting:
    def test_every_path_link_charged_both_directions(self):
        sim, net, _a, _b, _c = line_network()
        engine = FlowFidelityEngine(net, "aggregate")
        flow = aggregate_flow()
        engine.submit(flow)
        sim.run()
        path = net.path_nodes("a", "c")
        for near, far in zip(path, path[1:]):
            link = net._find_link(near, far)
            forward = link.direction_from(net.nodes[near])
            reverse = "ba" if forward == "ab" else "ab"
            for direction, packets, size in (
                (forward, 10, 1_000),
                (reverse, 20, 20_000),
            ):
                stats = link.stats[direction]
                assert stats.packets_offered == packets
                assert stats.packets_carried == packets
                assert stats.bytes_carried == size
                assert stats.conserved

    def test_accounting_lands_at_flow_completion_time(self):
        sim, net, _a, _b, _c = line_network()
        engine = FlowFidelityEngine(net, "aggregate")
        engine.submit(aggregate_flow(duration=0.5))
        sim.run(until=0.4)
        assert net.links[0].stats["ab"].packets_offered == 0
        sim.run()
        assert net.links[0].stats["ab"].packets_offered == 10

    def test_ledger_counts_both_tiers(self):
        sim, net, _a, _b, _c = line_network()
        engine = FlowFidelityEngine(net, "aggregate")
        engine.submit(aggregate_flow(flow_id=1))
        engine.submit(aggregate_flow(flow_id=2))
        sim.run()
        stats = engine.stats()
        assert stats["flows_aggregate"] == 2
        assert stats["flows_expanded"] == 0
        assert stats["bytes_aggregate"] == 2 * 21_000
        assert engine.bytes_total == 2 * 21_000


class TestTierCounterFold:
    """``population_*`` counters fold from the engine's per-(tier, kind)
    tallies on registry read: exact at every read, never double-counted,
    and no label row for a tally that never moved."""

    @staticmethod
    def rows(registry, name):
        return dict(registry.get(name).labelled())

    @classmethod
    def tier_sum(cls, registry, name, tier):
        return sum(v for k, v in cls.rows(registry, name).items() if k[0] == tier)

    def test_counters_equal_the_engine_ledger(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            topo = build_censored_as(seed=4)
            topo.border_router.add_tap(PacketCapture())
            population = PopulationTraffic(topo, users=300, fidelity="hybrid")
            population.start(4.0)
            topo.sim.run(until=topo.sim.now + 1.0)
            first = registry.snapshot()
            topo.sim.run(until=topo.sim.now + 5.0)
            stats = population.engine.stats()
            for _read in range(2):
                for name, tier, total in (
                    ("population_flows_total", "aggregate", "flows_aggregate"),
                    ("population_flows_total", "expanded", "flows_expanded"),
                    ("population_bytes_total", "aggregate", "bytes_aggregate"),
                    ("population_bytes_total", "expanded", "bytes_materialized"),
                ):
                    assert self.tier_sum(registry, name, tier) == stats[total]
                packets = self.rows(registry, "population_packets_materialized_total")
                assert sum(packets.values()) == stats["packets_materialized"]
        assert stats["flows_aggregate"] and stats["flows_expanded"]
        assert first["instruments"]["population_flows_total"]["values"]
        # a tally that did not move since the last fold adds no row
        registry.clear()
        assert self.rows(registry, "population_flows_total") == {}

    def test_engine_collected_before_the_read_still_reports(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            sim, net, _a, _b, _c = line_network()
            engine = FlowFidelityEngine(net, "aggregate")
            engine.submit(aggregate_flow(flow_id=1))
            engine.submit(aggregate_flow(flow_id=2))
            sim.run()
            gone = weakref.ref(engine)
            del engine
            gc.collect()
            assert gone() is None
            flows = self.rows(registry, "population_flows_total")
            bytes_ = self.rows(registry, "population_bytes_total")
        assert flows == {("aggregate", "web"): 2}
        assert bytes_ == {("aggregate", "web"): 2 * 21_000}

    def test_idle_engine_adds_no_label_rows(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            _sim, net, _a, _b, _c = line_network()
            FlowFidelityEngine(net, "hybrid")
            snapshot = registry.snapshot()
        for name in ("population_flows_total", "population_bytes_total",
                     "population_packets_materialized_total"):
            assert snapshot["instruments"][name]["values"] == []
