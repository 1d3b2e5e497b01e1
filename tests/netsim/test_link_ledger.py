"""Link counters folded from the ledger: the registry equals the ledger.

Forwarding updates only each link's per-direction :class:`DirectionStats`
ledger; the ``link_*_total`` registry counters are folded from it when the
registry is read.  These tests pin that the fold is exact in every case
where a second copy of the numbers could drift: repeated reads, a
registry clear, impairment pipelines swapped mid-run, the legacy loss
knob, duplication, aggregate flows, and a link that is gone before the
registry is read.
"""

import gc

from repro.netsim import (
    Duplication,
    GilbertElliottLoss,
    Host,
    IndependentLoss,
    Network,
    Simulator,
)
from repro.netsim.link import DirectionStats
from repro.obs import MetricsRegistry, use_registry
from repro.packets import IPPacket, UDPDatagram

FIELDS = {
    "link_packets_offered_total": "packets_offered",
    "link_packets_carried_total": "packets_carried",
    "link_packets_duplicated_total": "packets_duplicated",
    "link_bytes_carried_total": "bytes_carried",
}


def pair(registry, loss=0.0):
    with use_registry(registry):
        sim = Simulator(seed=7)
        net = Network(sim)
        a = net.add(Host("a", "10.0.0.1"))
        b = net.add(Host("b", "10.0.0.2"))
        link = net.connect(a, b, loss=loss)
    return sim, net, a, b, link


def blast(sim, a, b, count=200):
    for index in range(count):
        a.send_ip(IPPacket(
            src=a.ip, dst=b.ip,
            payload=UDPDatagram(sport=1000 + index, dport=7, payload=b"x" * 32),
        ))
    sim.run()


def ledger(link):
    """A frozen copy of the link's ledger: {direction: (fields, drops)}."""
    return {
        direction: (
            {field: getattr(stats, field) for field in FIELDS.values()},
            dict(stats.drops),
        )
        for direction, stats in link.stats.items()
    }


def registry_view(registry, name="a<->b"):
    """The registry's link rows in the same shape as :func:`ledger`."""
    view = {direction: ({}, {}) for direction in ("ab", "ba")}
    for metric, field in FIELDS.items():
        counter = registry.get(metric)
        for direction in view:
            view[direction][0][field] = counter.value((name, direction))
    for (link, direction, reason), value in registry.get(
        "link_packets_dropped_total"
    ).labelled():
        if link == name:
            view[direction][1][reason] = value
    return view


def minus(after, before):
    return {
        direction: (
            {f: v - before[direction][0][f] for f, v in fields.items()},
            {r: c - before[direction][1].get(r, 0)
             for r, c in drops.items() if c - before[direction][1].get(r, 0)},
        )
        for direction, (fields, drops) in after.items()
    }


class TestLedgerFold:
    def test_reading_twice_mid_run_does_not_double_count(self):
        registry = MetricsRegistry()
        sim, net, a, b, link = pair(registry)
        link.impair([GilbertElliottLoss.from_marginal(0.2)])
        blast(sim, a, b, 100)
        first = registry.snapshot()
        assert registry.snapshot() == first
        assert registry_view(registry) == ledger(link)
        blast(sim, a, b, 100)
        registry.snapshot()
        assert registry_view(registry) == ledger(link)
        assert link.stats["ab"].packets_offered == 200

    def test_clear_then_more_traffic_counts_from_the_clear(self):
        registry = MetricsRegistry()
        sim, net, a, b, link = pair(registry, loss=0.1)
        blast(sim, a, b, 100)
        at_clear = ledger(link)
        registry.clear()
        assert registry.get("link_packets_offered_total").total() == 0
        blast(sim, a, b, 100)
        assert registry_view(registry) == minus(ledger(link), at_clear)

    def test_impairment_swaps_mid_run_keep_every_drop_reason(self):
        registry = MetricsRegistry()
        sim, net, a, b, link = pair(registry)
        link.impair([GilbertElliottLoss.from_marginal(0.3)], direction="ab")
        blast(sim, a, b, 150)
        link.impair([IndependentLoss(0.3)], direction="ab")
        blast(sim, a, b, 150)
        link.clear_impairment()
        blast(sim, a, b, 150)
        drops = link.stats["ab"].drops
        assert drops["GilbertElliottLoss"] > 0 and drops["IndependentLoss"] > 0
        assert link.stats["ab"].packets_lost == sum(drops.values())
        assert registry_view(registry) == ledger(link)
        assert link.stats["ab"].conserved

    def test_legacy_loss_is_its_own_reason(self):
        registry = MetricsRegistry()
        sim, net, a, b, link = pair(registry, loss=0.25)
        blast(sim, a, b)
        assert set(link.stats["ab"].drops) == {"legacy_loss"}
        assert registry_view(registry) == ledger(link)

    def test_duplicates(self):
        registry = MetricsRegistry()
        sim, net, a, b, link = pair(registry)
        link.impair([Duplication(1.0)], direction="ab")
        blast(sim, a, b, 50)
        stats = link.stats["ab"]
        assert stats.packets_duplicated == 50
        assert stats.packets_carried == 100
        assert registry_view(registry) == ledger(link)

    def test_aggregate_flows(self):
        registry = MetricsRegistry()
        sim, net, a, b, link = pair(registry)
        link.account_flow(12, 9000, "ab")
        link.account_flow(3, 240, "ba")
        blast(sim, a, b, 10)
        link.account_flow(5, 700, "ab")
        assert registry_view(registry) == ledger(link)
        assert link.stats["ab"].bytes_carried >= 9700

    def test_a_link_collected_before_the_read_still_reports(self):
        registry = MetricsRegistry()
        sim, net, a, b, link = pair(registry, loss=0.2)
        blast(sim, a, b, 100)
        expected = ledger(link)
        del sim, net, a, b, link
        gc.collect()
        assert registry_view(registry) == expected


class TestDirectionStatsShape:
    def test_as_dict_keys_are_unchanged(self):
        stats = DirectionStats()
        stats.packets_offered = 3
        stats.packets_carried = 2
        stats.drop("legacy_loss")
        assert stats.as_dict() == {
            "packets_offered": 3,
            "packets_carried": 2,
            "packets_lost": 1,
            "packets_duplicated": 0,
            "bytes_carried": 0,
        }
        assert stats.conserved
