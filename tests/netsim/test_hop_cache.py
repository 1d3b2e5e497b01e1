"""The per-node hop cache: lazily filled, dropped on every route rebuild.

Topology changes while packets are in flight must take effect at the
packets' next hop — a transit node never forwards through a hop resolved
from tables that a ``connect()``/``add()`` has since made stale.
"""

from repro.netsim import Host, Network, Router, Simulator, Switch
from repro.packets import IPPacket, UDPDatagram


def udp(src, dst):
    return IPPacket(src=src, dst=dst, payload=UDPDatagram(sport=1, dport=9, payload=b"x"))


def sniff(host):
    seen = []
    host.stack.add_sniffer(seen.append)
    return seen


def chain(*names):
    """Hosts at the ends, switches between: a — s1 — ... — b."""
    sim = Simulator(seed=1)
    net = Network(sim, default_latency=0.001)
    nodes = []
    for index, name in enumerate(names):
        if index in (0, len(names) - 1):
            nodes.append(net.add(Host(name, f"10.0.0.{index + 1}")))
        else:
            nodes.append(net.add(Switch(name)))
    for left, right in zip(nodes, nodes[1:]):
        net.connect(left, right)
    return sim, net, nodes


class TestInFlightTopologyChanges:
    def test_connect_mid_flight_reroutes_at_the_next_hop(self):
        sim, net, (a, s1, s2, b) = chain("a", "s1", "s2", "b")
        got = sniff(b)
        a.send_ip(udp(a.ip, b.ip))
        sim.run(until=0.0005)  # the packet is on the a—s1 wire
        shortcut = net.connect(s1, b)
        sim.run()
        assert len(got) == 1
        assert shortcut.stats[shortcut.direction_from(s1)].packets_carried == 1
        assert net.links[1].packets_offered == 0  # s1—s2 never used

    def test_add_and_connect_destination_mid_flight(self):
        sim, net, (a, s1, g) = chain("a", "s1", "g")
        net.add_prefix_route("10.9.0.0/16", g)
        gateway_got = sniff(g)
        a.send_ip(udp(a.ip, "10.9.0.5"))
        sim.run(until=0.0005)
        # The exact-IP host now owns the address; s1 must route to it.
        c = net.add(Host("c", "10.9.0.5"))
        net.connect(s1, c)
        got = sniff(c)
        sim.run()
        assert len(got) == 1
        assert gateway_got == []
        assert net.dropped_no_route == 0

    def test_add_prefix_route_mid_flight(self):
        sim, net, (a, s1, g1) = chain("a", "s1", "g1")
        g2 = net.add(Host("g2", "10.0.0.99"))
        net.connect(s1, g2)
        net.add_prefix_route("10.8.0.0/16", g1)
        first_got, second_got = sniff(g1), sniff(g2)
        a.send_ip(udp(a.ip, "10.8.0.7"))
        sim.run(until=0.0005)
        net.add_prefix_route("10.8.0.0/24", g2)  # longer prefix wins
        sim.run()
        assert first_got == []
        assert len(second_got) == 1


class TestHopCacheLifetime:
    def test_filled_lazily_only_for_used_destinations(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        hub = net.add(Router("hub"))
        hosts = [net.add(Host(f"h{i}", f"10.0.0.{i + 1}")) for i in range(4)]
        for host in hosts:
            net.connect(host, hub)
        hosts[0].send_ip(udp(hosts[0].ip, hosts[1].ip))
        sim.run()
        assert set(hosts[0]._hops) == {"h1"}
        assert "h1" in hub._hops  # (h0 too: h1's port-unreachable reply)
        assert "h2" not in hub._hops and "h3" not in hub._hops
        link, direction, next_node = hub._hops["h1"]
        assert next_node is hosts[1]
        assert link.direction_from(hub) == direction

    def test_no_cached_hop_survives_a_rebuild(self):
        sim, net, (a, s1, b) = chain("a", "s1", "b")
        a.send_ip(udp(a.ip, b.ip))
        b.send_ip(udp(b.ip, a.ip))
        sim.run()
        stale = {name: dict(node._hops) for name, node in net.nodes.items()}
        assert all(stale.values())
        net.add(Host("late", "10.0.0.50"))
        net.path_nodes("a", "b")  # any route query rebuilds the tables
        assert all(node._hops == {} for node in net.nodes.values())
        a.send_ip(udp(a.ip, b.ip))
        sim.run()
        assert a._hops["b"] is not stale["a"]["b"]
        assert a._hops["b"] == stale["a"]["b"]
