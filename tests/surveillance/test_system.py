"""Integration tests for the composite surveillance system."""

import pytest

from repro.netsim import WebServer, build_censored_as, http_get
from repro.surveillance import (
    AttributionEngine,
    SurveillanceSystem,
    TrafficClass,
    classify_packet,
)
from repro.packets import IPPacket, PSH, ACK, SYN, TCPSegment, UDPDatagram
from repro.rules import RuleEngine, DEFAULT_VARIABLES, mvr_detection_ruleset_text


@pytest.fixture
def world():
    topo = build_censored_as(seed=4, population_size=5)
    surv = SurveillanceSystem(attribution=AttributionEngine.from_network(topo.network))
    topo.border_router.add_tap(surv)
    WebServer(topo.blocked_web)
    WebServer(topo.control_web)
    return topo, surv


class TestClassification:
    def test_web_by_port(self):
        packet = IPPacket(src="1.1.1.1", dst="2.2.2.2",
                          payload=TCPSegment(sport=40000, dport=80, flags=SYN))
        assert classify_packet(packet, []) == TrafficClass.WEB

    def test_dns_by_port(self):
        packet = IPPacket(src="1.1.1.1", dst="2.2.2.2",
                          payload=UDPDatagram(sport=40000, dport=53))
        assert classify_packet(packet, []) == TrafficClass.DNS

    def test_mail_by_port(self):
        packet = IPPacket(src="1.1.1.1", dst="2.2.2.2",
                          payload=TCPSegment(sport=40000, dport=25, flags=SYN))
        assert classify_packet(packet, []) == TrafficClass.MAIL

    def test_alert_classtype_dominates_ports(self):
        engine = RuleEngine.from_text(
            'alert tcp any any -> any 80 (msg:"flood"; flags:S; classtype:denial-of-service; sid:1;)'
        )
        packet = IPPacket(src="1.1.1.1", dst="2.2.2.2",
                          payload=TCPSegment(sport=40000, dport=80, flags=SYN))
        alerts = engine.process(packet, 0)
        assert classify_packet(packet, alerts) == TrafficClass.DDOS

    def test_p2p_by_port_range(self):
        packet = IPPacket(src="1.1.1.1", dst="2.2.2.2",
                          payload=TCPSegment(sport=40000, dport=6881, flags=SYN))
        assert classify_packet(packet, []) == TrafficClass.P2P


class TestMVRPipeline:
    def test_overt_censored_access_attributed(self, world):
        topo, surv = world
        results = []
        http_get(topo.measurement_client, topo.blocked_web.ip, "twitter.com",
                 callback=results.append)
        topo.run()
        attributed = surv.attributed_alerts_for_user("measurer")
        assert attributed
        assert attributed[0].origin_ip == topo.measurement_client.ip

    def test_innocent_browsing_not_attributed(self, world):
        topo, surv = world
        results = []
        http_get(topo.measurement_client, topo.control_web.ip, "example.org",
                 callback=results.append)
        topo.run()
        assert surv.attributed_alerts_for_user("measurer") == []

    def test_volume_accounting(self, world):
        topo, surv = world
        http_get(topo.measurement_client, topo.control_web.ip, "example.org",
                 callback=lambda r: None)
        topo.run()
        summary = surv.summary()
        assert summary["bytes_seen"] > 0
        assert summary["packets_seen"] > 0
        assert summary["retained_fraction"] <= surv.profile.storage_fraction + 0.01

    def test_p2p_discarded(self, world):
        topo, surv = world
        from repro.traffic import BITTORRENT_HANDSHAKE

        client = topo.population[0]
        server_conns = []
        def acceptor(conn):
            conn.handler = lambda e, d: None
            server_conns.append(conn)
        topo.control_web.stack.tcp_listen(6881, acceptor)
        conn = client.stack.tcp_connect(topo.control_web.ip, 6881, lambda e, d: None)
        topo.run()
        conn.send(BITTORRENT_HANDSHAKE + b"rest-of-handshake")
        topo.run()
        assert surv.discarded_by_class[TrafficClass.P2P] > 0

    def test_bot_suppression(self, world):
        """A source that behaves like a bot has its interest alerts written
        off — the paper's Section 3 mechanism."""
        topo, surv = world
        client = topo.measurement_client
        # First: bot-like scanning burst (trips ET SCAN threshold).
        for i in range(35):
            client.send_raw(IPPacket(
                src=client.ip, dst=topo.control_web.ip,
                payload=TCPSegment(sport=41000 + i, dport=1 + i, seq=5, flags=SYN),
            ))
        topo.run()
        # Then: censored-content access from the same source.
        http_get(client, topo.blocked_web.ip, "twitter.com", callback=lambda r: None)
        topo.run()
        assert surv.raw_alerts_for_user("measurer")  # retained...
        assert surv.attributed_alerts_for_user("measurer") == []  # ...but suppressed

    def test_suppression_window_bounded(self, world):
        topo, surv = world
        surv.bot_suppression_window = 1.0
        client = topo.measurement_client
        for i in range(35):
            client.send_raw(IPPacket(
                src=client.ip, dst=topo.control_web.ip,
                payload=TCPSegment(sport=41000 + i, dport=1 + i, seq=5, flags=SYN),
            ))
        topo.run()
        topo.sim.run_for(100.0)  # long after the bot activity
        http_get(client, topo.blocked_web.ip, "twitter.com", callback=lambda r: None)
        topo.run()
        assert surv.attributed_alerts_for_user("measurer")  # outside the window

    def test_analyst_integration(self, world):
        topo, surv = world
        http_get(topo.measurement_client, topo.blocked_web.ip, "twitter.com",
                 callback=lambda r: None)
        topo.run()
        opened = surv.run_analyst(topo.sim.now)
        assert [inv.user for inv in opened] == ["measurer"]

    def test_passive_tap_never_drops(self, world):
        topo, surv = world
        results = []
        http_get(topo.measurement_client, topo.blocked_web.ip, "twitter.com",
                 callback=results.append)
        topo.run()
        assert results[0].ok  # no censor installed; surveillance is passive
