"""Unit tests for the rule dispatch index and its supporting machinery."""

import random

from repro.packets import ICMPMessage, IPPacket, PSH, ACK, SYN, TCPSegment, UDPDatagram
from repro.rules import MatchContext, RuleDispatchIndex, RuleEngine, parse_ruleset
from repro.rules.engine import _ThresholdState
from repro.rules.index import _enumerable_ports
from repro.rules.language import ThresholdSpec


def _rules(text):
    return parse_ruleset(text, {})


def _candidate_sids(index, packet):
    ctx = MatchContext(packet, None)
    return [r.sid for r in index.lookup(packet.protocol, ctx.dport, ctx.sport).rules]


def _tcp_packet(dport=80, sport=40000, payload=b"x", flags=PSH | ACK):
    return IPPacket(src="10.0.0.1", dst="203.0.113.1",
                    payload=TCPSegment(sport=sport, dport=dport, flags=flags,
                                       payload=payload))


RULESET = "\n".join([
    'alert tcp any any -> any 80 (msg:"http"; content:"GET"; sid:1;)',
    'alert tcp any any -> any 443 (msg:"tls"; sid:2;)',
    'alert tcp any any -> any any (msg:"tcp any"; flags:S; sid:3;)',
    'alert tcp any any -> any !80 (msg:"not 80"; sid:4;)',
    'alert udp any any -> any 53 (msg:"dns"; sid:5;)',
    'alert icmp any any -> any any (msg:"icmp"; sid:6;)',
    'alert ip any any -> any any (msg:"ip any"; dsize:>1000; sid:7;)',
    'alert tcp any any -> any [6881:6889] (msg:"bt range"; sid:8;)',
    'alert tcp any any <> any 4444 (msg:"bidir"; sid:9;)',
])


def test_port_bucket_contains_only_relevant_rules_in_order():
    index = RuleDispatchIndex(_rules(RULESET))
    sids = _candidate_sids(index, _tcp_packet(dport=80))
    # Exact-port rule, plus every catch-all (any / negated port / ip rules),
    # in original ruleset order.
    assert sids == [1, 3, 4, 7]


def test_catch_all_used_for_unindexed_port():
    index = RuleDispatchIndex(_rules(RULESET))
    sids = _candidate_sids(index, _tcp_packet(dport=12345))
    assert sids == [3, 4, 7]


def test_port_range_is_enumerated_into_buckets():
    index = RuleDispatchIndex(_rules(RULESET))
    for port in (6881, 6885, 6889):
        assert 8 in _candidate_sids(index, _tcp_packet(dport=port))
    assert 8 not in _candidate_sids(index, _tcp_packet(dport=6890))


def test_bidirectional_rule_reachable_via_source_port():
    index = RuleDispatchIndex(_rules(RULESET))
    # Reverse direction: the server on 4444 replies, so 4444 is the sport.
    sids = _candidate_sids(index, _tcp_packet(dport=40000, sport=4444))
    assert 9 in sids
    # Order numbers keep the merged list in ruleset order.
    assert sids == sorted(sids)


def test_udp_and_icmp_tables_are_separate():
    index = RuleDispatchIndex(_rules(RULESET))
    udp = IPPacket(src="10.0.0.1", dst="8.8.8.8",
                   payload=UDPDatagram(sport=1000, dport=53, payload=b"q"))
    icmp = IPPacket(src="10.0.0.1", dst="8.8.8.8",
                    payload=ICMPMessage.echo_request())
    assert _candidate_sids(index, udp) == [5, 7]
    assert _candidate_sids(index, icmp) == [6, 7]


def test_ephemeral_reply_memo_is_bounded_and_exact():
    """Replies from enumerated server ports to random ephemeral ports share
    one sport-merge memo entry per server port, and every lookup returns
    exactly the rules a naive header-coverage scan selects."""
    rules = _rules(RULESET)
    index = RuleDispatchIndex(rules)
    enumerated = {
        port for rule in rules if rule.protocol == "tcp"
        for port in (_enumerable_ports(rule) or ())
    }
    rng = random.Random(15)
    for _ in range(10_000):
        sport = rng.choice(sorted(enumerated))
        dport = rng.randrange(32768, 61000)
        naive = [
            rule.sid for rule in rules
            if rule.protocol in ("tcp", "ip")
            and (_enumerable_ports(rule) is None
                 or dport in _enumerable_ports(rule)
                 or sport in _enumerable_ports(rule))
        ]
        assert _candidate_sids(index, _tcp_packet(dport=dport, sport=sport)) == naive
    assert 0 < len(index._dynamic) <= len(enumerated)


def test_unknown_protocol_sees_only_ip_rules():
    index = RuleDispatchIndex(_rules(RULESET))
    gre = IPPacket(src="10.0.0.1", dst="8.8.8.8", payload=b"\x00" * 8, protocol=47)
    assert _candidate_sids(index, gre) == [7]


def test_negated_and_wide_port_specs_fall_back_to_catch_all():
    text = "\n".join([
        'alert tcp any any -> any !80 (msg:"neg"; sid:10;)',
        'alert tcp any any -> any [1:10000] (msg:"wide"; sid:11;)',
    ])
    index = RuleDispatchIndex(_rules(text))
    # Both specs are unenumerable, so they appear for every port.
    assert _candidate_sids(index, _tcp_packet(dport=9)) == [10, 11]
    assert _candidate_sids(index, _tcp_packet(dport=31337)) == [10, 11]


def test_add_extends_existing_buckets():
    index = RuleDispatchIndex(_rules(RULESET))
    index.add(_rules('alert tcp any any -> any 80 (msg:"late"; sid:99;)'))
    sids = _candidate_sids(index, _tcp_packet(dport=80))
    assert sids == [1, 3, 4, 7, 99]


def test_rule_by_sid_tracks_add_rules():
    engine = RuleEngine.from_text(RULESET)
    assert engine.rule_by_sid(5).msg == "dns"
    assert engine.rule_by_sid(12345) is None
    engine.add_rules('alert tcp any any -> any 80 (msg:"late"; sid:99;)')
    assert engine.rule_by_sid(99).msg == "late"


def test_match_context_haystack_prefers_stream_buffer():
    engine = RuleEngine.from_text('alert tcp any any -> any 80 '
                                  '(msg:"kw"; content:"falun"; sid:50;)')
    alerts = []
    handshake = [
        _tcp_packet(flags=SYN, payload=b""),
        IPPacket(src="203.0.113.1", dst="10.0.0.1",
                 payload=TCPSegment(sport=80, dport=40000, seq=500, ack=1,
                                    flags=SYN | ACK)),
    ]
    for i, pkt in enumerate(handshake):
        alerts += engine.process(pkt, i * 0.01)
    # Keyword split across two segments only matches via the stream buffer.
    seg1 = IPPacket(src="10.0.0.1", dst="203.0.113.1",
                    payload=TCPSegment(sport=40000, dport=80, seq=1, ack=501,
                                       flags=PSH | ACK, payload=b"fal"))
    seg2 = IPPacket(src="10.0.0.1", dst="203.0.113.1",
                    payload=TCPSegment(sport=40000, dport=80, seq=4, ack=501,
                                       flags=PSH | ACK, payload=b"un"))
    alerts += engine.process(seg1, 0.1)
    assert not alerts
    alerts += engine.process(seg2, 0.2)
    assert [a.sid for a in alerts] == [50]


def test_threshold_state_prunes_stale_keys():
    state = _ThresholdState()
    spec = ThresholdSpec(kind="both", track="by_src", count=3, seconds=10.0)
    for i in range(3):
        state.should_alert(spec, 100, "10.0.0.1", float(i))
    assert state.tracked_keys() == 1
    # Within the window nothing is pruned; past it the key disappears.
    assert state.prune(now=5.0) == 0
    assert state.prune(now=100.0) == 1
    assert state.tracked_keys() == 0
    # A pruned key behaves exactly like a fresh one.
    fired = [state.should_alert(spec, 100, "10.0.0.1", 200.0 + i) for i in range(3)]
    assert fired == [False, False, True]
