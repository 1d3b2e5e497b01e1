"""Semantic equivalence of the engine's fast path and the naive full scan.

The dispatch index, MatchContext sharing, the ruleset-wide Aho–Corasick
literal prefilter, and batched evaluation are pure optimizations: for any
packet trace they must produce *identical* alert sequences (same alerts,
same order, pass-rule suppression intact) to ``RuleEngine(use_index=False)``,
which still runs the original rule-by-rule scan with no prefilter.  Two
traces exercise this: one deterministic hand-built mixed trace (TCP with a
keyword split across segments, UDP DNS, ICMP, threshold-triggering bursts,
pass-rule traffic, bidirectional and port-range rules) and one seeded
random trace, each fed single-packet and through ``process_batch``.
"""

import random

import pytest

from repro.censor import build_censor
from repro.packets import (
    ACK,
    ICMPMessage,
    IPPacket,
    PSH,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.rules import (
    DEFAULT_VARIABLES,
    RuleEngine,
    censor_ruleset_text,
    mvr_detection_ruleset_text,
    surveillance_interest_ruleset_text,
)
from repro.surveillance import SurveillanceSystem

EXTRA_RULES = "\n".join([
    # pass rule ahead of a catch-all: suppression ordering must survive
    'pass tcp 10.1.0.99 any -> any any (msg:"EQ whitelist"; sid:910000;)',
    'alert tcp any any -> any any (msg:"EQ tcp syn catchall"; flags:S; sid:910001;)',
    # bidirectional rule on a concrete port: reverse direction must dispatch
    'alert tcp any any <> any 4444 (msg:"EQ bidir 4444"; content:"c2"; sid:910002;)',
    # port range rule (enumerated bucket) and a negated-port rule (catch-all)
    'alert udp any any -> any [7000:7004] (msg:"EQ udp range"; dsize:>2; sid:910003;)',
    'alert tcp any any -> any !80 (msg:"EQ not-80 rst"; flags:R; sid:910004;)',
    # icmp options
    'alert icmp any any -> any any (msg:"EQ ping"; itype:8; sid:910005;)',
    # negated content (no anchor literal possible)
    'alert udp any any -> any 9999 (msg:"EQ negated"; content:!"benign"; dsize:>0; sid:910006;)',
])


def _ruleset_text():
    return "\n".join([
        censor_ruleset_text(),
        mvr_detection_ruleset_text(),
        surveillance_interest_ruleset_text(),
        EXTRA_RULES,
    ])


def _tcp(src, dst, sport, dport, flags, seq=0, ack=0, payload=b""):
    return IPPacket(src=src, dst=dst,
                    payload=TCPSegment(sport=sport, dport=dport, seq=seq, ack=ack,
                                       flags=flags, payload=payload))


def _udp(src, dst, sport, dport, payload=b""):
    return IPPacket(src=src, dst=dst,
                    payload=UDPDatagram(sport=sport, dport=dport, payload=payload))


def _handshake(trace, t, c, s, cp, sp, isn=100, ssn=500):
    trace.append((t, _tcp(c, s, cp, sp, SYN, seq=isn)))
    trace.append((t + 0.01, _tcp(s, c, sp, cp, SYN | ACK, seq=ssn, ack=isn + 1)))
    trace.append((t + 0.02, _tcp(c, s, cp, sp, ACK, seq=isn + 1, ack=ssn + 1)))
    return isn + 1, ssn + 1


def build_trace():
    """A deterministic packet trace exercising every dispatch shape."""
    trace = []

    # 1. HTTP flow with a censored keyword split across two segments.
    cseq, _ = _handshake(trace, 0.0, "10.1.0.5", "203.0.113.10", 40000, 80)
    trace.append((0.03, _tcp("10.1.0.5", "203.0.113.10", 40000, 80, PSH | ACK,
                             seq=cseq, payload=b"GET /fal")))
    trace.append((0.04, _tcp("10.1.0.5", "203.0.113.10", 40000, 80, PSH | ACK,
                             seq=cseq + 8, payload=b"un HTTP/1.1\r\nHost: example.org\r\n\r\n")))

    # 2. HTTP flow with a blocked Host header (nocase content path).
    cseq, _ = _handshake(trace, 0.2, "10.1.0.6", "203.0.113.20", 40001, 80)
    trace.append((0.23, _tcp("10.1.0.6", "203.0.113.20", 40001, 80, PSH | ACK,
                             seq=cseq, payload=b"GET / HTTP/1.1\r\nHost: TWITTER.com\r\n\r\n")))

    # 3. SYN-scan burst from one source: threshold type both, count 30/10s.
    for i in range(35):
        trace.append((1.0 + i * 0.05, _tcp("10.1.0.7", "203.0.113.30",
                                           31000 + i, 1 + i, SYN)))

    # 4. HTTP GET flood (threshold count 20/5s on port 80, established flow).
    cseq, _ = _handshake(trace, 4.0, "10.1.0.8", "203.0.113.10", 40500, 80)
    for i in range(25):
        trace.append((4.1 + i * 0.1, _tcp("10.1.0.8", "203.0.113.10", 40500, 80,
                                          PSH | ACK, seq=cseq + i * 16,
                                          payload=b"GET /x HTTP/1.1\r\n")))

    # 5. Bulk MX lookups for a censored domain (UDP threshold rule).
    mx_query = (b"\x00\x07\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
                b"\x07twitter\x03com\x00\x00\x0f\x00\x01")
    for i in range(10):
        trace.append((8.0 + i * 0.2, _udp("10.1.0.9", "8.8.8.8", 25000 + i, 53, mx_query)))

    # 6. ICMP echo requests (itype rule) and an oversized-payload packet.
    for i in range(3):
        trace.append((11.0 + i * 0.1,
                      IPPacket(src="10.1.0.10", dst="203.0.113.40",
                               payload=ICMPMessage.echo_request(ident=7, sequence=i))))

    # 7. pass-rule traffic: whitelisted source sending SYNs.
    trace.append((12.0, _tcp("10.1.0.99", "203.0.113.10", 42000, 80, SYN)))
    trace.append((12.1, _tcp("10.1.0.99", "203.0.113.10", 42001, 81, SYN)))

    # 8. Bidirectional rule, reverse direction: server on 4444 talks back.
    cseq, ssn = _handshake(trace, 13.0, "10.1.0.11", "198.51.100.5", 43000, 4444)
    trace.append((13.05, _tcp("198.51.100.5", "10.1.0.11", 4444, 43000, PSH | ACK,
                              seq=ssn, ack=cseq, payload=b"c2 beacon")))

    # 9. UDP port-range rule and the negated-content rule.
    trace.append((14.0, _udp("10.1.0.12", "203.0.113.50", 26000, 7002, b"xyzzy")))
    trace.append((14.1, _udp("10.1.0.12", "203.0.113.50", 26001, 9999, b"malicious")))
    trace.append((14.2, _udp("10.1.0.12", "203.0.113.50", 26002, 9999, b"benign bytes")))

    # 10. RST to a non-80 port (negated port spec → catch-all bucket).
    trace.append((15.0, _tcp("10.1.0.13", "203.0.113.60", 44000, 8443, 0x04)))

    # 11. BitTorrent handshake + DHT ping (content rules, UDP high ports).
    cseq, _ = _handshake(trace, 16.0, "10.1.0.14", "198.51.100.9", 45000, 51413)
    trace.append((16.03, _tcp("10.1.0.14", "198.51.100.9", 45000, 51413, PSH | ACK,
                              seq=cseq, payload=b"\x13BitTorrent protocol" + b"\x00" * 8)))
    trace.append((16.1, _udp("10.1.0.14", "198.51.100.9", 45001, 6889,
                             b"d1:ad2:id20:abcdefghij0123456789e1:q4:ping")))

    # 12. Raw-bytes payload with a non-transport protocol (ip rules only).
    trace.append((17.0, IPPacket(src="10.1.0.15", dst="203.0.113.70",
                                 payload=b"\x00" * 32, protocol=47)))

    trace.sort(key=lambda item: item[0])
    return trace


#: payload corpus for the random trace: censored keywords (both cases),
#: protocol signatures, and inert filler, so literal hits, nocase paths,
#: and keyword-split-across-segments all occur by construction
_CORPUS = (
    b"GET /falun HTTP/1.1\r\nHost: example.org\r\n\r\n"
    b"GET / HTTP/1.1\r\nHost: TWITTER.com\r\n\r\n"
    b"\x13BitTorrent protocol" + b"\x00" * 8 +
    b"c2 beacon heartbeat " + b"benign filler bytes " * 3 +
    b"d1:ad2:id20:abcdefghij0123456789e1:q4:ping"
    b"ultrasurf tor-bridge GETx malicious xyzzy "
)


def build_random_trace(seed=1129, count=600):
    """Seeded mixed traffic: streamed TCP flows slicing keyword-bearing
    payload into odd-sized segments, plus random UDP/ICMP/raw datagrams."""
    rng = random.Random(seed)
    trace = []
    now = 0.0
    sources = [f"10.2.0.{i}" for i in range(1, 6)] + ["10.1.0.99"]
    dests = ["203.0.113.10", "198.51.100.5", "203.0.113.50"]
    tcp_ports = [80, 4444, 6881, 8443, 25, 51413]
    udp_ports = [53, 7002, 9999, 6889, 30000]
    # A few long-lived TCP flows streaming the corpus in random chunks.
    flows = []
    for i in range(6):
        flows.append({
            "src": rng.choice(sources), "dst": rng.choice(dests),
            "sport": 40000 + i, "dport": rng.choice(tcp_ports),
            "seq": 100, "sent": 0,
        })
    for _ in range(count):
        now += rng.random() * 0.3
        shape = rng.random()
        if shape < 0.45:
            flow = rng.choice(flows)
            if flow["sent"] == 0:
                trace.append((now, _tcp(flow["src"], flow["dst"], flow["sport"],
                                        flow["dport"], SYN, seq=flow["seq"] - 1)))
                flow["sent"] = 1
                continue
            chunk = _CORPUS[flow["sent"] % len(_CORPUS):][: rng.randint(1, 17)]
            if not chunk:
                chunk = _CORPUS[: rng.randint(1, 17)]
            trace.append((now, _tcp(flow["src"], flow["dst"], flow["sport"],
                                    flow["dport"], PSH | ACK, seq=flow["seq"],
                                    payload=chunk)))
            flow["seq"] += len(chunk)
            flow["sent"] += len(chunk)
            if rng.random() < 0.08:  # retransmission (overlap policies)
                trace.append((now + 0.001,
                              _tcp(flow["src"], flow["dst"], flow["sport"],
                                   flow["dport"], PSH | ACK,
                                   seq=flow["seq"] - len(chunk), payload=chunk)))
        elif shape < 0.65:
            flags = rng.choice([SYN, SYN | ACK, ACK, PSH | ACK, 0x04, 0x01 | ACK])
            trace.append((now, _tcp(rng.choice(sources), rng.choice(dests),
                                    rng.randint(1024, 65000), rng.choice(tcp_ports),
                                    flags, seq=rng.randint(1, 10_000))))
        elif shape < 0.85:
            start = rng.randint(0, len(_CORPUS) - 1)
            payload = _CORPUS[start : start + rng.randint(0, 40)]
            trace.append((now, _udp(rng.choice(sources), rng.choice(dests),
                                    rng.randint(1024, 65000),
                                    rng.choice(udp_ports), payload)))
        elif shape < 0.95:
            trace.append((now, IPPacket(
                src=rng.choice(sources), dst=rng.choice(dests),
                payload=ICMPMessage.echo_request(ident=rng.randint(1, 9),
                                                 sequence=rng.randint(0, 5)))))
        else:
            trace.append((now, IPPacket(src=rng.choice(sources),
                                        dst=rng.choice(dests),
                                        payload=bytes(rng.randint(0, 30)),
                                        protocol=47)))
    return trace


def _alert_key(alert):
    return (round(alert.time, 6), alert.sid, alert.action, alert.classtype,
            alert.src, alert.dst, alert.sport, alert.dport)


@pytest.mark.parametrize("overlap_policy", ["first", "last"])
def test_indexed_and_naive_paths_emit_identical_alert_sequences(overlap_policy):
    fast = RuleEngine.from_text(_ruleset_text(), variables=DEFAULT_VARIABLES,
                                overlap_policy=overlap_policy, use_index=True)
    naive = RuleEngine.from_text(_ruleset_text(), variables=DEFAULT_VARIABLES,
                                 overlap_policy=overlap_policy, use_index=False)
    assert fast.use_index and fast._index is not None
    assert not naive.use_index and naive._index is None

    per_packet_equal = True
    for when, packet in build_trace():
        fast_alerts = fast.process(packet, when)
        naive_alerts = naive.process(packet, when)
        if [_alert_key(a) for a in fast_alerts] != [_alert_key(a) for a in naive_alerts]:
            per_packet_equal = False

    assert per_packet_equal, "some packet produced different alerts on the two paths"
    assert [_alert_key(a) for a in fast.alerts] == [_alert_key(a) for a in naive.alerts]
    assert fast.packets_processed == naive.packets_processed
    # The trace must actually exercise the interesting machinery.
    sids_fired = {a.sid for a in naive.alerts}
    assert len(naive.alerts) >= 8
    assert 910002 in sids_fired  # bidirectional reverse dispatch
    assert 910003 in sids_fired  # enumerated port-range bucket
    assert 910005 in sids_fired  # icmp itype
    assert 910006 in sids_fired  # negated content (no anchor)
    assert any(a.sid >= 2000000 and a.sid < 2100000 for a in naive.alerts), \
        "no threshold/detection rule fired"


#: every engine configuration that must be alert-for-alert identical to
#: the naive reference scan: the production one (dispatch index plus the
#: multipattern prefilter), the only configuration besides the reference
ENGINE_CONFIGS = [pytest.param(True, id="True-multipattern")]


def _run_single(engine, trace):
    out = []
    for when, packet in trace:
        out.extend(engine.process(packet, when))
    return out


def _run_batched(engine, trace, batch_size=7):
    """process_batch over uneven chunks, exercising batch boundaries."""
    out = []
    for start in range(0, len(trace), batch_size):
        chunk = trace[start : start + batch_size]
        for alerts in engine.process_batch(
            [packet for _when, packet in chunk],
            [when for when, _packet in chunk],
        ):
            out.extend(alerts)
    return out


@pytest.mark.parametrize("trace_name", ["handbuilt", "random"])
@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("use_index", ENGINE_CONFIGS)
def test_cross_product_equivalence(trace_name, batched, use_index):
    """Engine configuration × single-vs-batch × trace: identical alert
    sequences to the reference."""
    trace = build_trace() if trace_name == "handbuilt" else build_random_trace()
    reference = RuleEngine.from_text(
        _ruleset_text(), variables=DEFAULT_VARIABLES, use_index=False,
    )
    engine = RuleEngine.from_text(
        _ruleset_text(), variables=DEFAULT_VARIABLES, use_index=use_index,
    )
    expected = _run_single(reference, trace)
    got = _run_batched(engine, trace) if batched else _run_single(engine, trace)
    assert [_alert_key(a) for a in got] == [_alert_key(a) for a in expected]
    assert [_alert_key(a) for a in engine.alerts] == \
        [_alert_key(a) for a in reference.alerts]
    assert engine.packets_processed == reference.packets_processed
    # the traces actually exercise the machinery under test
    assert len(expected) >= 8


def test_random_trace_fires_content_rules():
    """The random trace must hit literal rules (or the cross-product test
    proves nothing about the multipattern prefilter)."""
    engine = RuleEngine.from_text(_ruleset_text(), variables=DEFAULT_VARIABLES)
    for when, packet in build_random_trace():
        engine.process(packet, when)
    fired = {alert.sid for alert in engine.alerts}
    content_sids = {
        rule.sid for rule in engine.rules
        if any(not c.negated and c.pattern for c in rule.contents)
    }
    assert fired & content_sids, "no content rule fired on the random trace"


def test_process_batch_single_timestamp():
    """A scalar ``now`` applies to every packet in the batch."""
    engine = RuleEngine.from_text(_ruleset_text(), variables=DEFAULT_VARIABLES)
    reference = RuleEngine.from_text(_ruleset_text(), variables=DEFAULT_VARIABLES)
    packets = [packet for _when, packet in build_trace()[:40]]
    batch_alerts = engine.process_batch(packets, 5.0)
    single_alerts = [reference.process(packet, 5.0) for packet in packets]
    assert [[_alert_key(a) for a in alerts] for alerts in batch_alerts] == \
        [[_alert_key(a) for a in alerts] for alerts in single_alerts]


def test_equivalence_under_rule_addition():
    """add_rules must keep the index in sync with the rule list."""
    fast = RuleEngine.from_text(_ruleset_text(), variables=DEFAULT_VARIABLES)
    naive = RuleEngine.from_text(_ruleset_text(), variables=DEFAULT_VARIABLES,
                                 use_index=False)
    extra = 'alert tcp any any -> any 8443 (msg:"EQ late rule"; flags:R; sid:920000;)'
    fast.add_rules(extra)
    naive.add_rules(extra)
    for when, packet in build_trace():
        fast_alerts = fast.process(packet, when)
        naive_alerts = naive.process(packet, when)
        assert [_alert_key(a) for a in fast_alerts] == [_alert_key(a) for a in naive_alerts]
    assert 920000 in {a.sid for a in fast.alerts}


# -- stream fast path: payload memo and alerted-sid skip -----------------------

#: Stream rules whose payload options the indexed engine memoises per flow
#: direction, with a pcre-only rule (never literal-filtered), a negated
#: content rule, a thresholded rule and a pass rule (both exempt from the
#: alerted-sid skip).
STREAM_RULES = "\n".join([
    'alert tcp any any -> any 8080 (msg:"EQ stream pcre"; flow:to_server; pcre:"/se+cret/i"; sid:930001;)',
    'alert tcp any any -> any 8080 (msg:"EQ stream token"; content:"token"; sid:930002;)',
    'alert tcp any any -> any 8080 (msg:"EQ stream limited"; content:"GET"; '
    'threshold: type limit, track by_src, count 2, seconds 60; sid:930003;)',
    'pass tcp any any -> any 8080 (msg:"EQ stream pass"; content:"allowlisted"; sid:930004;)',
    'alert tcp any any -> any 8080 (msg:"EQ stream negated"; content:!"benign"; sid:930005;)',
    'alert tcp any 8080 -> any any (msg:"EQ stream reply"; content:"200 OK"; sid:930006;)',
])

_STREAM_CORPUS = (
    b"GET /a HTTP/1.1 token seecret benign allowlisted GET /b SECRET "
    b"HTTP/1.1 200 OK filler filler token GET "
)


def build_stream_trace(seed=2015, flows=8, steps=60):
    """Flows to port 8080 mixing new data, pure ACKs (unchanged streams),
    server replies, and same-length retransmissions with other bytes
    (rewrites under overlap policy "last")."""
    rng = random.Random(seed)
    trace = []
    now = 0.0
    state = []
    for i in range(flows):
        client = f"10.3.0.{i + 1}"
        cseq, sseq = _handshake(trace, now, client, "203.0.113.80", 41000 + i, 8080)
        now += 0.05
        state.append({"client": client, "sport": 41000 + i, "seq": cseq, "sseq": sseq,
                      "last": None})
    for _ in range(steps * flows):
        now += 0.01
        flow = rng.choice(state)
        c, cp = flow["client"], flow["sport"]
        shape = rng.random()
        if shape < 0.35:
            start = rng.randrange(len(_STREAM_CORPUS))
            chunk = _STREAM_CORPUS[start : start + rng.randint(1, 24)]
            trace.append((now, _tcp(c, "203.0.113.80", cp, 8080, PSH | ACK,
                                    seq=flow["seq"], ack=flow["sseq"], payload=chunk)))
            flow["last"] = (flow["seq"], len(chunk))
            flow["seq"] += len(chunk)
        elif shape < 0.70:
            trace.append((now, _tcp(c, "203.0.113.80", cp, 8080, ACK,
                                    seq=flow["seq"], ack=flow["sseq"])))
        elif shape < 0.85:
            reply = rng.choice([b"HTTP/1.1 200 OK\r\n", b"filler", b"200 O", b"K"])
            trace.append((now, _tcp("203.0.113.80", c, 8080, cp, PSH | ACK,
                                    seq=flow["sseq"], ack=flow["seq"], payload=reply)))
            flow["sseq"] += len(reply)
        elif flow["last"] is not None:
            seq, length = flow["last"]
            start = rng.randrange(len(_STREAM_CORPUS))
            other = (_STREAM_CORPUS[start:] + _STREAM_CORPUS)[:length]
            trace.append((now, _tcp(c, "203.0.113.80", cp, 8080, PSH | ACK,
                                    seq=seq, ack=flow["sseq"], payload=other)))
    return trace


def _counting(engine, name):
    """Wrap one engine method to count its calls."""
    calls = [0]
    method = getattr(engine, name)

    def counted(*args):
        calls[0] += 1
        return method(*args)

    setattr(engine, name, counted)
    return calls


@pytest.mark.parametrize("overlap_policy", ["first", "last"])
def test_stream_memo_and_alerted_skip_match_naive(overlap_policy):
    fast = RuleEngine.from_text(STREAM_RULES, overlap_policy=overlap_policy)
    naive = RuleEngine.from_text(STREAM_RULES, overlap_policy=overlap_policy,
                                 use_index=False)
    fast_payload = _counting(fast, "_payload_matches")
    naive_payload = _counting(naive, "_payload_matches")
    fast_options = _counting(fast, "_options_match")
    naive_options = _counting(naive, "_options_match")
    trace = build_stream_trace()
    assert [_alert_key(a) for a in _run_single(fast, trace)] == \
        [_alert_key(a) for a in _run_single(naive, trace)]
    fired = {alert.sid for alert in naive.alerts}
    assert {930001, 930002, 930003, 930005, 930006} <= fired
    # Both shortcuts really engaged on the indexed engine.
    assert fast_payload[0] < naive_payload[0] / 2
    assert fast_options[0] < naive_options[0]


def test_payload_memo_is_fenced_by_last_policy_rewrites():
    """A same-length rewrite keeps the buffer length but bumps the flow's
    content_version, so a memoised "no match" must not survive it."""
    text = 'alert tcp any any -> any 8080 (msg:"evil"; pcre:"/evil/"; sid:930100;)'
    engine = RuleEngine.from_text(text, overlap_policy="last")
    payload_calls = _counting(engine, "_payload_matches")

    def seg(flags, seq, payload=b""):
        return _tcp("10.3.1.1", "203.0.113.80", 42000, 8080, flags, seq=seq,
                    payload=payload)

    assert engine.process(seg(PSH | ACK, 100, b"good"), 0.0) == []
    assert payload_calls[0] == 1
    assert engine.process(seg(ACK, 104), 0.1) == []
    assert payload_calls[0] == 1  # unchanged stream: served from the memo
    flow = next(iter(engine.reassembler.flows.values()))
    version = flow.content_version
    alerts = engine.process(seg(PSH | ACK, 100, b"evil"), 0.2)
    assert flow.content_version == version + 1
    assert [alert.sid for alert in alerts] == [930100]
    assert payload_calls[0] == 2


def test_pass_rule_sharing_an_alerted_sid_is_not_skipped():
    """Only alert rules are skipped once their sid alerted on a flow; a
    pass rule must still run and suppress the packet's later rules."""
    first = 'alert tcp any any -> any 8080 (msg:"one"; content:"one"; sid:930200;)'
    later = "\n".join([
        'pass tcp any any -> any 8080 (msg:"pass two"; content:"two"; sid:930200;)',
        'alert tcp any any -> any 8080 (msg:"two"; content:"two"; sid:930201;)',
    ])
    engines = []
    for use_index in (True, False):
        engine = RuleEngine.from_text(first, use_index=use_index)
        engine.add_rules(later)
        engines.append(engine)
    trace = [
        (0.0, _tcp("10.3.2.1", "203.0.113.80", 42100, 8080, PSH | ACK, seq=1, payload=b"one")),
        (0.1, _tcp("10.3.2.1", "203.0.113.80", 42100, 8080, PSH | ACK, seq=4, payload=b"two")),
    ]
    fast, naive = ([_alert_key(a) for a in _run_single(e, trace)] for e in engines)
    assert fast == naive
    assert [key[1] for key in naive] == [930200]


def test_engine_has_one_production_configuration_plus_the_reference():
    """Every engine the simulation builds runs the production fast path
    (dispatch index plus multipattern automaton); ``use_index=False`` is
    the bare reference scan; the removed prefilter knob is gone."""
    engines = [build_censor(name)._engine
               for name in ("gfc", "bidirectional-residual", "throttler")]
    engines.append(SurveillanceSystem().engine)
    for engine in engines:
        assert engine._index is not None and engine._mp is not None
    reference = RuleEngine.from_text(_ruleset_text(), variables=DEFAULT_VARIABLES,
                                     use_index=False)
    assert reference._index is None and reference._mp is None
    with pytest.raises(TypeError):
        RuleEngine(**{"prefilter": "none"})
