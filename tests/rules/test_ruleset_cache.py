"""The process-wide compiled-ruleset cache and its copy-on-write contract.

Sweep workers build a censor and an MVR engine per point from the same
few ruleset texts; ``compiled_ruleset`` parses and indexes each
``(text, variables)`` once and every engine built by
``RuleEngine.from_text`` shares the parsed ``Rule`` objects and the
finalized dispatch index.  Sharing is only sound if an engine that
*extends* its ruleset builds a new index instead of editing the shared
one under its siblings — the contract ``test_automaton_cache.py`` pins
for the shared automaton.
"""

import pytest

from repro.packets import ACK, PROTO_TCP, PSH, SYN, IPPacket, TCPSegment
from repro.rules import DEFAULT_VARIABLES, RuleEngine, RuleParseError, parse_ruleset
from repro.rules.engine import (
    RULESET_CACHE_SIZE,
    clear_ruleset_cache,
    compiled_ruleset,
)
from repro.rules.rulesets import censor_ruleset_text

EXTRA_RULE = (
    'alert tcp any any -> any 8081 '
    '(msg:"CACHE cowtest"; content:"cowtest-needle"; sid:990001;)'
)
CLIENT, SERVER = "10.1.0.5", "203.0.113.10"


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_ruleset_cache()
    yield
    clear_ruleset_cache()


def engine():
    return RuleEngine.from_text(censor_ruleset_text(), variables=DEFAULT_VARIABLES)


def tcp(src, dst, sport, dport, flags, seq=0, ack=0, payload=b""):
    return IPPacket(src=src, dst=dst, payload=TCPSegment(
        sport=sport, dport=dport, seq=seq, ack=ack, flags=flags, payload=payload,
    ))


def conversation(dport, payload):
    """A handshake plus one request to ``SERVER:dport``."""
    return [
        tcp(CLIENT, SERVER, 40000, dport, SYN, seq=100),
        tcp(SERVER, CLIENT, dport, 40000, SYN | ACK, seq=500, ack=101),
        tcp(CLIENT, SERVER, 40000, dport, ACK, seq=101, ack=501),
        tcp(CLIENT, SERVER, 40000, dport, PSH | ACK, seq=101, ack=501,
            payload=payload),
    ]


TRAFFIC = (
    conversation(80, b"GET / HTTP/1.1\r\nHost: twitter.com\r\n\r\n")
    + conversation(8081, b"GET /cowtest-needle HTTP/1.1\r\n\r\n")
)


def alerts_of(rule_engine):
    return [
        (alert.sid, alert.src, alert.dport)
        for index, packet in enumerate(TRAFFIC)
        for alert in rule_engine.process(packet.copy(), index * 0.01)
    ]


def bucket_sids(rule_engine, dport, sport=40000):
    bucket = rule_engine._index.lookup(PROTO_TCP, dport, sport)
    return [rule.sid for rule in bucket.rules]


class TestCompiledRuleset:
    def test_engines_from_same_text_share_rules_and_index(self):
        first, second = engine(), engine()
        assert first._index is second._index
        assert len(first.rules) == len(second.rules) > 0
        assert all(a is b for a, b in zip(first.rules, second.rules))
        # ...but each engine owns its rule list and sid map.
        assert first.rules is not second.rules
        assert first._by_sid is not second._by_sid

    def test_key_includes_variables(self):
        text = censor_ruleset_text()
        home = compiled_ruleset(text, dict(DEFAULT_VARIABLES))
        other = compiled_ruleset(text, {**DEFAULT_VARIABLES, "HOME_NET": "10.9.0.0/16"})
        assert home is not other
        reordered = dict(reversed(list(DEFAULT_VARIABLES.items())))
        assert compiled_ruleset(text, reordered) is home

    def test_parse_failure_is_not_cached(self):
        bad = 'alert tcp any any -> any 80 (msg:"no sid";)'
        for _ in range(2):
            with pytest.raises(RuleParseError, match="line 1"):
                RuleEngine.from_text(bad)
        assert clear_ruleset_cache() == 0

    def test_cache_is_bounded(self):
        for sid in range(1, RULESET_CACHE_SIZE + 6):
            RuleEngine.from_text(f'alert tcp any any -> any 80 (msg:"r"; sid:{sid};)')
        assert clear_ruleset_cache() == RULESET_CACHE_SIZE

    def test_uncached_engine_alerts_the_same(self):
        text = censor_ruleset_text()
        reference = RuleEngine(rules=parse_ruleset(text, dict(DEFAULT_VARIABLES)),
                               variables=DEFAULT_VARIABLES)
        engine()  # warm the cache
        assert alerts_of(engine()) == alerts_of(reference)
        assert alerts_of(engine())  # the traffic does trip the censor


class TestAddRulesIsolation:
    def test_add_rules_replaces_the_index_instead_of_writing(self):
        extender, bystander = engine(), engine()
        shared = bystander._index
        rules_before = list(bystander.rules)
        buckets_before = {port: bucket_sids(bystander, port) for port in (80, 443, 8081)}

        extender.add_rules(EXTRA_RULE)

        assert extender._index is not shared
        assert bystander._index is shared
        assert bystander.rules == rules_before
        assert 990001 not in bystander._by_sid
        assert {port: bucket_sids(bystander, port) for port in (80, 443, 8081)} \
            == buckets_before
        assert 990001 in bucket_sids(extender, 8081)
        assert 990001 not in bucket_sids(engine(), 8081)

    def test_bystander_alerts_unchanged(self):
        extender, bystander = engine(), engine()
        extender.add_rules(EXTRA_RULE)
        fresh = RuleEngine(
            rules=parse_ruleset(censor_ruleset_text(), dict(DEFAULT_VARIABLES)),
            variables=DEFAULT_VARIABLES,
        )
        expected = alerts_of(fresh)
        assert alerts_of(bystander) == expected
        assert 990001 not in {sid for sid, _src, _port in expected}
        assert 990001 in {sid for sid, _src, _port in alerts_of(extender)}

    def test_second_extension_stays_private(self):
        extender = engine()
        extender.add_rules(EXTRA_RULE)
        extender.add_rules(
            'alert tcp any any -> any 8082 '
            '(msg:"CACHE two"; content:"second-needle"; sid:990002;)'
        )
        assert 990001 in bucket_sids(extender, 8081)
        assert 990002 in bucket_sids(extender, 8082)
        assert 990002 not in bucket_sids(engine(), 8082)
