"""The literal gate on pure-alternation ``pcre`` options.

A pcre body that is a pure literal alternation (``/a|b|c/i``) matches
exactly where one of its alternatives occurs, ASCII case-folded under
``i``.  The indexed engine interns the alternatives into its automaton
and skips the regex when none of them was seen.  The gate is sound only
if (a) the decision agrees with ``re.search`` on every haystack, (b) no
pattern with more than literals gets a gate, (c) the indexed engine's
alerts equal the reference engine's, and (d) an automaton shared through
the process cache always carries the gate literals of the rules that
read it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.packets import ACK, IPPacket, PSH, SYN, TCPSegment, UDPDatagram
from repro.rules import (
    DEFAULT_VARIABLES,
    RuleEngine,
    mvr_detection_ruleset_text,
    parse_rule,
    parse_ruleset,
    surveillance_interest_ruleset_text,
)
from repro.rules.matcher import PcreOption
from repro.rules.multipattern import (
    MultiPatternAutomaton,
    clear_automaton_cache,
    pcre_gate_ids,
    shared_automaton,
)

#: alternative characters: mixed-case letters, digits, ``%``, space and
#: other bytes that are literal in a regex
ALT_CHARS = "aAbBcCxXzZ019% -_@#"

alternatives = st.lists(
    st.text(alphabet=ALT_CHARS, min_size=1, max_size=6), min_size=1, max_size=4
)


def _flip_case(text: str, rng: random.Random) -> str:
    return "".join(
        char.swapcase() if rng.random() < 0.5 else char for char in text
    )


def _gated_rule(body: str, modifiers: str):
    return parse_rule(
        f'alert tcp any any -> any any (msg:"gate"; '
        f'pcre:"/{body}/{modifiers}"; sid:1;)'
    )


class TestGateDecision:
    @settings(max_examples=300, deadline=None)
    @given(
        alts=alternatives,
        nocase=st.booleans(),
        filler=st.text(alphabet=ALT_CHARS, max_size=400),
        plant=st.booleans(),
        flip=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_gate_skips_only_where_the_regex_finds_nothing(
        self, alts, nocase, filler, plant, flip, seed
    ):
        rng = random.Random(seed)
        rule = _gated_rule("|".join(alts), "i" if nocase else "")
        (pcre,) = rule.pcres
        (gate,) = pcre_gate_ids(rule)
        assert gate is not None
        text = filler
        if plant:
            alt = rng.choice(alts)
            if flip:
                alt = _flip_case(alt, rng)
            cut = rng.randint(0, len(text))
            text = text[:cut] + alt + text[cut:]
        haystack = text.encode("latin-1")
        automaton = MultiPatternAutomaton()
        automaton.add_rules([rule])
        present = automaton.scan(haystack)
        skipped = present.isdisjoint(gate)
        found = pcre.regex.search(haystack) is not None
        # sound (a skip finds nothing) and exact (a miss is skipped)
        assert skipped == (not found)

    def test_case_folding_is_ascii_only_on_both_sides(self):
        """``re.IGNORECASE`` on bytes and ``bytes.lower`` fold the same
        (ASCII) letters, so a Latin-1 capital does not match its small."""
        rule = _gated_rule("caf\xe9", "i")
        (gate,) = pcre_gate_ids(rule)
        automaton = MultiPatternAutomaton()
        automaton.add_rules([rule])
        for haystack in (b"CAF\xe9", b"caf\xc9", b"CAF\xc9"):
            found = rule.pcres[0].regex.search(haystack) is not None
            assert automaton.scan(haystack).isdisjoint(gate) == (not found)


class TestUngated:
    @pytest.mark.parametrize(
        "text",
        [
            "/a.b/i",
            r"/a\d/",
            r"/a\|b/",
            "/^abc/",
            "/abc$/",
            "/a*b/",
            "/a+b/",
            "/ab?/",
            "/a{2}/",
            "/[ab]/",
            "/(ab)/",
            "/a||b/",
            "/|ab/",
            "/ab|/",
            "//",
            "!/ab|cd/i",
            "/ab|cd/x",
            "/ab|cd/iG",
        ],
    )
    def test_no_gate(self, text):
        assert PcreOption.parse(text).gate is None
        rule = parse_rule(
            f'alert tcp any any -> any any (msg:"x"; pcre:"{text}"; sid:2;)'
        )
        assert pcre_gate_ids(rule) is None

    @pytest.mark.parametrize("modifiers", ["", "i", "s", "m", "ismRUP"])
    def test_literal_alternations_are_gated(self, modifiers):
        gate = PcreOption.parse(f"/Ab|100% sure/{modifiers}").gate
        nocase = "i" in modifiers
        expected = (b"ab", b"100% sure") if nocase else (b"Ab", b"100% sure")
        assert gate == tuple((needle, nocase) for needle in expected)

    def test_mixed_rule_gates_only_the_literal_pcre(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"x"; pcre:"/a.b/"; '
            'pcre:"/cd|ef/i"; sid:3;)'
        )
        first, second = pcre_gate_ids(rule)
        assert first is None and second is not None and len(second) == 2


# -- engine equivalence --------------------------------------------------------

CLIENT = "10.1.0.5"
RELAY = "198.51.100.25"
SPAM_BODY = b"DATA\r\nSubject: you are a WINNER\r\n\r\nbuy Cheap Meds today\r\n.\r\n"
HAM_BODY = b"DATA\r\nSubject: minutes\r\n\r\nnotes from the meeting\r\n.\r\n" * 3


def _tcp(src, dst, sport, dport, flags, seq, ack=0, payload=b""):
    return IPPacket(src=src, dst=dst, payload=TCPSegment(
        sport=sport, dport=dport, seq=seq, ack=ack, flags=flags, payload=payload))


def _smtp_flow(trace, t, sport, body, chunk):
    """A handshake, then ``body`` client-to-server in ``chunk``-byte
    segments (so the alternatives straddle segment boundaries)."""
    trace.append((t, _tcp(CLIENT, RELAY, sport, 25, SYN, 100)))
    trace.append((t + 0.01, _tcp(RELAY, CLIENT, 25, sport, SYN | ACK, 500, 101)))
    trace.append((t + 0.02, _tcp(CLIENT, RELAY, sport, 25, ACK, 101, 501)))
    seq = 101
    for index, start in enumerate(range(0, len(body), chunk)):
        segment = body[start:start + chunk]
        trace.append((t + 0.03 + 0.001 * index,
                      _tcp(CLIENT, RELAY, sport, 25, PSH | ACK, seq, 501, segment)))
        seq += len(segment)


def _dns_query(src, sport, qname):
    labels = b"".join(
        bytes([len(label)]) + label.encode() for label in qname.split(".")
    )
    payload = b"\x12\x34\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00" + labels + b"\x00\x00\x01\x00\x01"
    return IPPacket(src=src, dst="8.8.8.8",
                    payload=UDPDatagram(sport=sport, dport=53, payload=payload))


def _trace():
    trace = []
    _smtp_flow(trace, 0.0, 40001, SPAM_BODY, 7)
    _smtp_flow(trace, 1.0, 40002, HAM_BODY, 11)
    _smtp_flow(trace, 2.0, 40003, SPAM_BODY, 1000)
    names = ["www.twitter.com", "example.org", "m.YouTube.com", "news.bbc.co.uk",
             "plain.example.net", "vimeo.com", "www.nytimes.com", "dropbox.com",
             "cdn-00.example.com", "instagram.com", "facebook.com"]
    for index, name in enumerate(names * 2):
        trace.append((3.0 + 0.1 * index, _dns_query(CLIENT, 50000 + index, name)))
        trace.append((3.05 + 0.1 * index, _dns_query("10.1.0.9", 51000 + index, "example.org")))
    return trace


class _CountingRegex:
    """Stands in for a compiled regex and counts ``search`` calls."""

    def __init__(self, regex):
        self.regex = regex
        self.calls = 0

    def search(self, data):
        self.calls += 1
        return self.regex.search(data)


def _engine(use_index):
    rules = parse_ruleset(
        "\n".join([mvr_detection_ruleset_text(), surveillance_interest_ruleset_text()]),
        dict(DEFAULT_VARIABLES),
    )
    counters = {}
    for rule in rules:
        if rule.sid in (2000022, 3000900):
            counter = counters[rule.sid] = _CountingRegex(rule.pcres[0].regex)
            rule.pcres[0].regex = counter
    return RuleEngine(rules=rules, variables=dict(DEFAULT_VARIABLES),
                      use_index=use_index), counters


def _alerts(engine, trace):
    return [
        (round(alert.time, 6), alert.sid, alert.src, alert.sport, alert.dport)
        for when, packet in trace
        for alert in engine.process(packet, when)
    ]


class TestEngineEquivalence:
    def test_indexed_and_reference_alert_streams_are_identical(self):
        trace = _trace()
        indexed, indexed_calls = _engine(True)
        reference, reference_calls = _engine(False)
        fast = _alerts(indexed, trace)
        slow = _alerts(reference, trace)
        assert fast == slow
        sids = [alert[1] for alert in fast]
        # both spam flows fire, the ham flow does not, and the bulk DNS
        # rule fires once its threshold is reached
        assert [alert[3] for alert in fast if alert[1] == 2000022] == [40001, 40003]
        assert 3000900 in sids
        # the gate keeps the regexes off streams without their literals
        assert indexed_calls[2000022].calls < reference_calls[2000022].calls
        assert indexed_calls[3000900].calls < reference_calls[3000900].calls

    def test_ham_stream_never_runs_the_spam_regex(self):
        trace = []
        _smtp_flow(trace, 0.0, 40002, HAM_BODY, 11)
        indexed, calls = _engine(True)
        assert _alerts(indexed, trace) == []
        assert calls[2000022].calls == 0


# -- the automaton cache key ---------------------------------------------------


@pytest.fixture
def fresh_cache():
    clear_automaton_cache()
    yield
    clear_automaton_cache()


def _ruleset(pcre):
    text = 'alert tcp any any -> any 25 (msg:"c"; content:"MAIL FROM"; sid:11;)'
    if pcre:
        text += f'\nalert tcp any any -> any 25 (msg:"p"; pcre:"{pcre}"; sid:12;)'
    return parse_ruleset(text, {})


class TestAutomatonKey:
    def test_different_gates_get_different_automata(self, fresh_cache):
        spam = shared_automaton(_ruleset("/casino|jackpot/i"))
        other = shared_automaton(_ruleset("/lottery/i"))
        plain = shared_automaton(_ruleset(None))
        assert len({id(spam), id(other), id(plain)}) == 3
        haystack = b"MAIL FROM:<a@b>\r\nwin the JACKPOT"
        rules = _ruleset("/casino|jackpot/i")
        (gate,) = pcre_gate_ids(rules[1])
        assert not spam.scan(haystack).isdisjoint(gate)

    def test_same_gates_share_one_automaton(self, fresh_cache):
        assert shared_automaton(_ruleset("/casino|jackpot/i")) is shared_automaton(
            _ruleset("/JACKPOT|Casino/i")
        )

    def test_extended_engine_automaton_carries_new_gates(self, fresh_cache):
        engine = RuleEngine(rules=_ruleset(None))
        engine.add_rules(
            'alert tcp any any -> any 25 (msg:"p"; pcre:"/jackpot/i"; '
            'flow:to_server; sid:13;)'
        )
        trace = []
        _smtp_flow(trace, 0.0, 40100, b"DATA\r\nJackpot\r\n", 5)
        assert [alert[1] for alert in _alerts(engine, trace)] == [13]
