"""The multipattern automaton's contract: exact hits, never a superset.

The prefilter is only sound if :meth:`MultiPatternAutomaton.scan` reports
*precisely* the literals present in a haystack — a missed literal would
silently drop alerts, an invented one merely wastes work.  Hypothesis
drives the automaton with adversarial literal sets (overlapping needles,
shared prefixes/suffixes, case-sensitive and nocase members of the same
folded pattern) over both scan strategies (the DFA walk and the
per-pattern C ``in`` path for large haystacks) and the incremental
chunked stream scan, always comparing against the one-``in``-per-literal
reference semantics.
"""

from hypothesis import given, settings, strategies as st

from repro.rules import RuleEngine, parse_rule
from repro.rules.multipattern import (
    ONE_SHOT_DFA_LIMIT,
    MultiPatternAutomaton,
    anchor_literal_id,
    intern_literal,
    literal_of,
    required_literal_ids,
)

# A deliberately tiny alphabet so random needles overlap, nest, and share
# prefixes constantly — the hard cases for failure links and output
# collapsing.  Mixed case exercises folding + raw confirmation.
ALPHABET = list(b"abAB")
HAY_ALPHABET = list(b"abABcd")

needles = st.lists(
    st.sampled_from(ALPHABET), min_size=1, max_size=5
).map(bytes)

#: (needle, nocase) pairs honouring the parser contract: nocase needles
#: arrive pre-lowered (``ContentOption.needle()`` lowers them once).
literals = st.lists(
    st.tuples(needles, st.booleans()).map(
        lambda pair: (pair[0].lower(), True) if pair[1] else (pair[0], False)
    ),
    min_size=1,
    max_size=12,
)

haystacks = st.lists(
    st.sampled_from(HAY_ALPHABET), min_size=0, max_size=80
).map(bytes)

large_haystacks = st.lists(
    st.sampled_from(HAY_ALPHABET),
    min_size=ONE_SHOT_DFA_LIMIT + 1,
    max_size=ONE_SHOT_DFA_LIMIT + 200,
).map(bytes)


def _build(literal_pairs):
    automaton = MultiPatternAutomaton()
    for needle, nocase in literal_pairs:
        automaton.add_literal(needle, nocase)
    return automaton


def _reference(automaton, haystack):
    """What every strategy must report: one ``in`` per known literal."""
    lowered = haystack.lower()
    return {
        lid
        for lid in automaton.known_ids()
        if literal_of(lid)[0] in (lowered if literal_of(lid)[1] else haystack)
    }


class TestScanExactness:
    @settings(max_examples=300, deadline=None)
    @given(literals, haystacks)
    def test_dfa_scan_equals_naive_in(self, literal_pairs, haystack):
        automaton = _build(literal_pairs)
        assert automaton.scan(haystack) == _reference(automaton, haystack)

    @settings(max_examples=60, deadline=None)
    @given(literals, large_haystacks)
    def test_large_haystack_path_equals_naive_in(self, literal_pairs, haystack):
        assert len(haystack) > ONE_SHOT_DFA_LIMIT  # the per-pattern C path
        automaton = _build(literal_pairs)
        assert automaton.scan(haystack) == _reference(automaton, haystack)

    @settings(max_examples=150, deadline=None)
    @given(literals, haystacks, st.integers(min_value=1, max_value=7))
    def test_chunked_stream_scan_equals_one_shot(
        self, literal_pairs, haystack, step
    ):
        """Resumable scanning over a growing buffer sees cross-chunk
        matches and reports the same set as one scan of the final buffer."""
        automaton = _build(literal_pairs)
        present = set()
        state = 0
        scanned = 0
        for end in range(step, len(haystack) + step, step):
            buffer = haystack[:end]
            state = automaton.scan_chunk(
                buffer.lower(), buffer, scanned, state, present
            )
            scanned = len(buffer)
        assert present == _reference(automaton, haystack)

    @settings(max_examples=100, deadline=None)
    @given(literals, literals, haystacks)
    def test_midlife_extension_rescans_correctly(
        self, first, second, haystack
    ):
        """add_literal after a scan extends the automaton; the next scan
        reflects the union and bumps the version (stream-state fencing)."""
        automaton = _build(first)
        automaton.scan(haystack)
        version_before = automaton.ensure_ready()
        known_before = automaton.known_ids()
        for needle, nocase in second:
            automaton.add_literal(needle, nocase)
        grew = not (automaton.known_ids() <= known_before)
        assert automaton.scan(haystack) == _reference(automaton, haystack)
        if grew:
            # a genuine extension re-finalized; the stream-state fence
            # (the version ensure_ready reports) must have moved past
            # every saved StreamScanState
            assert automaton.ensure_ready() > version_before


#: Literal bytes that are special inside a regex byte class (``]``,
#: ``\\``, ``^``, ``-``) or sit at the ends of the byte range (NUL, 0xFF):
#: the root skip must treat them as plain bytes.
SPECIAL = list(b"]\\^-\x00\xff")

special_literals = st.lists(
    st.tuples(
        st.lists(st.sampled_from(SPECIAL + list(b"aB")), min_size=1, max_size=4).map(bytes),
        st.booleans(),
    ).map(lambda pair: (pair[0].lower(), True) if pair[1] else (pair[0], False)),
    min_size=1,
    max_size=8,
)

#: Either no byte that leaves the root (the walk skips the whole haystack)
#: or root-leaving bytes mixed with inert ones; long enough that stream
#: tails cross ``ONE_SHOT_DFA_LIMIT`` and take the root-skipping walk.
skip_haystacks = st.one_of(
    st.lists(st.sampled_from(list(b"xyz[Z")), max_size=700).map(bytes),
    st.lists(st.sampled_from(SPECIAL + list(b"aAbBxyz[")), max_size=700).map(bytes),
)


def _stream_scan(automaton, haystack, ends):
    """Scan ``haystack`` as a stream growing to each of ``ends``, carrying
    the DFA state across chunk boundaries."""
    present = set()
    state = 0
    scanned = 0
    for end in ends:
        buffer = haystack[:end]
        state = automaton.scan_chunk(buffer.lower(), buffer, scanned, state, present)
        scanned = end
    return present, state


class TestRootSkipWalk:
    """In state 0 the stream walk jumps over bytes that cannot leave the
    root; it must report exactly what ``in`` (and a per-byte walk) would."""

    @settings(max_examples=200, deadline=None)
    @given(special_literals, skip_haystacks)
    def test_skip_walk_equals_naive_and_per_byte_walk(self, literal_pairs, haystack):
        automaton = _build(literal_pairs)
        automaton.ensure_ready()
        lowered = haystack.lower()
        skipped, walked = set(), set()
        skip_state = automaton._skip_walk(lowered, haystack, 0, 0, skipped)
        walk_state = automaton._walk(lowered, haystack, 0, 0, walked)
        assert skipped == walked == automaton.naive_present(haystack)
        assert skip_state == walk_state

    @settings(max_examples=200, deadline=None)
    @given(special_literals, skip_haystacks, st.lists(st.integers(0, 700), max_size=6))
    def test_chunked_scan_carries_state_across_boundaries(
        self, literal_pairs, haystack, cuts
    ):
        automaton = _build(literal_pairs)
        ends = sorted({cut for cut in cuts if cut < len(haystack)}) + [len(haystack)]
        present, _state = _stream_scan(automaton, haystack, ends)
        assert present == automaton.naive_present(haystack)

    def test_only_root_leaving_bytes_stop_the_skip(self):
        """``a``, ``-``, ``z``, NUL and 0xFF leave the root; ``m`` does not."""
        automaton = MultiPatternAutomaton()
        ids = {
            needle: automaton.add_literal(needle, False)
            for needle in (b"a", b"-", b"z", b"\x00", b"\xff")
        }
        filler = b"m" * (2 * ONE_SHOT_DFA_LIMIT)
        assert _stream_scan(automaton, filler, [len(filler)]) == (set(), 0)
        for needle, lid in ids.items():
            hay = filler + needle + filler
            assert _stream_scan(automaton, hay, [len(hay)])[0] == {lid}

    def test_literal_split_across_chunks_resumes_mid_match(self):
        automaton = MultiPatternAutomaton()
        lid = automaton.add_literal(b"\x00]^", False)
        head = b"x" * (2 * ONE_SHOT_DFA_LIMIT) + b"\x00]"
        present, state = _stream_scan(automaton, head, [len(head)])
        assert state != 0 and not present
        whole = head + b"^" + b"y" * (2 * ONE_SHOT_DFA_LIMIT)
        assert _stream_scan(automaton, whole, [len(head), len(whole)])[0] == {lid}

    def test_skip_positions_are_relative_to_the_resumed_tail(self):
        automaton = MultiPatternAutomaton()
        lid = automaton.add_literal(b"\x00]^", False)
        head = b"x" * (2 * ONE_SHOT_DFA_LIMIT)
        whole = head + b"y" * ONE_SHOT_DFA_LIMIT + b"\x00]^" + b"z" * 10
        assert _stream_scan(automaton, whole, [len(head), len(whole)]) == ({lid}, 0)



class TestByteClasses:
    """DFA rows are indexed by byte class: one class per byte of some
    folded pattern, and class 0 for every other byte."""

    LITERALS = ((b"GET ", False), (b"viagra", True), (b"\x00\xff", False))

    def _automaton(self):
        automaton = MultiPatternAutomaton()
        ids = [automaton.add_literal(needle, nocase) for needle, nocase in self.LITERALS]
        automaton.ensure_ready()
        return automaton, ids

    def test_rows_hold_one_entry_per_pattern_byte_plus_one(self):
        automaton, _ids = self._automaton()
        distinct = set(b"get viagra\x00\xff")
        assert {len(row) for row in automaton._next} == {len(distinct) + 1}

    def test_every_byte_value_walks_like_naive_in(self):
        """Each of the 256 byte values, between and inside planted
        needles, through the per-byte walk and the root-skipping walk."""
        automaton, ids = self._automaton()
        every = bytes(range(256))
        for planted in (b"", b"GET ", b"VIAGRA", b"\x00\xff", b"viaXgra"):
            hay = every + planted + every[::-1]
            present = set()
            automaton._walk(hay.lower(), hay, 0, 0, present)
            assert present == automaton.naive_present(hay), planted
            assert _stream_scan(automaton, hay, [len(hay)])[0] == present, planted
        assert automaton.scan(b"x GET viagra") == set(ids[:2])

class TestOverlappingLiterals:
    def test_nested_and_overlapping_needles_all_hit(self):
        automaton = MultiPatternAutomaton()
        ids = {
            needle: automaton.add_literal(needle, False)
            for needle in (b"ab", b"bab", b"abab", b"b")
        }
        present = automaton.scan(b"xabab")
        assert present == set(ids.values())

    def test_case_variants_are_distinct_ids(self):
        automaton = MultiPatternAutomaton()
        sensitive = automaton.add_literal(b"Host", False)
        folded = automaton.add_literal(b"host", True)
        assert sensitive != folded
        assert automaton.scan(b"xx Host yy") == {sensitive, folded}
        assert automaton.scan(b"xx HOST yy") == {folded}
        assert automaton.scan(b"xx host yy") == {folded}


class TestRuleCaches:
    def test_required_ids_and_anchor(self):
        rule = parse_rule(
            'alert tcp any any -> any 80 (msg:"t"; content:"short"; '
            'content:"a-much-longer-literal"; sid:990001;)'
        )
        required = required_literal_ids(rule)
        anchor = anchor_literal_id(rule)
        assert required == {
            intern_literal(b"short", False),
            intern_literal(b"a-much-longer-literal", False),
        }
        assert anchor == intern_literal(b"a-much-longer-literal", False)
        # cached on the rule object (hot path does attribute access only)
        assert rule._mp_required is required
        assert rule._mp_anchor == anchor

    def test_negated_only_rule_has_no_required_ids(self):
        rule = parse_rule(
            'alert udp any any -> any 53 (msg:"t"; content:!"benign"; '
            'dsize:>0; sid:990002;)'
        )
        assert required_literal_ids(rule) is None
        assert anchor_literal_id(rule) is None


class TestStreamRewriteFencing:
    def test_last_policy_rewrite_is_rescanned(self):
        """A retransmission that rewrites buffered bytes (overlap policy
        "last") must invalidate the saved scan state — the multipattern
        engine has to alert exactly like the naive scan on the new
        content."""
        text = 'alert tcp any any -> any 80 (msg:"evil"; content:"evil"; sid:990010;)'
        fast = RuleEngine.from_text(text, overlap_policy="last", use_index=True)
        naive = RuleEngine.from_text(text, overlap_policy="last", use_index=False)
        from repro.packets import ACK, IPPacket, PSH, TCPSegment

        def seg(payload, seq):
            return IPPacket(
                src="10.0.0.1", dst="10.0.0.2",
                payload=TCPSegment(sport=40000, dport=80, seq=seq,
                                   flags=PSH | ACK, payload=payload),
            )

        for when, packet in [(0.0, seg(b"good", 100)), (0.1, seg(b"evil", 100))]:
            assert [a.sid for a in fast.process(packet, when)] == \
                [a.sid for a in naive.process(packet, when)]
        assert [a.sid for a in fast.alerts] == [990010]
