"""The rule-evaluation engine (the Snort analogue).

One engine instance is the core of both reference systems: the censorship
middlebox runs it with GFC-style ``reject``/``drop`` rules, and the
surveillance MVR runs it with detection/policy ``alert`` rules.  Leaked
documents indicate both real systems are off-path signature-based IDSes
(paper Section 3.2.1), so one shared engine is the faithful model.

Evaluation runs on a fast path by default: a :class:`RuleDispatchIndex`
limits each packet to candidate rules bucketed by protocol and destination
port, a shared :class:`MatchContext` computes per-packet facts once, and a
ruleset-wide Aho–Corasick pass (:mod:`.multipattern`) turns each rule's
necessary-literal check into a set-membership test — candidate content
rules are only *revived* when their anchor literal was actually seen in
the payload.  That is the one production configuration.
``RuleEngine(use_index=False)`` is the only other: the naive full scan with
no literal prefilter, kept as the semantic reference the fast path is
tested against (see ``tests/rules/test_equivalence.py``).

Engines read TCP streams through a :class:`StreamReader`.  Engines on one
tap node with the same stream configuration share one flow table (see
:meth:`RuleEngine.share_stream` and :mod:`.reassembly`): each packet is
reassembled once per arrival and every engine matches on the same
reassembled bytes in place.  What differs per engine — sids that already
alerted on a flow, resumable scan states, payload-option memos — lives in
a per-engine :class:`_FlowState` on the flow record.

Engines built from text share what is immutable: :meth:`RuleEngine.from_text`
compiles each ``(ruleset text, variables)`` once per process into a tuple
of parsed rules and their finalized dispatch index (see
:func:`compiled_ruleset`), and every engine over the same text reads
both.  Each engine still owns its rule list, sid map, threshold state,
stream reader and obs labels; :meth:`RuleEngine.add_rules` builds a
fresh index and a fresh automaton instead of writing to the shared ones.

An engine keeps never-reset running totals (packets, candidates
evaluated, prefilter skips) and one sid→count dict of hits; when a
registry is installed at construction, a
:class:`~repro.obs.metrics.TallyFold` folds them into the ``rules_*``
counters whenever the registry is read, so reported values are exact and
the hot path never touches the registry.  The fold holds only those
tallies and the engine's label, so an engine collected before the read
still reports.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import MetricsRegistry, TallyFold, active_or_none
from ..obs.trace import active_tracer
from ..packets import IPPacket, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from .index import MatchContext, RuleDispatchIndex
from .language import Rule, ThresholdSpec, parse_ruleset
from .multipattern import MultiPatternAutomaton, StreamScanState, shared_automaton
from .reassembly import FlowRecord, StreamReader, StreamReassembler, StreamUpdate

__all__ = ["Alert", "RuleEngine", "compiled_ruleset", "clear_ruleset_cache"]

_PROTO_OF = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}

_EMPTY_IDS: frozenset = frozenset()

#: Tracing is sampled: one aggregated "sweep" instant per this many
#: packets (deterministic, count-based).
TRACE_SAMPLE_INTERVAL = 64

#: How many compiled rulesets :func:`compiled_ruleset` keeps (least
#: recently used first out).  A sweep worker cycles through a handful —
#: the censor ruleset per policy and the MVR ruleset.
RULESET_CACHE_SIZE = 32

#: process-wide ``(text, sorted variables) -> (rules, index)``; see
#: :func:`compiled_ruleset`
_RULESET_CACHE: "OrderedDict[tuple, Tuple[Tuple[Rule, ...], RuleDispatchIndex]]" = (
    OrderedDict()
)


def compiled_ruleset(
    text: str, variables: Dict[str, str]
) -> Tuple[Tuple[Rule, ...], RuleDispatchIndex]:
    """The parsed rules of ``text`` and their finalized dispatch index,
    compiled once per process and shared by every engine built from it.

    Sharing is sound because nothing writes to a parsed :class:`Rule`
    except the ``_mp_required``/``_mp_anchor``/``_mp_gates`` caches,
    which derive from process-wide literal ids and so agree in every
    engine, and because no engine writes to the index: ``add_rules``
    replaces it.  Text that fails to parse raises
    :class:`RuleParseError` and is not cached.
    """
    key = (text, tuple(sorted(variables.items())))
    entry = _RULESET_CACHE.get(key)
    if entry is not None:
        _RULESET_CACHE.move_to_end(key)
        return entry
    rules = tuple(parse_ruleset(text, variables))
    index = RuleDispatchIndex(list(rules))
    entry = _RULESET_CACHE[key] = (rules, index)
    if len(_RULESET_CACHE) > RULESET_CACHE_SIZE:
        _RULESET_CACHE.popitem(last=False)
    return entry


def clear_ruleset_cache() -> int:
    """Drop every compiled ruleset; returns how many were cached."""
    count = len(_RULESET_CACHE)
    _RULESET_CACHE.clear()
    return count


@dataclass
class Alert:
    """One rule firing on one packet."""

    time: float
    sid: int
    msg: str
    action: str
    classtype: str
    priority: int
    src: str
    dst: str
    sport: int
    dport: int
    rule: Rule = field(repr=False, default=None)  # type: ignore[assignment]
    packet: IPPacket = field(repr=False, default=None)  # type: ignore[assignment]

    def __str__(self) -> str:
        return (
            f"[{self.time:.3f}] [{self.sid}] {self.action.upper()} "
            f"{self.msg} {self.src}:{self.sport} -> {self.dst}:{self.dport}"
        )


class _FlowState:
    """One engine's own state for one flow, kept on the flow record under
    the engine's reader slot so engines sharing the record never mix it."""

    __slots__ = ("content_version", "alerted", "scans", "memos")

    def __init__(self, content_version: int) -> None:
        #: the flow's content_version when ``alerted`` was last valid
        self.content_version = content_version
        #: sids that already alerted on this flow's stream content
        self.alerted: Optional[set] = None
        #: direction -> resumable multipattern scan state
        self.scans: Dict[str, StreamScanState] = {}
        #: direction -> (content_version, length, {id(rule): payload
        #: matched}), the memo of payload-option results
        self.memos: Dict[str, tuple] = {}


class _ThresholdState:
    """Sliding-window event counting for threshold/detection_filter.

    State is pruned periodically: a ``(sid, ip)`` key whose newest event is
    older than its spec's window can never influence a future decision, so
    long multi-user simulations don't accumulate one deque per address
    forever.
    """

    #: prune every this-many ``should_alert`` calls
    PRUNE_INTERVAL = 1024

    def __init__(self) -> None:
        self._events: Dict[Tuple[int, str], deque] = {}
        self._fired_in_window: Dict[Tuple[int, str], float] = {}
        #: the spec window (seconds) last seen per key, for pruning
        self._windows: Dict[Tuple[int, str], float] = {}
        self._calls = 0

    def should_alert(self, spec: ThresholdSpec, sid: int, key_ip: str, now: float) -> bool:
        self._calls += 1
        if self._calls % self.PRUNE_INTERVAL == 0:
            self.prune(now)
        key = (sid, key_ip)
        window = self._events.setdefault(key, deque())
        self._windows[key] = spec.seconds
        window.append(now)
        while window and now - window[0] > spec.seconds:
            window.popleft()
        count = len(window)
        if spec.kind == "limit":
            return count <= spec.count
        if spec.kind == "threshold":
            return count % spec.count == 0
        # "both": once per window, after count reached
        if count >= spec.count:
            last = self._fired_in_window.get(key)
            if last is None or now - last > spec.seconds:
                self._fired_in_window[key] = now
                return True
        return False

    def prune(self, now: float) -> int:
        """Drop keys whose newest event left the window; returns count."""
        stale = [
            key
            for key, window in self._events.items()
            if not window or now - window[-1] > self._windows.get(key, 0.0)
        ]
        for key in stale:
            del self._events[key]
            self._windows.pop(key, None)
        fired_stale = [
            key
            for key, last in self._fired_in_window.items()
            if key not in self._events and now - last > self._windows.get(key, 0.0)
        ]
        for key in fired_stale:
            del self._fired_in_window[key]
        return len(stale)

    def tracked_keys(self) -> int:
        return len(self._events)


def _fold_tallies(
    obs: MetricsRegistry, label: str, totals: List[int], hits: Dict[int, int]
) -> None:
    """Register the :class:`TallyFold` of one engine's running totals and
    hits into the ``rules_*`` counters.  Its callables close over the
    tallies and the label only, never the engine."""
    engine = (label,)

    def total(index: int):
        return lambda: ((engine, totals[index]),)

    TallyFold(obs, (
        (obs.counter(
            "rules_packets_total",
            "Packets run through a rule engine",
            ("engine",),
        ), total(0)),
        (obs.counter(
            "rules_candidates_evaluated_total",
            "Candidate rules considered (post dispatch-index)",
            ("engine",),
        ), total(1)),
        (obs.counter(
            "rules_prefilter_skips_total",
            "Content rules skipped because a necessary literal was absent",
            ("engine",),
        ), total(2)),
        (obs.counter(
            "rules_hits_total",
            "Alerts raised, per rule sid",
            ("engine", "sid"),
        ), lambda: [((label, str(sid)), count) for sid, count in hits.items()]),
    ))


class RuleEngine:
    """Evaluates a ruleset against a packet stream.

    Usage: ``engine.process(packet, now)`` returns the alerts the packet
    raised, in ruleset order, with ``pass`` rules suppressing everything
    else for that packet (Snort's pass-before-alert ordering).
    """

    def __init__(
        self,
        rules: Optional[List[Rule]] = None,
        variables: Optional[Dict[str, str]] = None,
        stream_depth: int = 8192,
        overlap_policy: str = "first",
        use_index: bool = True,
        obs_label: str = "engine",
        *,
        _shared_index: Optional[RuleDispatchIndex] = None,
    ) -> None:
        self.variables = dict(variables or {})
        self.rules: List[Rule] = list(rules or [])
        #: this engine's view of its (possibly shared) flow table
        self.stream: StreamReader = StreamReassembler(
            stream_depth=stream_depth, overlap_policy=overlap_policy
        ).open_reader()
        self.alerts: List[Alert] = []
        self._thresholds = _ThresholdState()
        self.use_index = use_index
        #: the dispatch index over ``rules``: the compiled ruleset's shared
        #: one when built by ``from_text``, else this engine's own; never
        #: written to (``add_rules`` replaces it)
        self._index: Optional[RuleDispatchIndex] = None
        if use_index:
            self._index = (
                _shared_index
                if _shared_index is not None
                else RuleDispatchIndex(self.rules)
            )
        #: the ruleset's literal automaton (indexed engines only): the
        #: process-cached shared instance when one exists for this literal
        #: set.  Sweep workers construct an engine per point over the same
        #: handful of rulesets; the cache turns every rebuild after the
        #: first into a dictionary lookup (see ``shared_automaton``).
        #: ``add_rules`` replaces it; it is never written to.
        self._mp: Optional[MultiPatternAutomaton] = (
            shared_automaton(self.rules) if use_index else None
        )
        self._by_sid: Dict[int, Rule] = {rule.sid: rule for rule in self.rules}
        # Observability, resolved once; ``obs_label`` distinguishes the
        # censor's engine from the MVR's in shared registry counters.
        self.obs_label = obs_label
        #: running totals [packets, candidates evaluated, prefilter
        #: skips] — a flat list so the hot path pays one attribute load —
        #: and sid -> alerts raised; never reset, folded on registry read
        self._totals = [0, 0, 0]
        self._hits: Dict[int, int] = {}
        obs = active_or_none()
        if obs is not None:
            _fold_tallies(obs, obs_label, self._totals, self._hits)
        tracer = active_tracer()
        self._trace = (
            tracer if tracer is not None and tracer.enabled_for("rules") else None
        )
        self._trace_track = f"rules:{obs_label}"
        self._trace_pkts = 0
        self._trace_candidates = 0
        self._trace_alerts = 0
        self._trace_skips = 0
        self._trace_passed = 0

    @classmethod
    def from_text(
        cls,
        ruleset_text: str,
        variables: Optional[Dict[str, str]] = None,
        stream_depth: int = 8192,
        overlap_policy: str = "first",
        use_index: bool = True,
        obs_label: str = "engine",
    ) -> "RuleEngine":
        variables = dict(variables or {})
        rules, index = compiled_ruleset(ruleset_text, variables)
        return cls(
            rules=rules,
            variables=variables,
            stream_depth=stream_depth,
            overlap_policy=overlap_policy,
            use_index=use_index,
            obs_label=obs_label,
            _shared_index=index,
        )

    def add_rules(self, ruleset_text: str) -> None:
        added = parse_ruleset(ruleset_text, self.variables)
        self.rules.extend(added)
        if self._index is not None:
            # A fresh index, never add() in place: the current one may be
            # the compiled ruleset's, which every engine built from the
            # same text reads.
            self._index = RuleDispatchIndex(self.rules)
        if self._mp is not None:
            # A private replacement over the full (already-extended)
            # ruleset, never an in-place extension: the current automaton
            # may be the process-wide cached one every sibling engine
            # reads.  Seeding it with the old version makes its
            # post-finalize version exceed any per-flow scan state saved
            # against the old automaton, so those states rescan on their
            # next packet instead of resuming a stale DFA walk.
            replacement = MultiPatternAutomaton()
            replacement.version = self._mp.version
            replacement.add_rules(self.rules)
            self._mp = replacement
        for rule in added:
            self._by_sid[rule.sid] = rule

    @property
    def packets_processed(self) -> int:
        return self._totals[0]

    def rule_by_sid(self, sid: int) -> Optional[Rule]:
        return self._by_sid.get(sid)

    # -- stream sharing ---------------------------------------------------------

    @property
    def reassembler(self) -> StreamReassembler:
        """The flow table this engine reads (shared or its own)."""
        return self.stream.table

    def share_stream(self, table: StreamReassembler) -> bool:
        """Read ``table`` instead of this engine's own flow table.

        Only a table with the same stream depth and overlap policy can
        serve this engine, and only before the engine has any flow state
        of its own; otherwise it keeps its own table.  Returns whether the
        engine now reads ``table``.
        """
        own = self.stream.table
        if table is own:
            return True
        if (
            (table.stream_depth, table.overlap_policy)
            != (own.stream_depth, own.overlap_policy)
            or own.flows
            or self.stream.private.flows
        ):
            return False
        self.stream.close()
        self.stream = table.open_reader()
        return True

    def take_stream(self, predecessor: "RuleEngine") -> None:
        """Replace ``predecessor`` on its flow table (a censor rebuilding
        its engine for a new policy).  Flows already in the table are new
        to this engine, exactly as in a table of its own."""
        self.share_stream(predecessor.stream.table)
        predecessor.stream.close()

    # -- evaluation -------------------------------------------------------------

    def process(self, packet: IPPacket, now: float) -> List[Alert]:
        """Run the packet through reassembly and every candidate rule."""
        tcp = packet.tcp
        update = self.stream.feed_tcp(packet, tcp, now) if tcp is not None else None
        ctx = MatchContext(packet, update, tcp=tcp)
        memo = None
        alerted = _EMPTY_IDS
        state = None
        if self._index is not None:
            # Fast path: one multipattern scan yields the present literal
            # ids; only bucket rules whose anchor literal was seen (plus the
            # never-filterable ones) survive to full evaluation, merged
            # back in ruleset order.
            if update is None:
                present = (
                    self._mp.scan(ctx.payload, ctx.lower_haystack)
                    if ctx.payload
                    else _EMPTY_IDS
                )
            elif update.flow.buffers[update.direction]:
                state, present = self._stream_present(update)
            else:
                present = _EMPTY_IDS
            ctx.present = present
            bucket = self._index.lookup(packet.protocol, ctx.dport, ctx.sport)
            entries = bucket.always
            if present:
                by_anchor = bucket.by_anchor
                revived = None
                for lid in present:
                    hit = by_anchor.get(lid)
                    if hit is not None:
                        if revived is None:
                            revived = list(entries)
                        revived.extend(hit)
                if revived is not None:
                    revived.sort()
                    entries = revived
            # The anchor hit revived the rule; the frozenset subset
            # test enforces the *rest* of its required literals.
            candidates = [
                rule
                for _order, rule in entries
                if rule._mp_required is None or rule._mp_required <= present
            ]
            evaluated = len(bucket.rules)
            prefilter_skips = evaluated - len(candidates)
            if update is not None and candidates:
                # Stream fast path: memoised payload options and the skip
                # of sids this flow already alerted on.  The reference
                # path stays memo-free.
                if state is None:
                    state = self._flow_state(update.flow)
                memo = self._payload_memo(state, update)
                alerted = state.alerted or _EMPTY_IDS
        else:
            candidates = self.rules
            evaluated = len(candidates)
            prefilter_skips = 0
        passed = False
        matches: List[Alert] = []
        for rule in candidates:
            if not self._header_matches(rule, packet, ctx):
                continue
            if (
                rule.sid in alerted
                and rule.threshold is None
                and rule.action != "pass"
                and rule.needs_payload()
            ):
                # A stream rule fires once per flow per sid and this one
                # already has: whatever its options say, it cannot alert.
                continue
            if not self._options_match(rule, packet, update, ctx, memo):
                continue
            if rule.action == "pass":
                # pass rules defeat all later rules for this packet
                passed = True
                matches = []
                break
            if rule.threshold is not None:
                key_ip = packet.src if rule.threshold.track == "by_src" else packet.dst
                if not self._thresholds.should_alert(rule.threshold, rule.sid, key_ip, now):
                    continue
            if update is not None and rule.needs_payload():
                # Stream-context matches fire once per flow per sid, like a
                # flushed-stream alert, not once per subsequent packet.
                if state is None:
                    state = self._flow_state(update.flow)
                if state.alerted is None:
                    state.alerted = set()
                elif rule.sid in state.alerted:
                    continue
                state.alerted.add(rule.sid)
            matches.append(self._alert(rule, packet, now, ctx))
        # Running totals only; a registry folds them in when it is read.
        totals = self._totals
        totals[0] += 1
        totals[1] += evaluated
        totals[2] += prefilter_skips
        if matches:
            hits = self._hits
            for alert in matches:
                hits[alert.sid] = hits.get(alert.sid, 0) + 1
        if self._trace is not None:
            self._trace_pkts += 1
            self._trace_candidates += evaluated
            self._trace_alerts += len(matches)
            self._trace_skips += prefilter_skips
            if passed:
                self._trace_passed += 1
            if self._trace_pkts >= TRACE_SAMPLE_INTERVAL:
                self._emit_trace_sample(now)
        self.alerts.extend(matches)
        return matches

    def process_batch(
        self,
        packets: Sequence[IPPacket],
        now: Union[float, Sequence[float]],
    ) -> List[List[Alert]]:
        """Evaluate many packets in one call; returns per-packet alerts.

        ``now`` is either one timestamp for the whole batch or a sequence
        of per-packet timestamps.  Semantics are exactly
        ``[process(p, t) for p, t in ...]`` — same alerts, same order,
        same threshold and stream state, same running totals.
        """
        process = self.process
        if isinstance(now, (int, float)):
            return [process(packet, now) for packet in packets]
        return [process(packet, when) for packet, when in zip(packets, now)]

    def _flow_state(self, flow: FlowRecord) -> _FlowState:
        """This engine's state for ``flow``, created on first use."""
        slot = self.stream.slot
        state = flow.reader_state.get(slot)
        if state is None:
            state = flow.reader_state[slot] = _FlowState(flow.content_version)
        elif state.content_version != flow.content_version:
            # Buffered bytes were rewritten: sids that alerted on the old
            # bytes may match again.
            state.content_version = flow.content_version
            state.alerted = None
        return state

    def _stream_present(self, update: StreamUpdate):
        """This engine's flow state and the literal ids present in the flow
        direction's reassembled bytes (exact, not a superset).  The scan
        resumes a per-flow-direction state, so each buffered byte is walked
        once per flow lifetime."""
        mp = self._mp
        flow = update.flow
        direction = update.direction
        state = flow.reader_state.get(self.stream.slot)
        if state is None or state.content_version != flow.content_version:
            state = self._flow_state(flow)
        version = mp.ensure_ready()
        scan = state.scans.get(direction)
        if (
            scan is None
            or scan.automaton_version != version
            or scan.content_version != flow.content_version
        ):
            scan = state.scans[direction] = StreamScanState(
                version, flow.content_version
            )
        haystack = flow.buffers[direction]
        if scan.scanned < len(haystack):
            scan.state = mp.scan_chunk(
                flow.lowered[direction], haystack, scan.scanned, scan.state, scan.present
            )
            scan.scanned = len(haystack)
        return state, scan.present

    @staticmethod
    def _payload_memo(state: _FlowState, update: StreamUpdate) -> Dict[int, bool]:
        """The flow direction's memo of payload-option results, keyed by
        ``id(rule)``.  Those results depend only on the reassembled bytes,
        so the memo lives while ``(content_version, len(buffer))`` does and
        is replaced as soon as the stream grows or is rewritten."""
        flow = update.flow
        direction = update.direction
        length = len(flow.buffers[direction])
        entry = state.memos.get(direction)
        if entry is None or entry[0] != flow.content_version or entry[1] != length:
            entry = state.memos[direction] = (flow.content_version, length, {})
        return entry[2]

    def _emit_trace_sample(self, now: float) -> None:
        self._trace.instant(
            "sweep",
            "rules",
            track=self._trace_track,
            when=now,
            packets=self._trace_pkts,
            candidates=self._trace_candidates,
            alerts=self._trace_alerts,
            prefilter_skips=self._trace_skips,
            passed=self._trace_passed,
            sampled=True,
        )
        self._trace_pkts = 0
        self._trace_candidates = 0
        self._trace_alerts = 0
        self._trace_skips = 0
        self._trace_passed = 0

    def _alert(self, rule: Rule, packet: IPPacket, now: float, ctx: MatchContext) -> Alert:
        return Alert(
            time=now,
            sid=rule.sid,
            msg=rule.msg,
            action=rule.action,
            classtype=rule.classtype,
            priority=rule.priority,
            src=packet.src,
            dst=packet.dst,
            sport=ctx.sport,
            dport=ctx.dport,
            rule=rule,
            packet=packet,
        )

    def _header_matches(self, rule: Rule, packet: IPPacket, ctx: MatchContext) -> bool:
        if rule.protocol != "ip" and _PROTO_OF[rule.protocol] != packet.protocol:
            return False
        sport, dport = ctx.sport, ctx.dport
        forward = (
            (rule.src.any or rule.src.matches_int(ctx.src_int))
            and (rule.sport.any or rule.sport.matches(sport))
            and (rule.dst.any or rule.dst.matches_int(ctx.dst_int))
            and (rule.dport.any or rule.dport.matches(dport))
        )
        if forward:
            return True
        if rule.bidirectional:
            return (
                (rule.src.any or rule.src.matches_int(ctx.dst_int))
                and (rule.sport.any or rule.sport.matches(dport))
                and (rule.dst.any or rule.dst.matches_int(ctx.src_int))
                and (rule.dport.any or rule.dport.matches(sport))
            )
        return False

    def _options_match(
        self,
        rule: Rule,
        packet: IPPacket,
        update: Optional[StreamUpdate],
        ctx: MatchContext,
        memo: Optional[Dict[int, bool]],
    ) -> bool:
        if rule.flags is not None:
            if ctx.tcp is None or not rule.flags.matches(ctx.tcp.flags):
                return False
        if rule.itype is not None:
            if ctx.icmp is None or ctx.icmp.icmp_type != rule.itype:
                return False
        if rule.icode is not None:
            if ctx.icmp is None or ctx.icmp.code != rule.icode:
                return False

        if rule.dsize is not None and not rule.dsize.matches(len(ctx.payload)):
            return False

        if rule.flow:
            if not self._flow_matches(rule.flow, packet, update):
                return False

        if rule.needs_payload():
            if memo is None:
                return self._payload_matches(rule, ctx)
            matched = memo.get(id(rule))
            if matched is None:
                matched = memo[id(rule)] = self._payload_matches(rule, ctx)
            return matched
        return True

    @staticmethod
    def _payload_matches(rule: Rule, ctx: MatchContext) -> bool:
        # Match against the reassembled stream so keywords split across
        # segments are still seen (and evasion by splitting is defeated,
        # as with the real GFC).
        haystack = ctx.haystack
        if not haystack:
            return False
        for content in rule.contents:
            hay = ctx.lower_haystack if content.nocase else haystack
            if not content.search_in(hay):
                return False
        pcres = rule.pcres
        if pcres:
            # A gated pcre (a pure literal alternation) can only match
            # where one of its literals occurs; the indexed engine knows
            # the present ids, the reference engine runs every regex.
            present = ctx.present
            gates = rule._mp_gates if present is not None else None
            for index, pcre in enumerate(pcres):
                if gates is not None:
                    gate = gates[index]
                    if gate is not None and present.isdisjoint(gate):
                        return False
                if not pcre.matches(haystack):
                    return False
        return True

    def _flow_matches(
        self, flow_opts: List[str], packet: IPPacket, update: Optional[StreamUpdate]
    ) -> bool:
        if "stateless" in flow_opts:
            return True
        if update is None:
            return False
        flow = update.flow
        for option in flow_opts:
            if option == "established" and not flow.established:
                return False
            if option == "to_server" and update.direction != "c2s":
                return False
            if option == "to_client" and update.direction != "s2c":
                return False
            if option == "not_established" and flow.established:
                return False
        return True
