"""Ruleset-wide multi-pattern matching: an Aho–Corasick literal prefilter.

Real IDSes do not test each rule's content literals independently — Snort
feeds *every* fast-pattern literal in the ruleset into one multi-pattern
search (Aho–Corasick / hyperscan) and runs a single pass over the payload;
the hits select which rules are worth full evaluation.  This module is that
layer for the reproduction's engine.

Design:

- **Global literal interning.**  Every distinct ``(needle, nocase)`` pair
  in any ruleset gets one process-wide integer id
  (:func:`intern_literal`).  Rule objects cache the frozenset of ids their
  non-negated contents require (:func:`required_literal_ids`) and a single
  representative *anchor* id (:func:`anchor_literal_id`, the longest
  needle — the rarest literal, mirroring Snort's fast-pattern choice).
  Ids are global so a Rule shared by two engines means the same thing in
  both automatons.

- **Case folding.**  The automaton stores each literal by its case-folded
  form; a folded pattern node carries every member literal as a distinct
  id.  ``nocase`` literals (already stored lowered by the rule parser)
  match whenever their folded form occurs.  Case-sensitive literals ride
  the same folded trie — the folded variant acts as a distinct internal
  pattern — and are *confirmed* with an exact raw-byte comparison at the
  match position, so the reported hit set is exactly
  ``{id : needle in haystack}`` (lowered haystack for nocase ids), never a
  superset.  One scan of the folded payload therefore serves both cases.

- **Incremental stream scanning.**  TCP rules match against the
  reassembled stream, which only grows (the ``"last"`` overlap policy can
  rewrite it, which bumps the flow's ``content_version`` and forces a
  rescan).  :meth:`MultiPatternAutomaton.scan_chunk` resumes from a saved
  DFA state, so each stream byte is scanned once per flow lifetime instead
  of once per packet.  Over a long unscanned tail the walk skips ahead
  whenever the DFA is in state 0, so bytes that cannot start a literal
  cost C-speed work (``translate`` + ``find``) instead of a bytecode loop.

- **Byte classes.**  A DFA row has one entry per *byte class*, not per
  byte: every byte that occurs in some folded pattern is its own class
  and all other bytes share class 0 (from any state they lead back to
  the root).  A scan first maps its bytes to classes with one C-speed
  ``translate``.  Rulesets use a few dozen distinct bytes, so a row is a
  fraction of a 256-entry one and each literal added costs little memory.

- **Adaptive one-shot scans.**  For datagram payloads the DFA walk is a
  per-byte Python loop; above ``ONE_SHOT_DFA_LIMIT`` bytes it is cheaper
  to run one C-speed ``in`` scan per *unique folded pattern* (the deduped
  literal table, not one scan per rule).  Both strategies report the same
  exact hit set; :meth:`scan` picks by haystack size.

Soundness of the prefilter: every non-negated ``content`` must occur
somewhere in the haystack for its rule to fire (``offset``/``depth`` only
narrow the window), so a rule whose required ids are not all present can
be skipped without evaluating headers or options.  Rules with no
non-negated content (header-only, pcre-only, negated-only) have no
required ids and are never filtered.

A ``pcre`` that is a pure literal alternation (``/a|b|c/i``, see
:func:`~repro.rules.matcher.literal_alternation`) is *gated*: its
alternatives are interned like content literals (:func:`pcre_gate_ids`)
and added to the automaton, and the engine skips the regex when none of
them is present.  The gate sits in payload evaluation, not in candidate
selection, so candidate counts do not depend on it.  Gate ids are part of
the automaton's literal set and so of its cache key: an automaton built
without them would report them absent and skip regexes that match.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = [
    "MultiPatternAutomaton",
    "StreamScanState",
    "intern_literal",
    "literal_table_size",
    "required_literal_ids",
    "anchor_literal_id",
    "pcre_gate_ids",
    "shared_automaton",
    "clear_automaton_cache",
    "ONE_SHOT_DFA_LIMIT",
]

#: One-shot haystacks longer than this are scanned with one C-speed ``in``
#: per unique folded pattern instead of the per-byte DFA walk (the DFA is
#: O(n) in Python bytecode; ``in`` is O(n) in C — the constant factors
#: cross over around a hundred bytes for ruleset-sized literal tables).
#: Stream scans cannot restart, so a longer unscanned tail uses the
#: root-skipping DFA walk instead.
ONE_SHOT_DFA_LIMIT = 256

# -- global literal interning --------------------------------------------------

#: process-wide ``(needle, nocase) -> literal id``; ids are stable for the
#: process lifetime so rules shared between engines agree on meaning.
_LITERAL_IDS: Dict[Tuple[bytes, bool], int] = {}
#: id -> (needle, nocase), for introspection and naive cross-checks
_LITERALS: List[Tuple[bytes, bool]] = []


def intern_literal(needle: bytes, nocase: bool) -> int:
    """Process-wide id for a content literal (deduped across rulesets)."""
    key = (needle, nocase)
    lid = _LITERAL_IDS.get(key)
    if lid is None:
        lid = len(_LITERALS)
        _LITERAL_IDS[key] = lid
        _LITERALS.append(key)
    return lid


def literal_of(lid: int) -> Tuple[bytes, bool]:
    """The ``(needle, nocase)`` pair behind an interned id."""
    return _LITERALS[lid]


def literal_table_size() -> int:
    return len(_LITERALS)


def required_literal_ids(rule) -> Optional[FrozenSet[int]]:
    """Interned ids of every literal ``rule`` needs present, cached on the rule.

    Returns None for rules with no non-negated, non-empty content — those
    can never be literal-filtered.
    """
    ids = getattr(rule, "_mp_required", False)
    if ids is False:
        required = [
            content
            for content in rule.contents
            if not content.negated and content.pattern
        ]
        if not required:
            ids = None
        else:
            ids = frozenset(
                intern_literal(content.needle(), content.nocase)
                for content in required
            )
        rule._mp_required = ids
    return ids


def anchor_literal_id(rule) -> Optional[int]:
    """The rule's representative literal id: its longest required needle.

    The longest literal is the least likely to occur by chance, so bucketing
    a rule under it minimizes spurious candidate revivals (the same
    heuristic behind Snort's fast-pattern selection).
    """
    anchor = getattr(rule, "_mp_anchor", False)
    if anchor is False:
        best = None
        for content in rule.contents:
            if content.negated or not content.pattern:
                continue
            if best is None or len(content.pattern) > len(best.pattern):
                best = content
        anchor = (
            None if best is None else intern_literal(best.needle(), best.nocase)
        )
        rule._mp_anchor = anchor
    return anchor


def pcre_gate_ids(rule) -> Optional[Tuple[Optional[FrozenSet[int]], ...]]:
    """Per ``rule.pcres`` entry, the interned ids of its gate literals (or
    None for an ungated pcre), cached on the rule; None when no pcre of
    the rule is gated.  A gated pcre can match only where one of its ids
    is present."""
    gates = getattr(rule, "_mp_gates", False)
    if gates is False:
        gates = tuple(
            None
            if pcre.gate is None
            else frozenset(intern_literal(needle, nocase) for needle, nocase in pcre.gate)
            for pcre in rule.pcres
        )
        if all(gate is None for gate in gates):
            gates = None
        rule._mp_gates = gates
    return gates


# -- shared automaton cache ----------------------------------------------------

#: process-wide finalized automatons keyed by their literal-id set.  Sweep
#: workers are reused across points by the process pool, and every
#: censored-as point rebuilds the same censor/MVR/surveillance rulesets —
#: without the cache each rebuild pays the full trie + failure-link +
#: dense-table construction (the ``multipattern_build`` bench) three times
#: per point.  The automaton's matching behavior is a pure function of its
#: literal set, so any two rulesets with the same literals can share one
#: instance; sharing is safe because scans never mutate a finalized
#: automaton, and engines that *extend* their ruleset build a private
#: replacement (see :meth:`RuleEngine.add_rules`).
_AUTOMATON_CACHE: Dict[Tuple[int, ...], "MultiPatternAutomaton"] = {}


def shared_automaton(rules: Iterable) -> "MultiPatternAutomaton":
    """A process-cached, finalized automaton over ``rules``' literals.

    The cache key is the sorted tuple of interned literal ids the rules
    require, pcre gate literals included — global interning dedupes
    ``(needle, nocase)`` pairs, so two rulesets with identical literals
    map to the same key even if they interned in different orders.  On a
    miss the automaton is built and finalized immediately (so its version
    is stable from the first scan); engines must treat a cached instance
    as immutable and replace it instead of extending it.

    Per-rule caches (``_mp_required``/``_mp_anchor``/``_mp_gates``) are
    warmed here even on a hit, because hit-path callers skip
    :meth:`add_rules`.
    """
    rule_list = list(rules)
    ids: set = set()
    for rule in rule_list:
        required = required_literal_ids(rule)
        anchor_literal_id(rule)
        if required:
            ids.update(required)
        for gate in pcre_gate_ids(rule) or ():
            if gate is not None:
                ids.update(gate)
    key = tuple(sorted(ids))
    automaton = _AUTOMATON_CACHE.get(key)
    if automaton is None:
        automaton = MultiPatternAutomaton()
        automaton.add_rules(rule_list)
        automaton.ensure_ready()
        _AUTOMATON_CACHE[key] = automaton
    return automaton


def clear_automaton_cache() -> int:
    """Drop every cached shared automaton; returns how many were cached.

    For tests and long-lived processes that churn through many distinct
    rulesets — the cache grows one entry per distinct literal set and is
    otherwise never evicted.
    """
    count = len(_AUTOMATON_CACHE)
    _AUTOMATON_CACHE.clear()
    return count


# -- the automaton -------------------------------------------------------------


def _report(groups: tuple, haystack: bytes, position: int, present: set) -> None:
    """Add the literal ids of the output ``groups`` that end just before
    ``position`` to ``present``, confirming case-sensitive members against
    the raw haystack."""
    for length, members in groups:
        for lid, needle, confirm in members:
            if lid in present:
                continue
            if not confirm:
                present.add(lid)
            elif haystack[position - length : position] == needle:
                present.add(lid)


class StreamScanState:
    """Per-flow-direction resumable scan position.

    ``present`` accumulates the literal ids seen so far in the stream
    buffer (monotone while the buffer only appends, which is exactly when
    the state is reusable).
    """

    __slots__ = ("automaton_version", "content_version", "scanned", "state", "present")

    def __init__(self, automaton_version: int, content_version: int) -> None:
        self.automaton_version = automaton_version
        self.content_version = content_version
        self.scanned = 0
        self.state = 0
        self.present: set = set()


class MultiPatternAutomaton:
    """An Aho–Corasick automaton over one engine's content literals.

    Built lazily: :meth:`add_literal`/:meth:`add_rules` extend the trie and
    mark the link/output tables dirty; the first scan after an extension
    recomputes failure links and the transition table from the
    persistent trie (incremental in the trie, amortized in the tables).
    ``version`` increments on every finalize so saved stream states from an
    older automaton are detected and rescanned.
    """

    def __init__(self) -> None:
        #: folded pattern -> list of (lid, needle, case_sensitive) members
        self._groups: Dict[bytes, List[Tuple[int, bytes, bool]]] = {}
        #: trie: per-node byte -> child node index
        self._children: List[Dict[int, int]] = [{}]
        #: per-node folded pattern terminating there (or None)
        self._terminal: List[Optional[bytes]] = [None]
        #: DFA tables indexed [state][byte class], rebuilt by _finalize()
        self._next: List[List[int]] = []
        #: ``bytes.translate`` table mapping each byte to its class
        self._classes = bytes(256)
        #: per-state tuple of (folded_len, members) output groups, () if none
        self._out: List[tuple] = []
        #: ``bytes.translate`` table marking the bytes that leave the root
        #: with 1 and every other byte with 0, rebuilt by _finalize()
        self._root_marks = bytes(256)
        self._dirty = True
        self.version = 0
        #: every interned id this automaton contains
        self._known_ids: set = set()

    # -- construction ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._known_ids)

    def known_ids(self) -> FrozenSet[int]:
        return frozenset(self._known_ids)

    def add_literal(self, needle: bytes, nocase: bool) -> int:
        """Register one literal; returns its global id."""
        lid = intern_literal(needle, nocase)
        if lid in self._known_ids:
            return lid
        self._known_ids.add(lid)
        folded = needle if nocase else needle.lower()
        members = self._groups.get(folded)
        if members is None:
            members = []
            self._groups[folded] = members
            self._trie_insert(folded)
        # nocase needles are pre-lowered, so folded == needle for them and
        # no raw confirmation is needed; case-sensitive members confirm
        # against the raw haystack at the match position.
        members.append((lid, needle, not nocase))
        self._dirty = True
        return lid

    def add_rules(self, rules: Iterable) -> None:
        """Register every required literal and pcre gate literal of
        ``rules`` (idempotent)."""
        for rule in rules:
            for content in rule.contents:
                if content.negated or not content.pattern:
                    continue
                self.add_literal(content.needle(), content.nocase)
            for pcre in rule.pcres:
                for needle, nocase in pcre.gate or ():
                    self.add_literal(needle, nocase)
            # warm the per-rule caches while we are here
            required_literal_ids(rule)
            anchor_literal_id(rule)
            pcre_gate_ids(rule)

    def _trie_insert(self, folded: bytes) -> None:
        node = 0
        children = self._children
        for byte in folded:
            nxt = children[node].get(byte)
            if nxt is None:
                children.append({})
                self._terminal.append(None)
                nxt = len(children) - 1
                children[node][byte] = nxt
            node = nxt
        self._terminal[node] = folded

    def _finalize(self) -> None:
        """Recompute failure links, collapsed outputs, and transition tables."""
        children = self._children
        n_states = len(children)
        fail = [0] * n_states
        # outputs per state before collapsing fail chains
        out: List[list] = [[] for _ in range(n_states)]
        for node in range(n_states):
            folded = self._terminal[node]
            if folded is not None:
                out[node].append((len(folded), tuple(self._groups[folded])))

        queue = deque()
        for child in children[0].values():
            queue.append(child)
        order = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for byte, child in children[node].items():
                queue.append(child)
                state = fail[node]
                while state and byte not in children[state]:
                    state = fail[state]
                nxt = children[state].get(byte, 0)
                fail[child] = nxt if nxt != child else 0
        # collapse outputs along failure links (BFS order guarantees the
        # fail target's outputs are already complete)
        for node in order:
            if out[fail[node]]:
                out[node] = out[node] + out[fail[node]]

        # Byte classes: each byte of some folded pattern is a class of its
        # own; every other byte is class 0 and leads to the root from any
        # state, so its transitions need no column of their own.
        classes = bytearray(256)
        alphabet = sorted({byte for folded in self._groups for byte in folded})
        for cls, byte in enumerate(alphabet, 1):
            classes[byte] = cls

        # goto-with-failure transition table over byte classes
        root = children[0]
        table: List[List[int]] = [[0] * (len(alphabet) + 1) for _ in range(n_states)]
        base = table[0]
        for byte, child in root.items():
            base[classes[byte]] = child
        for node in order:
            row = table[node]
            fail_row = table[fail[node]]
            row[:] = fail_row
            for byte, child in children[node].items():
                row[classes[byte]] = child

        self._next = table
        self._classes = bytes(classes)
        self._out = [tuple(groups) for groups in out]
        # In state 0 every byte but these maps back to 0 and the root has
        # no outputs, so the walk may jump straight to the next of them.
        self._root_marks = bytes(1 if base[cls] else 0 for cls in classes)
        self._dirty = False
        self.version += 1

    # -- scanning --------------------------------------------------------------

    def ensure_ready(self) -> int:
        """Finalize if dirty; returns the current automaton version.

        Callers holding :class:`StreamScanState` must compare versions
        *after* this call — a finalize bumps the version and invalidates
        every saved DFA state.
        """
        if self._dirty:
            self._finalize()
        return self.version

    def scan(self, haystack: bytes, lowered: Optional[bytes] = None) -> set:
        """Exact present-literal ids for a one-shot haystack.

        ``lowered`` may be passed when the caller already folded the
        haystack (the engine's MatchContext shares one folded copy).
        """
        if not self._groups or not haystack:
            return set()
        if self._dirty:
            self._finalize()
        if lowered is None:
            lowered = haystack.lower()
        present: set = set()
        if len(lowered) > ONE_SHOT_DFA_LIMIT:
            for folded, members in self._groups.items():
                if folded in lowered:
                    for lid, needle, confirm in members:
                        if not confirm:
                            present.add(lid)
                        elif needle in haystack:
                            present.add(lid)
            return present
        self._walk(lowered, haystack, 0, 0, present)
        return present

    def scan_chunk(
        self,
        lowered: bytes,
        haystack: bytes,
        start: int,
        state: int,
        present: set,
    ) -> int:
        """Resume a stream scan over ``lowered[start:]``; returns the new
        DFA state.  ``lowered``/``haystack`` are the *full* buffer snapshots
        so case confirmation and cross-chunk matches see every byte."""
        if self._dirty:
            self._finalize()
        if not self._groups:
            return state
        if len(lowered) - start > ONE_SHOT_DFA_LIMIT:
            return self._skip_walk(lowered, haystack, start, state, present)
        return self._walk(lowered, haystack, start, state, present)

    def _walk(
        self, lowered: bytes, haystack: bytes, start: int, state: int, present: set
    ) -> int:
        """Step the DFA over ``lowered[start:]`` one byte at a time."""
        table = self._next
        out = self._out
        position = start
        for cls in lowered[start:].translate(self._classes):
            state = table[state][cls]
            position += 1
            groups = out[state]
            if groups:
                _report(groups, haystack, position, present)
        return state

    def _skip_walk(
        self, lowered: bytes, haystack: bytes, start: int, state: int, present: set
    ) -> int:
        """:meth:`_walk`, but in state 0 jump to the next root-leaving byte.

        Exact, because in state 0 every other byte maps back to 0 and the
        root has no outputs.  The tail is marked and class-mapped once with
        two C-speed ``translate`` calls and each jump is one ``find`` of a
        mark; the per-call set-up makes short tails cheaper to :meth:`_walk`.
        """
        table = self._next
        out = self._out
        tail = lowered[start:]
        find = tail.translate(self._root_marks).find
        classed = tail.translate(self._classes)
        index = 0
        end = len(classed)
        while index < end:
            if not state:
                index = find(1, index)
                if index < 0:
                    return 0
            state = table[state][classed[index]]
            index += 1
            groups = out[state]
            if groups:
                _report(groups, haystack, start + index, present)
        return state

    # -- reference implementation (tests cross-check against this) -------------

    def naive_present(self, haystack: bytes, lowered: Optional[bytes] = None) -> set:
        """The semantics :meth:`scan` must reproduce: per-literal ``in``."""
        if lowered is None:
            lowered = haystack.lower()
        present = set()
        for lid in self._known_ids:
            needle, nocase = literal_of(lid)
            if needle in (lowered if nocase else haystack):
                present.add(lid)
        return present
