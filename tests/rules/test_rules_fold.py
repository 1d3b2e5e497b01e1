"""The rule engines' ``rules_*`` counters fold from their running totals.

A ``RuleEngine`` keeps never-reset totals (packets, candidates
evaluated, prefilter skips) and a sid -> count dict of hits; under a
registry, a ``TallyFold`` holding only those tallies folds them into the
four ``rules_*`` counters whenever the registry is read.  These tests
pin the fold down: any read equals the totals, repeated reads never
double-count, a total that never moved adds no label row, engines
collected before the read still report, and per-point registries merge
into exact sums.
"""

import gc
import weakref
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.evaluation import build_environment, technique_factory
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.rules import DEFAULT_VARIABLES, RuleEngine
from repro.rules.rulesets import (
    mvr_detection_ruleset_text,
    surveillance_interest_ruleset_text,
)

from ..surveillance.test_batching import build_trace

FOLDED = (
    "rules_packets_total",
    "rules_candidates_evaluated_total",
    "rules_prefilter_skips_total",
    "rules_hits_total",
)


def _mvr_engine():
    text = "\n".join(
        [mvr_detection_ruleset_text(), surveillance_interest_ruleset_text()]
    )
    return RuleEngine.from_text(text, variables=DEFAULT_VARIABLES, obs_label="mvr")


def _feed(engine, trace):
    for packet, now in trace:
        engine.process(packet, now)


def _rows(snapshot, name):
    return {
        tuple(labels): value
        for labels, value in snapshot["instruments"][name]["values"]
    }


def _folded(snapshot):
    return {name: _rows(snapshot, name) for name in FOLDED}


def _public(engine):
    """The packet and hit rows, read off the engine's public record."""
    label = engine.obs_label
    packets = engine.packets_processed
    hits = Counter(alert.sid for alert in engine.alerts)
    return {
        "rules_packets_total": {(label,): packets} if packets else {},
        "rules_hits_total": {
            (label, str(sid)): count for sid, count in hits.items()
        },
    }


def _ledger(engine):
    """Every counter's expected label rows, read off the engine."""
    label = engine.obs_label
    _packets, evaluated, skips = engine._totals
    expected = _public(engine)
    expected["rules_candidates_evaluated_total"] = (
        {(label,): evaluated} if evaluated else {}
    )
    expected["rules_prefilter_skips_total"] = {(label,): skips} if skips else {}
    return expected


class TestFoldOnRead:
    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(0, len(build_trace())), max_size=4))
    def test_every_read_equals_the_totals(self, cuts):
        """Reads after any number of packets, at any cut points, equal
        the engine's totals, so no read double-counts an earlier one."""
        trace = build_trace()
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = _mvr_engine()
            fed = 0
            for cut in sorted(cuts) + [len(trace)]:
                _feed(engine, trace[fed:cut])
                fed = max(fed, cut)
                assert _folded(registry.snapshot()) == _ledger(engine)
        assert engine.packets_processed == len(trace)
        assert engine.alerts

    def test_process_batch_folds_like_process(self):
        trace = build_trace()
        snapshots = []
        for batched in (False, True):
            registry = MetricsRegistry()
            with use_registry(registry):
                engine = _mvr_engine()
                if batched:
                    engine.process_batch(
                        [packet for packet, _ in trace], [now for _, now in trace]
                    )
                else:
                    _feed(engine, trace)
                snapshots.append(_folded(registry.snapshot()))
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["rules_packets_total"] == {("mvr",): len(trace)}

    def test_engines_collected_before_the_read_still_report(self):
        """A command that builds its environment, returns and only then
        snapshots the registry must still see every ``rules_*`` value of
        both the censor's and the MVR's engine."""

        def run(collect):
            registry = MetricsRegistry()
            with use_registry(registry):
                env = build_environment(censored=True, seed=0)
                technique_factory("overt-http")(env).start()
                env.run(duration=20.0)
                engines = (env.censor.rule_engines()[0], env.surveillance.engine)
                public = [_public(engine) for engine in engines]
                if not collect:
                    return public, _folded(registry.snapshot())
                gone = [weakref.ref(engine) for engine in engines]
                del env, engines
                gc.collect()
                assert all(ref() is None for ref in gone)
                return public, _folded(registry.snapshot())

        alive_public, alive = run(collect=False)
        public, collected = run(collect=True)
        assert public == alive_public
        for name in ("rules_packets_total", "rules_hits_total"):
            expected = {}
            for engine_rows in public:
                expected.update(engine_rows[name])
            assert collected[name] == expected, name
        assert collected == alive
        packets = collected["rules_packets_total"]
        assert packets[("censor",)] == packets[("mvr",)] > 0
        assert collected["rules_candidates_evaluated_total"]
        assert collected["rules_prefilter_skips_total"]

    def test_idle_engine_adds_no_label_rows(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            _mvr_engine()
            snapshot = registry.snapshot()
        for name in FOLDED:
            assert _rows(snapshot, name) == {}, name

    def test_an_engine_that_evaluates_nothing_adds_no_zero_rows(self):
        """A censor with filtering disabled runs an empty ruleset: its
        packets are counted, but no zero-valued candidate row appears."""
        trace = build_trace()
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = RuleEngine(rules=[], obs_label="censor")
            _feed(engine, trace)
            snapshot = registry.snapshot()
        assert _folded(snapshot) == {
            "rules_packets_total": {("censor",): len(trace)},
            "rules_candidates_evaluated_total": {},
            "rules_prefilter_skips_total": {},
            "rules_hits_total": {},
        }

    def test_cleared_registry_counts_only_new_packets(self):
        trace = build_trace()
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = _mvr_engine()
            _feed(engine, trace[:5])
            registry.clear()
            # nothing moved since the last fold: no zero rows appear
            assert all(_rows(registry.snapshot(), name) == {} for name in FOLDED)
            _feed(engine, trace[5:9])
            counter = registry.get("rules_packets_total")
        assert counter.total() == 4

    def test_merged_registry_sums_exactly_across_points(self):
        trace = build_trace()
        parts = []
        ledgers = []
        for piece in (trace[:7], trace[7:], trace):
            registry = MetricsRegistry()
            with use_registry(registry):
                engine = _mvr_engine()
                _feed(engine, piece)
                parts.append(registry.snapshot())
                ledgers.append(_ledger(engine))
        merged = MetricsRegistry()
        for part in parts:
            merged.merge(part)
        expected = {}
        for ledger in ledgers:
            for name, rows in ledger.items():
                into = expected.setdefault(name, {})
                for labels, value in rows.items():
                    into[labels] = into.get(labels, 0) + value
        assert _folded(merged.snapshot()) == expected
