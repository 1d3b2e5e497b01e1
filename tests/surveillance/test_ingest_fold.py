"""The MVR's ingest and per-class byte counters fold from its own ledger.

``SurveillanceSystem`` keeps ``packets_seen``, ``store.bytes_seen`` and
the per-class discard/retain dicts anyway; the ``mvr_*`` ingest and byte
counters are folded from them on registry read instead of being bumped
per packet.  These tests pin the fold down: any read equals the ledger,
repeated reads never double-count, an idle tap adds no label rows, a tap
collected before the read still reports, and per-point registries still
merge into exact sums.
"""

import gc
import weakref

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.surveillance import SurveillanceSystem

from .test_batching import _feed, build_trace

FOLDED = (
    "mvr_packets_ingested_total",
    "mvr_bytes_ingested_total",
    "mvr_bytes_discarded_total",
    "mvr_bytes_retained_total",
)


def _rows(snapshot, name):
    return {
        tuple(labels): value
        for labels, value in snapshot["instruments"][name]["values"]
    }


def _ledger(surv):
    """The counters' expected label rows, read off the tap's ledger."""
    return {
        "mvr_packets_ingested_total": (
            {(): surv.packets_seen} if surv.packets_seen else {}
        ),
        "mvr_bytes_ingested_total": (
            {(): surv.store.bytes_seen} if surv.store.bytes_seen else {}
        ),
        "mvr_bytes_discarded_total": {
            (cls,): size for cls, size in surv.discarded_by_class.items()
        },
        "mvr_bytes_retained_total": {
            (cls,): size for cls, size in surv.retained_by_class.items()
        },
    }


def _folded(snapshot):
    return {name: _rows(snapshot, name) for name in FOLDED}


class TestFoldOnRead:
    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(0, len(build_trace())), max_size=4))
    def test_every_read_equals_the_ledger(self, cuts):
        """Reads after any number of packets, at any cut points, equal
        the ledger, so no read double-counts an earlier one."""
        trace = build_trace()
        registry = MetricsRegistry()
        with use_registry(registry):
            surv = SurveillanceSystem()
            fed = 0
            for cut in sorted(cuts) + [len(trace)]:
                _feed(surv, trace[fed:cut])
                fed = max(fed, cut)
                assert _folded(registry.snapshot()) == _ledger(surv)
        assert surv.packets_seen == len(trace)

    def test_two_snapshots_in_a_row_agree(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            surv = SurveillanceSystem()
            _feed(surv, build_trace())
            first = registry.snapshot()
            second = registry.snapshot()
        assert first == second
        assert _rows(first, "mvr_packets_ingested_total") == {(): len(build_trace())}

    def test_tap_collected_before_the_read_still_reports(self):
        """A command that builds its environment, returns and only then
        snapshots the registry must still see every ``mvr_*`` value."""
        registry = MetricsRegistry()
        with use_registry(registry):
            surv = SurveillanceSystem()
            _feed(surv, build_trace())
            expected = _ledger(surv)
            gone = weakref.ref(surv)
            del surv
            gc.collect()
            assert gone() is None
            snapshot = registry.snapshot()
        assert _folded(snapshot) == expected
        assert all(expected[name] for name in FOLDED)

    def test_idle_tap_adds_no_label_rows(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            SurveillanceSystem()
            snapshot = registry.snapshot()
        for name in FOLDED:
            assert _rows(snapshot, name) == {}, name

    def test_cleared_registry_counts_only_new_packets(self):
        trace = build_trace()
        registry = MetricsRegistry()
        with use_registry(registry):
            surv = SurveillanceSystem()
            _feed(surv, trace[:5])
            registry.clear()
            # nothing moved since the last fold: no zero rows appear
            assert all(_rows(registry.snapshot(), name) == {} for name in FOLDED)
            _feed(surv, trace[5:9])
            counter = registry.get("mvr_packets_ingested_total")
        assert counter.total() == 4

    def test_merged_registry_sums_exactly_across_points(self):
        trace = build_trace()
        parts = []
        ledgers = []
        for piece in (trace[:7], trace[7:], trace):
            registry = MetricsRegistry()
            with use_registry(registry):
                surv = SurveillanceSystem()
                _feed(surv, piece)
                parts.append(registry.snapshot())
                ledgers.append(_ledger(surv))
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
