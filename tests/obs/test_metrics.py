"""Unit tests for the metrics registry."""

import json

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    active_or_none,
    canonical_json,
    set_registry,
    use_registry,
)
from repro.obs.metrics import TallyFold


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("hits", "", ())
        c.inc()
        c.inc(amount=4)
        assert c.value() == 5
        assert c.total() == 5

    def test_labels_keep_separate_series(self):
        c = Counter("hits", "", ("host",))
        c.inc(("alice",))
        c.inc(("bob",), 2)
        assert c.value(("alice",)) == 1
        assert c.value(("bob",)) == 2
        assert c.total() == 3

    def test_wrong_label_arity_rejected(self):
        c = Counter("hits", "", ("host",))
        with pytest.raises(ValueError):
            c.inc(())
        with pytest.raises(ValueError):
            c.inc(("a", "b"))

    def test_negative_increment_rejected(self):
        c = Counter("hits", "", ())
        with pytest.raises(ValueError):
            c.inc(amount=-1)

    def test_labelled_sorts_rows(self):
        c = Counter("hits", "", ("host",))
        c.inc(("zeta",))
        c.inc(("alpha",))
        assert [labels for labels, _ in c.labelled()] == [("alpha",), ("zeta",)]


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("lat", "", (), buckets=(0.1, 1.0))
        assert h.buckets[-1] == float("inf")  # inf auto-appended
        h.observe(value=0.05)
        h.observe(value=0.5)
        h.observe(value=100.0)
        assert h.count() == 3
        state = h._values[()]
        assert state["counts"] == [1, 1, 1]
        assert state["sum"] == pytest.approx(100.55)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", "", (), buckets=(1.0, 0.1))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", "", (), buckets=())

    def test_bucket_counts_accessors(self):
        h = Histogram("lat", "", (), buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.6, 100.0):
            h.observe(value=value)
        assert h.bucket_counts() == [1, 2, 1]

    def test_bucket_counts_for_unseen_labels_are_zero(self):
        h = Histogram("lat", "", ("op",), buckets=(0.1,))
        assert h.bucket_counts(("get",)) == [0, 0]


class TestHistogramQuantile:
    def test_empty_histogram_returns_none(self):
        h = Histogram("lat", "", (), buckets=(0.1, 1.0))
        assert h.quantile(0.5) is None

    def test_unseen_labels_return_none(self):
        h = Histogram("lat", "", ("op",), buckets=(0.1,))
        h.observe(("get",), 0.05)
        assert h.quantile(0.5, ("put",)) is None

    def test_out_of_range_p_rejected(self):
        h = Histogram("lat", "", (), buckets=(0.1,))
        h.observe(value=0.05)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_single_bucket_interpolates_from_zero(self):
        h = Histogram("lat", "", (), buckets=(1.0,))
        for _ in range(4):
            h.observe(value=0.5)
        # all mass in [0, 1.0): median interpolates to the bucket midpoint
        assert h.quantile(0.5) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_interpolation_across_buckets(self):
        h = Histogram("lat", "", (), buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            h.observe(value=value)
        # p=0.5 -> target rank 2 lands at the end of the (1.0, 2.0] bucket's
        # first observation: 1.0 + (2.0-1.0) * (2-1)/2 = 1.5
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(0.25) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_error_bounded_by_bucket_width(self):
        h = Histogram("lat", "", (), buckets=(1.0, 2.0, 4.0, 8.0))
        values = [0.2, 0.9, 1.1, 1.9, 2.5, 3.9, 5.0, 7.0]
        for value in values:
            h.observe(value=value)
        for p, exact in ((0.25, 0.9), (0.5, 1.9), (0.75, 3.9)):
            estimate = h.quantile(p)
            # the documented contract: within one bucket width of truth
            assert abs(estimate - exact) <= 2.0

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        h = Histogram("lat", "", (), buckets=(1.0,))
        h.observe(value=50.0)  # lands in the auto-appended inf bucket
        assert h.quantile(0.5) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_per_label_series_are_independent(self):
        h = Histogram("lat", "", ("op",), buckets=(1.0, 10.0))
        h.observe(("fast",), 0.5)
        h.observe(("slow",), 5.0)
        assert h.quantile(1.0, ("fast",)) == pytest.approx(1.0)
        assert h.quantile(1.0, ("slow",)) > 1.0


class TestMerge:
    def test_counters_sum_per_label(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits", labels=("who",)).inc(("x",), 2)
        b.counter("hits", labels=("who",)).inc(("x",), 3)
        b.counter("hits", labels=("who",)).inc(("y",), 1)
        merged = a.merge(b)
        assert merged is a
        assert a.get("hits").value(("x",)) == 5
        assert a.get("hits").value(("y",)) == 1

    def test_merge_into_empty_registry(self):
        src = MetricsRegistry()
        src.counter("hits").inc(amount=2)
        merged = MetricsRegistry().merge(src)
        assert merged.get("hits").value() == 2

    def test_kind_conflict_raises(self):
        a = MetricsRegistry()
        a.counter("thing").inc()
        snap = json.loads(canonical_json(a.snapshot()))
        snap["instruments"]["thing"]["kind"] = "gauge"
        with pytest.raises(ValueError, match="thing"):
            a.merge(snap)
        assert a.get("thing").value() == 1

    def test_label_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("thing", labels=("x",)).inc(("1",))
        b.counter("thing", labels=("y",)).inc(("1",))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_sharded_merge_equals_serial_registry(self):
        """The sweep-runner invariant: N worker registries fold into
        exactly what one shared registry would have recorded."""
        def record(reg, values):
            for value in values:
                reg.counter("hits", labels=("who",)).inc(("x",))
                reg.counter("bytes", labels=("who",)).inc((str(value > 1),), value)

        # binary fractions: float addition is exact, so the partition
        # into workers cannot perturb the float sums
        serial = MetricsRegistry()
        record(serial, [0.0625, 0.5, 3.0, 0.125])

        workers = [MetricsRegistry() for _ in range(2)]
        record(workers[0], [0.0625, 0.5])
        record(workers[1], [3.0, 0.125])
        merged = MetricsRegistry()
        for worker in workers:
            merged.merge(worker.snapshot())  # snapshots, as across processes
        assert canonical_json(merged.snapshot()) == canonical_json(serial.snapshot())

    def test_from_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels=("who",)).inc(("x",), 2)
        reg.counter("total").inc(amount=3)
        reg.counter("idle", labels=("who",))
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert canonical_json(clone.snapshot()) == canonical_json(reg.snapshot())

    def test_round_trip_through_journal_json(self):
        """The campaign-journal path: snapshot -> canonical JSON text ->
        parse -> from_snapshot -> snapshot must be byte-identical, so a
        resumed sweep merges checkpointed snapshots exactly like the
        in-memory registries they saved."""
        reg = MetricsRegistry()
        reg.counter("hits", labels=("who",)).inc(("x",), 2)
        reg.counter("hits", labels=("who",)).inc(("y",), 0.5)  # float counter
        reg.counter("total").inc(amount=7)
        parsed = json.loads(canonical_json(reg.snapshot()))
        clone = MetricsRegistry.from_snapshot(parsed)
        assert canonical_json(clone.snapshot()) == canonical_json(reg.snapshot())
        # and merging the parsed form equals merging the live registry
        via_json = MetricsRegistry()
        via_json.merge(parsed)
        via_live = MetricsRegistry()
        via_live.merge(reg)
        assert canonical_json(via_json.snapshot()) == \
            canonical_json(via_live.snapshot())

    def test_from_snapshot_rejects_label_arity_mismatch(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels=("who",)).inc(("x",))
        snap = json.loads(canonical_json(reg.snapshot()))
        snap["instruments"]["hits"]["values"][0][0] = ["x", "extra"]
        with pytest.raises(ValueError):
            MetricsRegistry.from_snapshot(snap)

    def test_from_snapshot_rejects_bucket_count_mismatch(self):
        """A histogram row in a hand-edited journal (here one whose
        bucket counts do not match its bounds) is rejected by name: the
        registry records counters only."""
        snap = {"namespace": "repro", "instruments": {"lat": {
            "kind": "histogram", "help": "", "labels": [],
            "buckets": [0.1, "inf"],
            "values": [[[], {"counts": [1, 0, 9], "sum": 0.05, "count": 1}]],
        }}}
        with pytest.raises(ValueError, match="lat.*histogram"):
            MetricsRegistry.from_snapshot(snap)

    @pytest.mark.parametrize("kind", ["gauge", "histogram"])
    def test_from_snapshot_rejects_instruments_that_are_not_counters(self, kind):
        """The registry records counters only: a journal row of another
        kind is rejected by name, not dropped or misread."""
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("lat").inc()
        snap = json.loads(canonical_json(reg.snapshot()))
        snap["instruments"]["lat"]["kind"] = kind
        with pytest.raises(ValueError, match=f"lat.*{kind}"):
            MetricsRegistry.from_snapshot(snap)
        with pytest.raises(ValueError, match=f"lat.*{kind}"):
            MetricsRegistry().merge(snap)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("packets_total", labels=("link",))
        b = reg.counter("packets_total", labels=("link",))
        assert a is b

    def test_label_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing", labels=("a",))
        with pytest.raises(ValueError):
            reg.counter("thing", labels=("b",))

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.counter("alpha")
        assert reg.names() == ["alpha", "zeta"]

    def test_clear_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        reg.clear()
        assert reg.get("hits") is c
        assert c.value() == 0

    def test_registry_is_truthy(self):
        assert MetricsRegistry()

class TestTallyFold:
    """Plain tallies folded into counters at read time."""

    def test_reads_equal_the_tallies_and_never_double_count(self):
        reg = MetricsRegistry()
        hits = reg.counter("hits_total", labels=("host",))
        tally = {}
        TallyFold(reg, ((hits, tally.items),))
        tally[("alice",)] = 3
        assert reg.get("hits_total").value(("alice",)) == 3
        tally[("alice",)] = 5
        tally[("bob",)] = 1
        reg.snapshot()
        reg.snapshot()
        assert dict(hits.labelled()) == {("alice",): 5, ("bob",): 1}

    def test_scalar_keys_are_a_single_label(self):
        reg = MetricsRegistry()
        hits = reg.counter("hits_total", labels=("host",))
        TallyFold(reg, ((hits, {"alice": 2}.items),))
        assert dict(reg.get("hits_total").labelled()) == {("alice",): 2}

    def test_a_total_that_never_moved_adds_no_row(self):
        reg = MetricsRegistry()
        hits = reg.counter("hits_total", labels=("host",))
        tally = {("alice",): 0}
        TallyFold(reg, ((hits, tally.items),))
        assert reg.snapshot()["instruments"]["hits_total"]["values"] == []
        tally[("alice",)] = 4
        reg.clear()
        assert reg.snapshot()["instruments"]["hits_total"]["values"] == []

    def test_outlives_its_producer(self):
        """The registry holds the fold, which holds only the tally: what
        a producer counted is reported after the producer is collected."""
        import gc
        import weakref

        class Producer:
            def __init__(self, reg):
                self.tally = {(): 0}
                TallyFold(reg, ((reg.counter("hits_total"), self.tally.items),))

        reg = MetricsRegistry()
        producer = Producer(reg)
        producer.tally[()] += 7
        gone = weakref.ref(producer)
        del producer
        gc.collect()
        assert gone() is None
        assert reg.get("hits_total").value() == 7

class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("zeta_total", labels=("who",)).inc(("b",))
        reg.counter("zeta_total", labels=("who",)).inc(("a",), 2)
        reg.counter("alpha_total").inc(amount=7)
        reg.counter("lat_total", labels=("op",))
        return reg

    def test_snapshot_shape(self):
        snap = self._populated().snapshot()
        assert snap["namespace"] == "repro"
        assert list(snap["instruments"]) == ["alpha_total", "lat_total", "zeta_total"]
        zeta = snap["instruments"]["zeta_total"]
        assert zeta["kind"] == "counter"
        assert zeta["values"] == [[["a"], 2], [["b"], 1]]  # label-sorted

    def test_snapshot_deterministic_across_insertion_order(self):
        a = self._populated()
        b = MetricsRegistry()
        b.counter("lat_total", labels=("op",))
        b.counter("alpha_total").inc(amount=7)
        b.counter("zeta_total", labels=("who",)).inc(("a",), 2)
        b.counter("zeta_total", labels=("who",)).inc(("b",))
        assert canonical_json(a.snapshot()) == canonical_json(b.snapshot())


class TestInstallation:
    def test_defaults_to_none(self):
        assert active_or_none() is None

    def test_use_registry_scopes_installation(self):
        reg = MetricsRegistry()
        with use_registry(reg) as installed:
            assert installed is reg
            assert active_or_none() is reg
        assert active_or_none() is None

    def test_use_registry_restores_previous(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                assert active_or_none() is inner
            assert active_or_none() is outer

    def test_set_registry_returns_previous(self):
        reg = MetricsRegistry()
        assert set_registry(reg) is None
        try:
            assert set_registry(None) is reg
        finally:
            set_registry(None)
