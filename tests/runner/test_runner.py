"""Sweep runner: determinism across worker counts, merge, crash isolation.

The headline property: a sweep report is a pure function of its spec.
``--workers 1`` and ``--workers 4`` must produce byte-identical merged
reports and metrics snapshots, and a worker crash must fail only its own
points while the sweep completes.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.censor import censor_families
from repro.obs import MetricsRegistry
from repro.runner import (
    CampaignStore,
    QueuePlanner,
    SweepRunner,
    SweepSpec,
    estimate_cost,
    run_point,
    run_shard,
)


def small_spec(**overrides):
    params = dict(
        name="unit", base_seed=5, seeds=(0, 1), loss_rates=(0.0, 0.05),
        retry_policies=("single-shot", "retry-3"), port_count=40,
        duration=120.0,
    )
    params.update(overrides)
    return SweepSpec(**params)


def canonical(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


class TestRunPoint:
    def test_ok_record_shape(self):
        point = small_spec().points()[0]
        record = run_point(point.as_dict())
        assert record["status"] == "ok"
        assert record["index"] == 0
        assert record["params"] == point.as_dict()
        assert record["records"][0]["verdict"] == "accessible"
        assert "results" not in record  # rows are the only result form
        assert record["report"]["metrics"]["instruments"]
        json.dumps(record)  # JSON-ready end to end

    def test_point_runs_are_reproducible(self):
        point = small_spec(loss_rates=(0.05,)).points()[0]
        assert canonical(run_point(point.as_dict())) == \
            canonical(run_point(point.as_dict()))

    def test_censored_as_point_detects_blocking(self):
        spec = small_spec(
            topologies=("censored-as",), seeds=(0,), loss_rates=(0.0,),
            retry_policies=("single-shot",), duration=90.0,
        )
        record = run_point(spec.points()[0].as_dict())
        assert record["status"] == "ok"
        assert record["censor_events"] > 0
        verdicts = record["verdicts"]
        assert any(v != "accessible" for v in verdicts)

    def test_in_process_exit_injection_becomes_exception(self):
        point = small_spec(inject_failures={0: "exit"}).points()[0]
        with pytest.raises(RuntimeError, match="injected failure"):
            run_point(point.as_dict(), in_process=True)


class TestRunShard:
    def test_failed_point_does_not_kill_shard(self):
        spec = small_spec(seeds=(0,), loss_rates=(0.0,),
                          retry_policies=("single-shot", "retry-3"),
                          inject_failures={0: "exception"})
        records = run_shard([p.as_dict() for p in spec.points()],
                            max_point_retries=1, in_process=True)
        assert [r["status"] for r in records] == ["failed", "ok"]
        failed = records[0]
        assert "injected failure" in failed["error"]
        assert failed["attempts_used"] == 2  # initial try + 1 bounded retry

    def test_negative_retries_rejected(self):
        """Zero allowed attempts used to leave ``record`` unbound (or, in
        a multi-point shard, re-append the previous point's record)."""
        points = [p.as_dict() for p in small_spec(seeds=(0,)).points()]
        with pytest.raises(ValueError, match="max_point_retries"):
            run_shard(points, max_point_retries=-1, in_process=True)


class TestLazyPoolImport:
    def test_importing_the_runner_loads_no_process_pool(self):
        # Only --workers and quarantine use the pool; serial campaigns
        # (and the benchmark) must not pay for importing it.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = (
            "import sys, repro.runner, repro.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"


class TestArgumentValidation:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"partial_every": 0},
        {"max_point_retries": -1},
    ], ids=["workers", "partial_every", "max_point_retries"])
    def test_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            SweepRunner(small_spec(), **kwargs)


class TestDeterministicMerge:
    @pytest.fixture(scope="class")
    def reports(self):
        spec = small_spec()
        serial = SweepRunner(spec, serial=True).run()
        parallel = SweepRunner(spec, workers=4).run()
        return serial, parallel

    def test_serial_vs_four_workers_byte_identical(self, reports):
        serial, parallel = reports
        assert canonical(serial) == canonical(parallel)

    def test_merged_metrics_byte_identical(self, reports):
        serial, parallel = reports
        assert canonical(serial["merged"]["metrics"]) == \
            canonical(parallel["merged"]["metrics"])

    def test_merged_metrics_equal_sum_of_points(self, reports):
        serial, _ = reports
        rebuilt = MetricsRegistry()
        for record in serial["points"]:
            rebuilt.merge(record["report"]["metrics"])
        assert canonical(rebuilt.snapshot()) == \
            canonical(serial["merged"]["metrics"])

    def test_report_contains_no_execution_metadata(self, reports):
        serial, _ = reports
        text = canonical(serial)
        for leaky in ("workers", "wall", "shard"):
            assert f'"{leaky}"' not in text

    def test_points_listed_in_grid_order(self, reports):
        serial, _ = reports
        assert [r["index"] for r in serial["points"]] == list(range(8))


class TestCensorFamilySweeps:
    """Every registered censor family honours the determinism contract:
    a seeded two-vantage sweep is byte-identical serial vs two workers,
    and its record rows carry the family name on the censored vantage."""

    @pytest.mark.parametrize("family", censor_families())
    def test_family_sweep_deterministic_and_labelled(self, family):
        spec = small_spec(
            name=f"fam-{family}", seeds=(0,), loss_rates=(0.0,),
            retry_policies=("retry-3",), topologies=("censored-as",),
            techniques=("overt-http",), vantages=("censored", "clean"),
            censors=(family,), duration=90.0,
        )
        serial = SweepRunner(spec, serial=True).run()
        parallel = SweepRunner(spec, workers=2).run()
        assert canonical(serial) == canonical(parallel)

        censored_pt, clean_pt = serial["points"]
        assert {row["censor"] for row in censored_pt["records"]} == {family}
        assert {row["censor"] for row in clean_pt["records"]} == {"none"}


class TestQueuePlanner:
    def test_cost_estimate_tracks_the_known_drivers(self):
        cheap = small_spec(seeds=(0,), loss_rates=(0.0,),
                           retry_policies=("single-shot",)).points()[0]
        lossy = small_spec(seeds=(0,), loss_rates=(0.2,),
                           retry_policies=("single-shot",)).points()[0]
        retried = small_spec(seeds=(0,), loss_rates=(0.0,),
                             retry_policies=("retry-8",)).points()[0]
        censored = small_spec(
            seeds=(0,), loss_rates=(0.0,), retry_policies=("single-shot",),
            topologies=("censored-as",), techniques=("overt-http",),
        ).points()[0]
        assert estimate_cost(lossy) > estimate_cost(cheap)
        assert estimate_cost(retried) > estimate_cost(cheap)
        assert estimate_cost(censored) > estimate_cost(cheap)

    def test_injected_delay_dominates_every_grid_cost(self):
        points = small_spec(inject_delays={0: 0.5}).points()
        assert estimate_cost(points[0]) > max(
            estimate_cost(p) for p in points[1:]
        )

    def test_order_is_deterministic_most_expensive_first(self):
        points = small_spec().points()
        order = QueuePlanner().order(points)
        assert sorted(p.index for p in order) == [p.index for p in points]
        costs = [estimate_cost(p) for p in order]
        assert costs == sorted(costs, reverse=True)
        assert [p.index for p in QueuePlanner().order(points)] == \
            [p.index for p in order]

    def test_ties_break_by_grid_index(self):
        points = small_spec(loss_rates=(0.0,),
                            retry_policies=("single-shot",)).points()
        # equal-cost points: order must fall back to grid order
        assert [p.index for p in QueuePlanner().order(points)] == \
            [p.index for p in points]


class TestDispatchDeterminism:
    """Serial, work stealing, and a run resumed from a half-written
    journal — at any worker count — must all produce byte-identical
    reports, even on a grid with artificially skewed point costs."""

    @pytest.fixture(scope="class")
    def skewed_spec(self):
        return small_spec(
            name="skew", port_count=10, duration=30.0,
            inject_delays={0: 0.3},
        )

    @pytest.fixture(scope="class")
    def serial_report(self, skewed_spec):
        return SweepRunner(skewed_spec, serial=True).run()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["resumed", "stealing"])
    def test_all_modes_byte_identical(self, skewed_spec, serial_report,
                                      tmp_path, workers, mode):
        if mode == "stealing":
            report = SweepRunner(skewed_spec, workers=workers).run()
        else:
            # half the grid is journaled; the other half runs on `workers`
            path = str(tmp_path / "skew.journal.jsonl")
            spec_hash = skewed_spec.content_hash()
            with CampaignStore(path, spec_hash) as store:
                for record in serial_report["points"][::2]:
                    store.append(record)
            with CampaignStore(path, spec_hash, resume=True) as store:
                runner = SweepRunner(skewed_spec, workers=workers, store=store)
                report = runner.run()
            assert runner.resumed_indexes == list(range(0, len(skewed_spec), 2))
        assert canonical(report) == canonical(serial_report)


class TestStarvation:
    def test_slow_point_does_not_starve_other_workers(self, tmp_path):
        """Regression: one pathologically slow point must not serialize
        the rest of the grid behind it.

        With work stealing, the whale (grid index 0, made 30-60x slower
        than its siblings via the cost-skew hook) is queued first and
        pins one worker; the other worker must drain every cheap point
        in the meantime.  The journal records completion order, so the
        whale finishing *last* — after all cheap points — is the
        observable proof the other worker kept working.  A dispatch
        regression that waits on futures in submission order (or shards
        cheap points behind the whale) journals the whale first instead.
        """
        spec = small_spec(name="whale", seeds=(0,), port_count=10,
                          duration=30.0, inject_delays={0: 0.6})
        store = CampaignStore(str(tmp_path / "whale.journal.jsonl"),
                              spec.content_hash())
        report = SweepRunner(spec, workers=2, store=store).run()
        store.close()

        with open(store.path, "r", encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh.read().splitlines()]
        completion_order = [e["index"] for e in entries
                            if e["kind"] == "point"]
        assert sorted(completion_order) == list(range(len(spec)))
        # every cheap point completed while the whale was still running
        assert completion_order[-1] == 0, (
            f"whale did not finish last: completion order "
            f"{completion_order} — cheap points starved behind it"
        )
        # and the skew changed scheduling only, never results
        clean = SweepRunner(spec, serial=True).run()
        assert canonical(report) == canonical(clean)


class TestUnpicklableResult:
    """Regression: a worker whose *result* fails to pickle used to
    surface as an anonymous pool exception naming no point at all."""

    @pytest.fixture(scope="class")
    def poisoned_spec(self):
        return small_spec(seeds=(0,), port_count=10, duration=30.0,
                          inject_failures={1: "unpicklable"})

    def test_failed_record_names_the_offending_point(self, poisoned_spec):
        report = SweepRunner(poisoned_spec, workers=2).run()
        assert report["summary"]["failed_points"] == [1]
        failed = report["points"][1]
        assert failed["status"] == "failed"
        assert "sweep point 1" in failed["error"]
        assert "could not be pickled" in failed["error"]
        # the poison is deterministic, so it is not retried
        assert failed["attempts_used"] == 1
        # siblings are untouched
        assert all(report["points"][i]["status"] == "ok" for i in (0, 2, 3))

    def test_error_record_identical_across_modes(self, poisoned_spec):
        serial = SweepRunner(poisoned_spec, serial=True).run()
        stealing = SweepRunner(poisoned_spec, workers=2).run()
        assert canonical(serial) == canonical(stealing)


class TestCrashIsolation:
    def test_exception_point_marked_failed_sweep_completes(self):
        spec = small_spec(seeds=(0,), inject_failures={1: "exception"})
        report = SweepRunner(spec, workers=2).run()
        assert report["summary"]["failed_points"] == [1]
        assert report["summary"]["ok"] == len(spec) - 1
        failed = report["points"][1]
        assert failed["status"] == "failed"
        assert "injected failure" in failed["error"]

    def test_worker_process_death_is_survived(self):
        spec = small_spec(seeds=(0,), inject_failures={2: "exit"})
        report = SweepRunner(spec, workers=2, max_point_retries=1).run()
        assert report["summary"]["failed_points"] == [2]
        assert report["summary"]["ok"] == len(spec) - 1
        assert "process died" in report["points"][2]["error"]
        # shard-mates of the dead worker were salvaged, not lost
        assert all(report["points"][i]["status"] == "ok"
                   for i in (0, 1, 3))

    def test_crash_free_points_identical_to_clean_run(self):
        clean = small_spec(seeds=(0,))
        crashed = small_spec(seeds=(0,), inject_failures={2: "exception"})
        clean_report = SweepRunner(clean, serial=True).run()
        crash_report = SweepRunner(crashed, workers=2).run()
        for index in (0, 1, 3):
            a = clean_report["points"][index]
            b = crash_report["points"][index]
            # identical apart from the injected-failure param bookkeeping
            assert a["records"] == b["records"]
            assert "results" not in a and "results" not in b
            assert a["report"]["metrics"] == b["report"]["metrics"]
