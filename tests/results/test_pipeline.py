"""Record sink wired into the sweep runner and CLI, end to end.

The contracts: (1) record files are ``cmp``-identical across serial,
work-stealing, and kill-then-resume executions of the same spec; (2) the
report's bytes do not depend on whether a sink path was configured; (3)
the sink summary is conserved against the merged metrics; (4) ``repro
report`` / ``repro dashboard`` consume the file through public entry
points, and the dashboard references no external URL.
"""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.results import iter_rows, read_header, records_path, write_records
from repro.runner import CampaignStore, SweepRunner, SweepSpec

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def canonical(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def small_spec(**overrides):
    params = dict(
        name="records", base_seed=5, seeds=(0, 1), loss_rates=(0.0, 0.05),
        retry_policies=("retry-3",), port_count=10, duration=30.0,
    )
    params.update(overrides)
    return SweepSpec(**params)


def vantage_spec(**overrides):
    params = dict(
        name="records-vantage", base_seed=5, seeds=(0,),
        techniques=("scan",), topologies=("censored-as",),
        loss_rates=(0.0,), retry_policies=("single-shot",),
        vantages=("censored", "clean"), duration=30.0,
    )
    params.update(overrides)
    return SweepSpec(**params)


def run_sweep(spec, record_path=None, **kwargs):
    runner = SweepRunner(spec, record_path=record_path, **kwargs)
    return runner.run()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunnerIntegration:
    def test_record_file_rows_cover_every_point(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        spec = small_spec()
        report = run_sweep(spec, record_path=path, serial=True)
        rows = list(iter_rows(path))
        assert {row["point"] for row in rows} == set(range(len(spec)))
        assert report["summary"]["records"]["rows"] == len(rows)
        assert read_header(path)["spec_hash"] == spec.content_hash()

    def test_report_bytes_independent_of_sink(self, tmp_path):
        spec = small_spec()
        with_sink = run_sweep(
            spec, record_path=str(tmp_path / "c.records.jsonl"), serial=True
        )
        without_sink = run_sweep(spec, record_path=None, serial=True)
        assert canonical(with_sink) == canonical(without_sink)

    def test_rows_conserved_against_merged_metrics(self, tmp_path):
        report = run_sweep(small_spec(), serial=True)
        records = report["summary"]["records"]
        assert records["conserved"] is True
        assert records["by_verdict"] == report["summary"]["verdicts"]

    def test_conservation_detects_row_loss(self, tmp_path):
        # Corrupt the invariant on purpose: strip one point's rows after
        # execution (as a schema-drift bug would) — conserved must flip.
        path = str(tmp_path / "c.records.jsonl")
        store = CampaignStore(str(tmp_path / "c.journal.jsonl"),
                              small_spec().content_hash())
        runner = SweepRunner(small_spec(), serial=True, store=store,
                             record_path=path)
        report = runner.run()
        store.close()
        assert report["summary"]["records"]["conserved"] is True

        broken = CampaignStore(str(tmp_path / "c.journal.jsonl"),
                               small_spec().content_hash(), resume=True)
        first = min(broken.records)
        broken.records[first]["records"] = []
        rerun = SweepRunner(small_spec(), serial=True, store=broken,
                            record_path=path).run()
        broken.close()
        assert rerun["summary"]["records"]["conserved"] is False

    def test_serial_and_stealing_record_files_are_identical(self, tmp_path):
        spec = small_spec()
        serial_path = str(tmp_path / "serial.records.jsonl")
        pool_path = str(tmp_path / "pool.records.jsonl")
        run_sweep(spec, record_path=serial_path, serial=True)
        run_sweep(spec, record_path=pool_path, workers=2)
        assert read_bytes(serial_path) == read_bytes(pool_path)

    def test_failed_points_produce_no_rows(self, tmp_path):
        path = str(tmp_path / "c.records.jsonl")
        spec = small_spec(inject_failures={1: "exception"})
        report = run_sweep(spec, record_path=path, serial=True,
                           max_point_retries=0)
        assert report["summary"]["failed"] == 1
        assert report["summary"]["records"]["conserved"] is True
        assert {row["point"] for row in iter_rows(path)} == (
            set(range(len(spec))) - {1}
        )

    def test_vantage_axis_rows_carry_both_vantages(self, tmp_path):
        path = str(tmp_path / "v.records.jsonl")
        run_sweep(vantage_spec(), record_path=path, serial=True)
        vantages = {row["vantage"] for row in iter_rows(path)}
        assert vantages == {"censored", "clean"}
        censors = {(row["vantage"], row["censor"]) for row in iter_rows(path)}
        assert censors == {("censored", "gfc"), ("clean", "none")}


class TestProgressCallback:
    def test_progress_fires_per_point_and_never_touches_the_report(self):
        spec = small_spec()
        events = []
        runner = SweepRunner(spec, serial=True, progress=events.append)
        with_progress = runner.run()
        silent = SweepRunner(spec, serial=True).run()
        assert canonical(with_progress) == canonical(silent)
        assert len(events) == len(spec)
        last = events[-1]
        assert last["done"] == len(spec)
        assert last["total"] == len(spec)
        assert last["failed"] == 0
        assert last["sim_cost"] == pytest.approx(
            sum(point.duration for point in spec.points())
        )

    def test_progress_counts_failures(self):
        spec = small_spec(inject_failures={0: "exception"})
        events = []
        SweepRunner(spec, serial=True, max_point_retries=0,
                    progress=events.append).run()
        assert events[-1]["failed"] == 1


def run_cli(args, cwd, check=True):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def write_spec(tmp_path, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.as_dict()))
    return str(spec_path)


class TestCLIPipeline:
    def test_kill_resume_record_file_matches_uninterrupted(self, tmp_path):
        spec = small_spec()
        spec_path = write_spec(tmp_path, spec)

        clean_prefix = str(tmp_path / "clean")
        run_cli(["sweep", spec_path, "--serial", "--out", clean_prefix],
                cwd=str(tmp_path))

        killed_prefix = str(tmp_path / "killed")
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", spec_path, "--serial",
             "--out", killed_prefix, "--kill-after", "2",
             "--partial-every", "1"],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            returncode = proc.wait(timeout=120)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert returncode == 137, "kill injection did not fire"
        # the kill landed before the merge: no record file yet
        assert not os.path.exists(records_path(killed_prefix))

        run_cli(["sweep", spec_path, "--serial", "--resume", killed_prefix],
                cwd=str(tmp_path))
        assert read_bytes(records_path(clean_prefix)) == read_bytes(
            records_path(killed_prefix)
        )
        assert read_bytes(f"{clean_prefix}.report.json") == read_bytes(
            f"{killed_prefix}.report.json"
        )

    def test_report_command_text_and_json(self, tmp_path):
        spec_path = write_spec(tmp_path, vantage_spec())
        prefix = str(tmp_path / "v")
        run_cli(["sweep", spec_path, "--serial", "--out", prefix],
                cwd=str(tmp_path))

        text = run_cli(["report", prefix], cwd=str(tmp_path)).stdout
        assert "vantage-differential classification" in text
        assert "accuracy/evasion matrix" in text

        as_json = run_cli(["report", prefix, "--json"],
                          cwd=str(tmp_path)).stdout
        doc = json.loads(as_json)
        assert doc["rows"] > 0
        assert "classification" in doc and "matrix" in doc
        # canonical output: byte-stable across invocations
        again = run_cli(["report", prefix, "--json"],
                        cwd=str(tmp_path)).stdout
        assert as_json == again

    def test_report_without_records_fails_cleanly(self, tmp_path):
        proc = run_cli(["report", str(tmp_path / "nope")],
                       cwd=str(tmp_path), check=False)
        assert proc.returncode == 1
        assert "no record file" in proc.stderr

    @pytest.mark.parametrize("body, names", [
        ('{"verdict":"accessible"}\n', "'technique' column"),  # missing columns
        ("[1]\n", "bad.records.jsonl:2"),  # a row that is not an object
        (None, "bad.records.jsonl"),        # an empty file
    ])
    def test_report_on_malformed_records_fails_cleanly(self, tmp_path, body, names):
        prefix = str(tmp_path / "bad")
        path = records_path(prefix)
        if body is None:
            open(path, "w", encoding="utf-8").close()
        else:
            write_records(path, "cafe", [])
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(body)
        proc = run_cli(["report", prefix], cwd=str(tmp_path), check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert names in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_dashboard_is_self_contained(self, tmp_path):
        spec_path = write_spec(tmp_path, vantage_spec())
        prefix = str(tmp_path / "v")
        run_cli(["sweep", spec_path, "--serial", "--out", prefix],
                cwd=str(tmp_path))
        out = str(tmp_path / "dash.html")
        run_cli(["dashboard", prefix, "--out", out], cwd=str(tmp_path))
        html = read_bytes(out).decode("utf-8")
        assert "<svg" in html and "</html>" in html
        assert "<script" not in html
        # self-contained: no external URL of any scheme, no protocol-
        # relative src/href
        assert not re.search(r"(?:https?|ftp|data)://|//[a-z0-9.-]+\.[a-z]{2,}",
                             html, re.IGNORECASE)
        assert "prefers-color-scheme" in html

    def test_sweep_quiet_flag_accepted(self, tmp_path):
        spec_path = write_spec(tmp_path, small_spec(seeds=(0,),
                                                    loss_rates=(0.0,)))
        prefix = str(tmp_path / "q")
        proc = run_cli(["sweep", spec_path, "--serial", "--quiet",
                        "--out", prefix], cwd=str(tmp_path))
        # stderr is not a TTY here, so no progress frames either way
        assert "\r" not in proc.stderr
