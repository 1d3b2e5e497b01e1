"""Smoke tests for the end-to-end benchmark: ``pytest benchmarks/e2e``.

They run every workload at smoke size (about 1/20), so they stay well
under a minute; tier-1 ``testpaths`` do not include them.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402


def _files_under_repo():
    found = set()
    for dirpath, dirnames, filenames in os.walk(run.ROOT):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "__pycache__", ".pytest_cache")]
        found.update(os.path.join(dirpath, name) for name in filenames)
    return found


def _smoke(*extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *extra],
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _blocks(stdout):
    """workload -> {printed name: printed unit}, plus the result line."""
    lines = stdout.strip().splitlines()
    blocks, current = {}, None
    for line in lines[:-1]:
        if not line.startswith(" "):
            current = blocks.setdefault(line.split()[0], {})
            continue
        fields = line.split()
        if len(fields) == 3:
            float(fields[1])
            current[fields[0]] = fields[2]
        else:
            current[fields[0]] = fields[1]
    return blocks, json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    before = _files_under_repo()
    outputs = {"first": _smoke(), "second": _smoke(), "traced": _smoke("--trace")}
    outputs["new_files"] = _files_under_repo() - before
    return outputs


def test_every_end_to_end_metric_is_printed_with_its_unit(smoke):
    blocks, line = _blocks(smoke["first"])
    assert sorted(blocks) == sorted(run.WORKLOADS)
    for workload in run.WORKLOADS:
        expected = {name: unit for name, (unit, applies) in run.END_TO_END.items()
                    if workload in applies}
        printed = {name: unit for name, unit in blocks[workload].items()
                   if name != "output_digest"}
        assert printed == expected, workload
        for name in run.GATED:
            entry = line["metrics"][f"{workload}/{name}"]
            assert entry["unit"] == run.END_TO_END[name][0]
            assert entry["value"] > 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0


def test_trace_prints_every_layer_metric_and_zeros_for_bypassed_layers(smoke):
    blocks, _ = _blocks(smoke["traced"])
    for workload in run.WORKLOADS:
        printed = {name: unit for name, unit in blocks[workload].items()
                   if name != "output_digest"}
        assert printed == spans.PER_LAYER, workload
    values = {}
    for entry in json.loads(smoke["traced"].strip().splitlines()[-1])["metrics"].items():
        workload, name = entry[0].split("/")
        values.setdefault(workload, {})[name] = entry[1]["value"]
    for name, value in values["lossy_scan"].items():
        if name.startswith(("rules.", "censor.", "surveillance.")):
            assert value == 0, name
    for workload in ("censor_campaign", "lossy_scan", "report_replay"):
        for name, value in values[workload].items():
            if name.startswith("netsim.flows."):
                assert value == 0, (workload, name)
    assert values["population_cover"]["netsim.flows.submit.self_s"] > 0
    assert values["censor_campaign"]["rules.process.self_s"] > 0


def test_output_digest_is_identical_across_runs(smoke):
    first, _ = _blocks(smoke["first"])
    second, _ = _blocks(smoke["second"])
    traced, _ = _blocks(smoke["traced"])
    for workload in run.WORKLOADS:
        digest = first[workload]["output_digest"]
        assert len(digest) == 64
        assert second[workload]["output_digest"] == digest
        assert traced[workload]["output_digest"] == digest


def test_no_file_is_left_under_the_repo(smoke):
    assert smoke["new_files"] == set()


def test_a_broken_check_fails_the_run(monkeypatch, capsys):
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    from repro.netsim.link import DirectionStats

    monkeypatch.setattr(DirectionStats, "conserved", property(lambda self: False))
    code = run.main(["--child", "measure", "--workload", "lossy_scan",
                     "--smoke", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["metrics"]["failed_ratio"] == 1.0
    assert result["failed"] == result["attempted"]


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: run.END_TO_END[name][0] for name in run.GATED}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == spans.PER_LAYER
