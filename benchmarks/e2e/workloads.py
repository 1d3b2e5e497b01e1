"""The four workloads of the end-to-end benchmark.

Every workload is a closed loop with one client: it starts the next unit
of work only after the previous one completed.  A *batch* is one
``SweepRunner(spec, serial=True, record_path=...)`` campaign (sweep
workloads) or one record-file round trip (``report_replay``); a run
executes batches until its time box is spent, always at least one.
Batch ``k`` of a run with seed ``s`` is a pure function of ``(s, k)``, so
the first batch — the one ``output_digest`` covers — is identical in
every run with the same seed, however fast the machine is.

Importing this module imports ``repro``; the benchmark child does it
inside its timed set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import random
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro.core.evaluation import BLOCKED_TARGETS_FULL, CONTROL_TARGETS_FULL, TECHNIQUES
from repro.core.results import Verdict
from repro.obs.export import canonical_json
from repro.results import analyze as results_analyze
from repro.results import record as results_record
from repro.results.analyze import RecordAnalysis
from repro.runner import SweepRunner, SweepSpec
from repro.runner.worker import run_point

CENSORS = ("gfc", "bidirectional-residual", "throttler", "geoblocker")

#: Program counters summed over a run's batches: merged-registry counter
#: totals, plus per-point ``report.simulator`` fields.
COUNTERS = (
    "rules_packets_total",
    "rules_candidates_evaluated_total",
    "rules_prefilter_skips_total",
    "mvr_bytes_ingested_total",
    "mvr_bytes_retained_total",
    "link_packets_offered_total",
    "link_packets_dropped_total",
    "tcp_retransmitted_segments_total",
    "measurement_attempts_total",
    "measurement_results_total",
    "population_flows_total",
    "population_packets_materialized_total",
)


def new_counts() -> Dict[str, float]:
    counts = {name: 0 for name in COUNTERS}
    counts.update(population_flows_expanded=0, events_fired=0, queue_depth_high_water=0)
    return counts


@dataclasses.dataclass
class Batch:
    """What one batch did, as the benchmark measured it."""

    units: int
    failed: int
    #: wall seconds of each unit (a sweep point, or the round trip)
    unit_times: List[float]
    #: wall seconds of the timed region(s) of the batch
    wall: float
    problems: List[str]
    counts: Dict[str, float]
    rows: int = 0
    write_s: float = 0.0
    analyze_s: float = 0.0
    digest: Optional[str] = None


# -- sweep workloads ---------------------------------------------------------


def censor_campaign_spec(seed: int, batch: int, smoke: bool) -> SweepSpec:
    """The paper's E1/E9 accuracy/evasion experiment across every censor
    family: 7 techniques x loss {0, 0.02} x both vantages x 4 censors."""
    return SweepSpec(
        name="censor_campaign",
        base_seed=seed,
        seeds=(batch,),
        techniques=("overt-dns", "scan", "spam", "ddos") if smoke else TECHNIQUES,
        topologies=("censored-as",),
        loss_rates=(0.0,) if smoke else (0.0, 0.02),
        retry_policies=("retry-3",),
        vantages=("censored", "clean"),
        censors=("gfc",) if smoke else CENSORS,
        duration=90,
    )


def population_cover_spec(seed: int, batch: int, smoke: bool) -> SweepSpec:
    """A few long points dominated by hybrid-fidelity background traffic."""
    return SweepSpec(
        name="population_cover",
        base_seed=seed,
        seeds=(batch,),
        techniques=("scan",) if smoke else ("overt-http", "scan"),
        topologies=("censored-as",),
        populations=(1000,) if smoke else (1000, 2000, 3000),
        duration=10,
    )


def lossy_scan_spec(seed: int, batch: int, smoke: bool) -> SweepSpec:
    """1000-port scans over burst-lossy three-node paths: no censor, no
    MVR, no rule engine."""
    width = 1 if smoke else 10
    return SweepSpec(
        name="lossy_scan",
        base_seed=seed,
        seeds=tuple(range(batch * width, (batch + 1) * width)),
        techniques=("scan",),
        topologies=("three-node",),
        loss_rates=(0.02, 0.05, 0.1),
        retry_policies=("single-shot", "retry-4"),
        port_count=1000,
        duration=300,
    )


def _analysis(path: str) -> Dict[str, object]:
    # The class, not the traced analyze_records: checks stay out of spans.
    return RecordAnalysis().extend(results_record.iter_rows(path)).as_dict()


def check_censor_campaign(report, path: str, runner: SweepRunner) -> List[str]:
    """gfc at the censored vantage: scan/spam/ddos detect and evade it,
    overt-dns is always attributed."""
    gfc = _analysis(path)["censor_matrix"].get("gfc", {})
    problems = []
    for technique in ("scan", "spam", "ddos"):
        cell = gfc.get(technique, {})
        if cell.get("detects") != 1.0 or cell.get("evasion") != 1.0:
            problems.append(f"gfc/{technique}: detects/evasion {cell.get('detects')}/"
                            f"{cell.get('evasion')}, expected 1.0/1.0")
    if gfc.get("overt-dns", {}).get("evasion") != 0.0:
        problems.append("gfc/overt-dns: evasion is not 0.0")
    return problems


def check_population_cover(report, path: str, runner: SweepRunner) -> List[str]:
    """Background traffic exists wherever a population ran, in both tiers."""
    problems = []
    if any(row["population"] > 0 and row["background_bytes"] <= 0
           for row in results_record.iter_rows(path)):
        problems.append("a row with population > 0 has no background bytes")
    flows = runner.merged_registry.get("population_flows_total")
    tiers = {labels[0] for labels, value in (flows.labelled() if flows else ()) if value}
    for tier in ("aggregate", "expanded"):
        if tier not in tiers:
            problems.append(f"no {tier} background flow")
    return problems


def check_lossy_scan(report, path: str, runner: SweepRunner) -> List[str]:
    """Every scan finishes inside its 300 simulated seconds."""
    if not all(point.get("technique_done") for point in report["points"]):
        return ["a scan did not finish within the point's duration"]
    return []


class SweepWorkload:
    """A workload made of sweep campaigns, one ``SweepRunner`` per batch."""

    def __init__(self, name: str, spec_of: Callable, check: Callable,
                 seed: int, smoke: bool, workdir: str) -> None:
        self.name = name
        self.spec_of = spec_of
        self.check = check
        self.seed = seed
        self.smoke = smoke
        self.path = os.path.join(workdir, f"{name}.records.jsonl")

    def warm_up(self) -> None:
        """One point per distinct (topology, censor) at population 0."""
        seen = set()
        for point in self.spec_of(self.seed, 0, self.smoke).points():
            key = (point.topology, point.censor_name())
            if key not in seen:
                seen.add(key)
                run_point(dataclasses.replace(point, population=0).as_dict(),
                          in_process=True)

    def run_batch(self, batch: int, digest: bool = False) -> Batch:
        spec = self.spec_of(self.seed, batch, self.smoke)
        clock = time.perf_counter
        unit_times: List[float] = []
        last = [0.0]

        def progress(event) -> None:
            now = clock()
            unit_times.append(now - last[0])
            last[0] = now

        runner = SweepRunner(spec, serial=True, record_path=self.path, progress=progress)
        start = last[0] = clock()
        report = runner.run()
        wall = clock() - start

        summary = report["summary"]
        problems = []
        if summary["failed"]:
            problems.append(f"{summary['failed']} failed points")
        if not summary["records"]["conserved"]:
            problems.append("record rows do not match the merged counters")
        for point in report["points"]:
            links = point.get("report", {}).get("links", {})
            if not all(entry["conserved"] for entry in links.values()):
                problems.append(f"point {point['index']}: link accounting not conserved")
        problems.extend(self.check(report, self.path, runner))

        counts = new_counts()
        registry = runner.merged_registry
        for name in COUNTERS:
            counter = registry.get(name)
            counts[name] = counter.total() if counter is not None else 0
        flows = registry.get("population_flows_total")
        if flows is not None:
            counts["population_flows_expanded"] = sum(
                value for labels, value in flows.labelled() if labels[0] == "expanded")
        for point in report["points"]:
            sim = point.get("report", {}).get("simulator", {})
            counts["events_fired"] += sim.get("events_fired", 0)
            counts["queue_depth_high_water"] = max(
                counts["queue_depth_high_water"], sim.get("queue_depth_high_water", 0))

        result = Batch(
            units=summary["points"], failed=summary["failed"], unit_times=unit_times,
            wall=wall, problems=problems, counts=counts,
            rows=summary["records"]["rows"],
        )
        if digest:
            result.digest = _digest(self.path, report)
        return result


# -- record replay -------------------------------------------------------------

ROUND_ROWS = 25_000
SMOKE_ROUND_ROWS = 1_250

_BLOCKING = sorted(v.value for v in Verdict if v.indicates_blocking)


def replay_rows(seed: int, batch: int, count: int) -> List[Dict[str, object]]:
    """``count`` seeded record rows over the real ``ROW_FIELDS`` vocabulary.

    Rows come in synthetic points; every (point, target) is measured from
    both vantages, so the vantage-differential classifier has a censored
    and a clean side to compare for every pair.
    """
    rng = random.Random(f"report_replay:{seed}:{batch}")
    blocked = list(BLOCKED_TARGETS_FULL)
    control = list(CONTROL_TARGETS_FULL)
    rows: List[Dict[str, object]] = []
    point = 0
    while len(rows) < count:
        technique = rng.choice(TECHNIQUES)
        if technique == "scan":
            targets = [("blocked-service", True), ("control-service", False)]
        else:
            targets = [(t, True) for t in blocked] + [(t, False) for t in control]
        loss = rng.choice((0.0, 0.02, 0.05))
        retry = rng.choice(("single-shot", "retry-3"))
        censor = rng.choice(CENSORS)
        population = rng.choice((0, 0, 2000))
        background = rng.randrange(10_000, 10_000_000) if population else 0
        evaded = rng.random() < 0.5
        seq = 0
        for target, is_blocked in targets:
            for vantage in ("censored", "clean"):
                noise = rng.random()
                if noise < 0.04:
                    verdict = Verdict.INCONCLUSIVE.value
                elif is_blocked and vantage == "censored":
                    verdict = rng.choice(_BLOCKING)
                elif loss and noise < 0.06:
                    verdict = Verdict.BLOCKED_TIMEOUT.value
                else:
                    verdict = Verdict.ACCESSIBLE.value
                rows.append({
                    "attempts": 1 if retry == "single-shot" else rng.randint(1, 3),
                    "background_bytes": background,
                    "censor": censor if vantage == "censored" else "none",
                    "confidence": rng.random(),
                    "evaded": evaded,
                    "latency": rng.expovariate(2.0),
                    "loss": loss,
                    "point": point,
                    "population": population,
                    "reason": f"synthetic {verdict}",
                    "retry": retry,
                    "seed": batch,
                    "seq": seq,
                    "target": target,
                    "technique": technique,
                    "topology": "censored-as",
                    "vantage": vantage,
                    "verdict": verdict,
                })
                seq += 1
        point += 1
    return rows[:count]


class ReplayWorkload:
    """Write a record file with ``write_records``, then stream it back
    through ``analyze_records(iter_rows(path))``: the results layer alone."""

    name = "report_replay"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.count = SMOKE_ROUND_ROWS if smoke else ROUND_ROWS
        self.path = os.path.join(workdir, "report_replay.records.jsonl")

    def warm_up(self) -> None:
        rows = replay_rows(self.seed, -1, 200)
        results_record.write_records(self.path, "warm-up", rows)
        results_analyze.analyze_records(results_record.iter_rows(self.path))

    def run_batch(self, batch: int, digest: bool = False) -> Batch:
        rows = replay_rows(self.seed, batch, self.count)
        clock = time.perf_counter
        start = clock()
        results_record.write_records(self.path, f"replay-{self.seed}-{batch}", rows)
        written = clock()
        analysis = results_analyze.analyze_records(results_record.iter_rows(self.path))
        done = clock()

        problems = []
        read_back = itertools.zip_longest(results_record.iter_rows(self.path), rows)
        if any(got != sent for got, sent in read_back):
            problems.append("rows read back differ from the rows written")
        verdicts: Dict[str, int] = {}
        for row in rows:
            verdicts[row["verdict"]] = verdicts.get(row["verdict"], 0) + 1
        if analysis["rows"] != len(rows) or analysis["by_verdict"] != dict(sorted(verdicts.items())):
            problems.append("analysis row/verdict totals differ from the rows written")
        if analysis["points"] != sum(1 for row in rows if row["seq"] == 0):
            problems.append("analysis point count differs from the rows written")
        tally = analysis["classification_tally"]
        if not tally.get("censored") or not tally.get("accessible"):
            problems.append(f"classifier found no censored or no accessible target: {tally}")

        result = Batch(
            units=1, failed=0, unit_times=[done - start], wall=done - start,
            problems=problems, counts=new_counts(), rows=len(rows),
            write_s=written - start, analyze_s=done - written,
        )
        if digest:
            result.digest = _digest(self.path, analysis)
        return result


def _digest(path: str, document) -> str:
    """sha256 over the record file and the canonical report document."""
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        hasher.update(fh.read())
    hasher.update(canonical_json(document).encode("utf-8"))
    return hasher.hexdigest()


SWEEPS = {
    "censor_campaign": (censor_campaign_spec, check_censor_campaign),
    "population_cover": (population_cover_spec, check_population_cover),
    "lossy_scan": (lossy_scan_spec, check_lossy_scan),
}


def build(name: str, seed: int, smoke: bool, workdir: str):
    if name == ReplayWorkload.name:
        return ReplayWorkload(seed, smoke, workdir)
    spec_of, check = SWEEPS[name]
    return SweepWorkload(name, spec_of, check, seed, smoke, workdir)


# -- running and summarising ----------------------------------------------------


def run_batches(workload, seconds: float, batches: Optional[int] = None,
                on_batch: Optional[Callable[[int], None]] = None) -> List[Batch]:
    """Run batches 0, 1, ... until ``seconds`` have passed (at least one),
    or exactly ``batches`` of them when that is given."""
    results: List[Batch] = []
    start = time.perf_counter()
    while True:
        index = len(results)
        if batches is not None:
            if index >= batches:
                break
        elif results and time.perf_counter() - start >= seconds:
            break
        if on_batch is not None:
            on_batch(index)
        results.append(workload.run_batch(index, digest=index == 0))
    return results


def summarize(batches: List[Batch]) -> Dict[str, object]:
    """The child's end-to-end numbers (``setup_s`` is added by the parent).

    Computes every metric the batches allow; which of them a workload
    reports is decided by ``run.END_TO_END``.
    """
    units = sum(batch.units for batch in batches)
    failed = sum(batch.failed for batch in batches)
    problems = [problem for batch in batches for problem in batch.problems]
    times = [t for batch in batches for t in batch.unit_times]
    wall = sum(batch.wall for batch in batches)
    correct = not problems
    metrics: Dict[str, float] = {
        "points_per_s": units / wall,
        "point_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": failed / units if correct else 1.0,
    }
    if len(times) > 1:
        metrics["point_p90_s"] = statistics.quantiles(times, n=10)[-1]
    write_s = sum(batch.write_s for batch in batches)
    if write_s:
        rows = sum(batch.rows for batch in batches)
        metrics["sink_rows_per_s"] = rows / write_s
        metrics["report_rows_per_s"] = rows / sum(batch.analyze_s for batch in batches)
    return {
        "correct": correct,
        "problems": problems[:20],
        "attempted": units,
        "failed": units if not correct else failed,
        "batches": len(batches),
        "metrics": metrics,
        "output_digest": batches[0].digest,
    }


def sum_counts(batches: List[Batch]) -> Dict[str, float]:
    total = new_counts()
    for batch in batches:
        for name, value in batch.counts.items():
            if name == "queue_depth_high_water":
                total[name] = max(total[name], value)
            else:
                total[name] += value
    return total
