#!/usr/bin/env python3
"""End-to-end benchmark of the paper's campaign workloads, with a traced
per-layer breakdown.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--repeat N]
                                  [--json OUT]

Each workload runs in fresh child interpreters, one at a time, each with
one thread and no process pool.  An untraced run starts five children:
every one times its own cold start (import ``repro``, build the
workload, warm up), and the last one then measures the workload for
``--seconds``.  ``--trace`` starts one child that runs the workload with
layer spans installed (see ``spans.py``), then the same batches again
without them, and reports the per-layer numbers.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the latter holding the gated end-to-end
metrics, or with ``--trace`` every per-layer metric.  Exit status: 0 when
every correctness check passed, 1 when one failed, 2 when the benchmark
could not run at all.

Only the standard library is used.  Scratch files go to a temporary
directory inside the checkout that is removed before the child exits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("censor_campaign", "population_cover", "lossy_scan", "report_replay")

#: name -> (unit, workloads it is reported for)
END_TO_END = {
    "setup_s": ("s", WORKLOADS),
    "points_per_s": ("1/s", WORKLOADS),
    "point_p50_s": ("s", WORKLOADS),
    "point_p90_s": ("s", ("censor_campaign", "lossy_scan")),
    "peak_rss_mb": ("MB", WORKLOADS),
    "failed_ratio": ("ratio", WORKLOADS),
    "sink_rows_per_s": ("rows/s", ("report_replay",)),
    "report_rows_per_s": ("rows/s", ("report_replay",)),
}

#: The end-to-end metrics the result line carries (and BENCHMARK.json
#: bounds): those every workload reports and that are never zero.
GATED = ("setup_s", "points_per_s", "point_p50_s", "peak_rss_mb")

COLD_STARTS = 5
#: A smoke run is about 1/20 of a full one: smaller batches, a time box
#: of ``--seconds / 20``, and one cold start.
SMOKE_DIVISOR = 20
#: Share of a traced run's time box spent traced; the untraced replay of
#: the same batches takes the rest.
TRACED_SHARE = 0.6
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


# -- child side -------------------------------------------------------------------


def child_main(args) -> int:
    """Set up one workload, then (measure or trace role) run it.

    Prints one JSON line; exits 0 when the checks passed, 1 otherwise.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=ROOT) as workdir:
        import workloads  # imports repro: part of the cold start

        workload = workloads.build(args.workload, args.seed, args.smoke, workdir)
        workload.warm_up()
        ready_at = time.monotonic()
        if args.child == "setup":
            print(json.dumps({"ready_at": ready_at}))
            return 0
        if args.child == "measure":
            result = workloads.summarize(workloads.run_batches(workload, args.seconds))
        else:
            result = trace_workload(workloads, workload, args.seconds)
        result["ready_at"] = ready_at
        print(json.dumps(result))
        return 0 if result["correct"] else 1


def trace_workload(workloads, workload, seconds: float) -> dict:
    import spans

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = workloads.run_batches(
            workload, TRACED_SHARE * seconds,
            on_batch=lambda index: setattr(tracer, "batch", index))
    finally:
        restore()
    untraced = workloads.run_batches(workload, 0, batches=len(traced))
    traced_wall = sum(batch.wall for batch in traced)
    untraced_wall = sum(batch.wall for batch in untraced)

    result = workloads.summarize(traced)
    layers = tracer.layer_self()
    self_sum = sum(layers.values())
    problems = result["problems"]
    if abs(self_sum - traced_wall) > 0.01 * traced_wall:
        problems.append(f"layer self times sum to {self_sum:.4f} s, "
                        f"traced wall time is {traced_wall:.4f} s")
    if untraced[0].digest != traced[0].digest:
        problems.append("tracing changed the output")
    if problems:
        result.update(correct=False, failed=result["attempted"])
    result["metrics"] = spans.layer_metrics(
        tracer, workloads.sum_counts(traced), traced_wall, untraced_wall)
    result["layers"] = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "self_sum_s": self_sum,
        "self_s": layers,
        "spans": {name: {"calls": calls, "total_s": total, "self_s": own}
                  for name, (calls, total, own) in sorted(tracer.stats.items())},
    }
    result["requests"] = [
        {"batch": batch, "request": request, "span": name,
         "start_s": round(start, 6), "end_s": round(end, 6)}
        for batch, request, name, start, end in tracer.requests
    ]
    return result


# -- parent side -----------------------------------------------------------------


def spawn(role: str, workload: str, seed: int, seconds: float, smoke: bool):
    """Run one child; returns (cold-start seconds, its result document)."""
    command = [sys.executable, os.path.abspath(__file__), "--child", role,
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    # The child stamps the end of its set-up with the same system-wide
    # monotonic clock, so the cold start includes interpreter start-up.
    started = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: {role} child timed out")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        setup_s = result.pop("ready_at") - started
    except (IndexError, ValueError, KeyError):
        raise BenchError(f"{workload}: {role} child exited {proc.returncode} "
                         "without a result") from None
    return setup_s, result


def run_workload(workload: str, seed: int, seconds: float, smoke: bool, trace: bool) -> dict:
    box = seconds / SMOKE_DIVISOR if smoke else seconds
    if trace:
        _, result = spawn("trace", workload, seed, box, smoke)
    else:
        samples = []
        starts = 1 if smoke else COLD_STARTS
        for index in range(starts):
            role = "measure" if index == starts - 1 else "setup"
            setup_s, result = spawn(role, workload, seed, box, smoke)
            samples.append(setup_s)
        result["metrics"]["setup_s"] = statistics.median(samples)
    result.update(workload=workload, seed=seed)
    return result


def metric_units(workload: str, trace: bool) -> dict:
    """The metrics ``workload`` reports, in print order, with units."""
    import spans

    if trace:
        return dict(spans.PER_LAYER)
    return {name: unit for name, (unit, applies) in END_TO_END.items()
            if workload in applies}


def print_result(result: dict, trace: bool) -> None:
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"{result['workload']}  seed {result['seed']}: {result['attempted']} "
          f"{'rounds' if result['workload'] == 'report_replay' else 'points'} in "
          f"{result['batches']} batches, {result['failed']} failed, {verdict}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, unit in metric_units(result["workload"], trace).items():
        print(f"  {name:<36} {result['metrics'][name]:>16.6f} {unit}")
    print(f"  {'output_digest':<36} {result['output_digest']}")


def print_spread(workload: str, runs: list, trace: bool) -> dict:
    """Median, quartiles and spread of each metric over repeated runs."""
    seeds = [run["seed"] for run in runs]
    print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
    print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'min':>12} {'max':>12} {'rng/med':>8}  unit")
    table = {}
    for name, unit in metric_units(workload, trace).items():
        values = [run["metrics"][name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        span = (max(values) - min(values)) / median if median else 0.0
        table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                       "min": min(values), "max": max(values), "unit": unit}
        print(f"  {name:<36} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{min(values):>12.6g} {max(values):>12.6g} {span:>8.3f}  {unit}")
    return table


def result_line(results: list, trace: bool) -> dict:
    """The machine-readable last line."""
    import spans

    units = spans.PER_LAYER if trace else {name: END_TO_END[name][0] for name in GATED}
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for name in units:
            metrics[prefix + name] = {"value": result["metrics"][name], "unit": units[name]}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def write_json(path: str, args, runs: list, spreads: dict) -> None:
    document = {
        "nproc": nproc(),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "metrics": [
            {"workload": run["workload"], "seed": run["seed"], "metric": name,
             "value": run["metrics"][name], "unit": unit}
            for run in runs
            for name, unit in metric_units(run["workload"], args.trace).items()
        ],
        "output_digests": [
            {"workload": run["workload"], "seed": run["seed"], "digest": run["output_digest"]}
            for run in runs
        ],
    }
    if spreads:
        document["spread"] = spreads
    if args.trace:
        document["layers"] = {run["workload"]: run["layers"] for run in runs}
        document["requests"] = {run["workload"]: run["requests"] for run in runs}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload at about 1/20 size")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each workload N times on seeds seed..seed+N-1, print "
                             "each metric's median, quartiles and spread, and put the "
                             "medians in the result line")
    parser.add_argument("--json", metavar="OUT",
                        help="also write every metric as {workload, metric, value, unit}")
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child and not args.workload:
        parser.error("--child needs --workload")
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    chosen = (args.workload,) if args.workload else WORKLOADS
    runs, summaries, spreads = [], [], {}
    try:
        for workload in chosen:
            group = []
            for offset in range(args.repeat):
                result = run_workload(workload, args.seed + offset, args.seconds,
                                      args.smoke, bool(args.trace))
                print_result(result, args.trace)
                group.append(result)
            runs.extend(group)
            if args.repeat == 1:
                summaries.append(group[0])
                continue
            spreads[workload] = print_spread(workload, group, args.trace)
            summaries.append({
                "workload": workload,
                "correct": all(result["correct"] for result in group),
                "attempted": sum(result["attempted"] for result in group),
                "failed": sum(result["failed"] for result in group),
                "metrics": {name: row["median"] for name, row in spreads[workload].items()},
            })
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        write_json(args.json, args, runs, spreads)
    line = result_line(summaries, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
