"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro matrix                 # E1 accuracy/evasion matrix
    python -m repro vantage                # per-domain blocking matrix
    python -m repro risk --technique spam  # one technique + risk report
    python -m repro syria --population 50000
    python -m repro sav --clients 20000
    python -m repro ethics --prefix 16
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from .analysis import (
    SyriaLogGenerator,
    analyze_logs,
    load_comparison,
    render_table,
)
from .censor import censor_families
from .core import build_environment
from .core.evaluation import BLOCKED_TARGETS_FULL, CONTROL_TARGETS_FULL, TECHNIQUES
from .netsim import http_get, resolve
from .obs import (
    MetricsRegistry,
    Tracer,
    active_or_none,
    use_registry,
    use_tracer,
    write_json,
)
from .spoofing import BEVERLY_PROFILE, feasibility_summary, sample_scopes


def cmd_matrix(args: argparse.Namespace) -> int:
    """The E1 accuracy/evasion matrix: the E1 scenario pack, run serially
    in memory (no file is written) and scored by the same
    :class:`~repro.results.RecordAnalysis` ``repro report`` uses."""
    from .results import render_matrix_text
    from .runner import E1_PACK, SweepSpec, analyze_spec

    try:
        spec = SweepSpec.from_mapping({
            **E1_PACK,
            "base_seed": args.seed,
            "duration": args.duration,
            "cover": args.cover,
        })
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_matrix_text(
        analyze_spec(spec),
        title=(f"accuracy/evasion matrix (E1 pack, base seed {args.seed}, "
               f"{len(spec)} points: censored and clean vantages)"),
    ))
    return 0


def cmd_vantage(args: argparse.Namespace) -> int:
    env = build_environment(censored=not args.open, seed=args.seed,
                            censor=args.censor)
    domains = args.domains or list(BLOCKED_TARGETS_FULL)[:5] + CONTROL_TARGETS_FULL[:2]
    observations = {}
    for domain in domains:
        if domain not in env.ctx.expected_addresses:
            print(f"warning: {domain} not hosted in the simulated world; skipping",
                  file=sys.stderr)
            continue
        observations[domain] = {}
        resolve(env.ctx.client, env.ctx.resolver_ip, domain,
                callback=lambda r, d=domain: observations[d].__setitem__("dns", r))
        http_get(env.ctx.client, env.ctx.expected_addresses[domain], domain,
                 callback=lambda r, d=domain: observations[d].__setitem__("http", r))
    env.run(duration=args.duration)

    poison = env.censor.policy.poison_ip
    rows = []
    for domain, obs in observations.items():
        poisoned = obs["dns"].addresses == [poison]
        rows.append([
            domain,
            "INJECTED" if poisoned else (",".join(obs["dns"].addresses) or obs["dns"].status),
            obs["http"].status,
            "BLOCKED" if poisoned or obs["http"].status in ("reset", "timeout") else "open",
        ])
    print(render_table(["domain", "DNS answer", "direct HTTP", "verdict"], rows,
                       title="vantage study from inside the AS"))
    return 0


def _run_one_point(args: argparse.Namespace, technique: str, vantage: str):
    """Run ``technique`` as a one-point sweep in the censored AS and
    return the point's record (``None`` after one ``error:`` line when
    the spec is rejected).  ``--seed`` is the spec's base seed."""
    from .runner import SweepSpec, run_point

    try:
        spec = SweepSpec.from_mapping({
            "name": args.command,
            "base_seed": args.seed,
            "techniques": [technique],
            "topologies": ["censored-as"],
            "vantages": [vantage],
            "censors": [args.censor],
            "duration": args.duration,
            "cover": args.cover,
        })
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    (point,) = spec.points()
    record = run_point(point.as_dict(), in_process=True)
    registry = active_or_none()
    if registry is not None:
        # --metrics-out: the point ran under a registry of its own
        registry.merge(record["report"]["metrics"])
    return record


def cmd_risk(args: argparse.Namespace) -> int:
    """One technique at the censored vantage, run as a one-point sweep: its
    record rows, then the point's risk columns."""
    record = _run_one_point(args, args.technique, "censored")
    if record is None:
        return 1
    rows = record["records"]

    shown = rows[: args.max_results]
    print(render_table(
        ["target", "verdict", "attempts", "latency (s)", "reason"],
        [[row["target"], row["verdict"], row["attempts"],
          f"{row['latency']:.3f}", row["reason"]] for row in shown],
        title=f"results ({len(rows)}):",
    ))
    if len(rows) > len(shown):
        print(f"  ... and {len(rows) - len(shown)} more")

    risk = rows[0] if rows else {}
    print(render_table(
        ["metric", "value"],
        [
            ["attributed alerts", risk.get("attributed_alerts", "-")],
            ["true-origin alerts", risk.get("true_origin_alerts", "-")],
            ["attribution confidence", risk.get("attribution_confidence", "-")],
            ["investigated", str(risk.get("investigated", "-"))],
            ["evaded (paper criterion)", str(risk.get("evaded", "-"))],
        ],
        title="\nsurveillance risk assessment",
    ))
    return 0


def cmd_deck(args: argparse.Namespace) -> int:
    """The platform's test deck at one risk posture: the ``deck-POSTURE``
    technique run as a one-point sweep over
    :data:`repro.core.platform.DECK_TARGETS`."""
    from .core.results import Verdict

    record = _run_one_point(args, f"deck-{args.posture}",
                            "clean" if args.open else "censored")
    if record is None:
        return 1
    rows = record["records"]

    print(render_table(
        ["target", "verdict", "reason"],
        [[row["target"], row["verdict"], row["reason"]] for row in rows],
        title=f"deck results ({args.posture} posture)",
    ))
    blocked = sorted({row["target"] for row in rows
                      if Verdict(row["verdict"]).indicates_blocking})
    print(f"\nblocked targets: {', '.join(blocked) or '(none)'}")
    if rows:
        risk = rows[0]
        print(
            f"risk: {risk['attributed_alerts']} attributed alert(s), confidence "
            f"{risk['attribution_confidence']:.2f}, "
            f"investigated={risk['investigated']}, evaded={risk['evaded']}"
        )
    if args.json:
        from .obs.export import canonical_json

        print()
        for row in rows:
            print(canonical_json(row))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one technique fully instrumented; export trace + metrics files.

    The technique runs as a one-point sweep (``--seed`` is its base
    seed).  Produces ``PREFIX.trace.json`` (Chrome trace-event format —
    open in chrome://tracing or https://ui.perfetto.dev),
    ``PREFIX.trace.jsonl`` (one event per line), and
    ``PREFIX.metrics.json`` (the point's run report).  Exports are
    deterministic: same seed, same bytes.
    """
    categories = set(args.categories) if args.categories else None
    tracer = Tracer(categories=categories)
    with use_tracer(tracer):
        record = _run_one_point(args, args.technique,
                                "clean" if args.open else "censored")
    if record is None:
        return 1
    unfinished = tracer.finalize()

    chrome_path = tracer.write_chrome(f"{args.out}.trace.json")
    jsonl_path = tracer.write_jsonl(f"{args.out}.trace.jsonl")
    report = record["report"]
    metrics_path = write_json(f"{args.out}.metrics.json", report)

    print(f"technique: {args.technique}  seed={args.seed}  "
          f"simulated {report['simulator']['now']:.1f}s")
    print(f"results: {len(record['records'])}  "
          f"trace events: {len(tracer.events)}"
          + (f"  (force-closed {unfinished} open span(s))" if unfinished else ""))
    print(f"wrote {chrome_path}  <- load this in chrome://tracing or Perfetto")
    print(f"wrote {jsonl_path}")
    print(f"wrote {metrics_path}")
    return 0


def _sweep_progress_printer(stream):
    """One live, carriage-return-updated progress line on ``stream``.

    Fed by :class:`SweepRunner`'s progress callback, once per journaled
    record — an execution-side channel only, so enabling it can never
    perturb the byte-stable output files.
    """
    def emit(event) -> None:
        stream.write(
            f"\r[sweep] {event['done']}/{event['total']} points"
            f"  failed {event['failed']}"
            f"  sim {event['sim_cost']:.0f}s "
        )
        stream.flush()
    return emit


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run (or resume) a scenario-sweep campaign across worker processes.

    Writes ``PREFIX.report.json`` (spec + per-point records + merged
    metrics), ``PREFIX.metrics.json`` (the merged snapshot alone), and
    ``PREFIX.records.jsonl`` (one row per measurement verdict, for
    ``repro report`` / ``repro dashboard``), and journals every finished
    point to ``PREFIX.journal.jsonl`` as it completes.  While the
    campaign is in flight, ``PREFIX.partial.json`` holds an atomically
    rewritten progress document.  The final files are byte-identical for
    any worker count or number of kill/``--resume`` cycles — the report
    deliberately contains no execution metadata — so ``--serial`` output
    can be ``cmp``-ed against a ``--workers N`` or kill-then-resume run
    (the CI smoke jobs do exactly that).
    """
    import time as _time

    from .results import records_path
    from .runner import CampaignStore, SweepRunner, SweepSpec

    try:
        spec = SweepSpec.load(args.spec)
    except (OSError, ValueError) as exc:
        print(f"error: {args.spec}: {exc}", file=sys.stderr)
        return 1
    prefix = args.resume if args.resume is not None else args.out
    store = None
    if not args.no_journal:
        store = CampaignStore(
            f"{prefix}.journal.jsonl",
            spec.content_hash(),
            resume=args.resume is not None,
            kill_after=args.kill_after,
        )
        if args.resume is not None and not store.resumed:
            print(
                f"note: no resumable checkpoint at {store.path} "
                "(missing, or journaled by a different spec); running the "
                "full grid",
                file=sys.stderr,
            )
    # The live progress line wants a human terminal: off when stderr is
    # piped (logs would fill with \r frames) or under --quiet.
    live = sys.stderr.isatty() and not args.quiet
    runner = SweepRunner(
        spec,
        workers=args.workers,
        serial=args.serial,
        max_point_retries=args.point_retries,
        store=store,
        partial_path=f"{prefix}.partial.json",
        partial_every=args.partial_every,
        record_path=records_path(prefix),
        progress=_sweep_progress_printer(sys.stderr) if live else None,
    )
    start = _time.perf_counter()
    try:
        report = runner.run()
    finally:
        if live:
            sys.stderr.write("\n")
            sys.stderr.flush()
        if store is not None:
            store.close()
    wall = _time.perf_counter() - start

    report_path = write_json(f"{prefix}.report.json", report)
    metrics_path = write_json(f"{prefix}.metrics.json", report["merged"]["metrics"])

    summary = report["summary"]
    mode = "serial" if runner.serial else f"{args.workers} workers"
    records = summary["records"]
    rows = [
        ["spec", spec.name],
        ["spec hash", spec.content_hash()],
        ["grid points", summary["points"]],
        ["ok", summary["ok"]],
        ["failed", summary["failed"]],
        ["record rows", records["rows"]],
        ["rows conserved", "yes" if records["conserved"] else "NO"],
        ["verdicts", ", ".join(f"{k}={v}" for k, v in summary["verdicts"].items())
         or "-"],
        ["mode", mode],
        ["wall clock", f"{wall:.2f}s"],
    ]
    if runner.resumed_indexes:
        rows.insert(3, ["resumed from journal", len(runner.resumed_indexes)])
        rows.insert(4, ["executed this run", len(runner.executed_indexes)])
    print(render_table(
        ["metric", "value"],
        rows,
        title=f"sweep: {spec.name} ({len(spec)} points)",
    ))
    if summary["failed"]:
        print(f"failed points: {summary['failed_points']}", file=sys.stderr)
    print(f"wrote {report_path}")
    print(f"wrote {metrics_path}")
    print(f"wrote {records_path(prefix)}")
    if args.strict and summary["failed"]:
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Streaming analysis over a campaign's measurement records.

    Reads ``PREFIX.records.jsonl`` one row at a time (memory stays
    bounded by the vocabulary of techniques/targets/grid cells, never
    the row count) and prints the vantage-differential classification,
    the Figure-1-style accuracy/evasion matrix, the false-block curves,
    and the latency quantiles — as text tables or, with ``--json``, as
    one canonical JSON document.
    """
    from .obs.export import canonical_json
    from .results import build_analysis, records_path, render_report_text

    path = records_path(args.prefix)
    try:
        analysis = build_analysis(args.prefix)
    except FileNotFoundError:
        print(f"error: no record file at {path} — run "
              f"`repro sweep SPEC --out {args.prefix}` first", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(canonical_json(analysis))
    else:
        print(render_report_text(analysis, title=f"campaign records: {path}"))
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render a campaign's records as one self-contained HTML page."""
    from .results import (
        build_analysis,
        read_header,
        records_path,
        render_dashboard,
    )

    path = records_path(args.prefix)
    try:
        header = read_header(path)
        analysis = build_analysis(args.prefix)
    except FileNotFoundError:
        print(f"error: no record file at {path} — run "
              f"`repro sweep SPEC --out {args.prefix}` first", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    html = render_dashboard(
        analysis, subtitle=f"spec {header['spec_hash']}"
    )
    out = args.out if args.out else f"{args.prefix}.dashboard.html"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"wrote {out}")
    return 0


def cmd_syria(args: argparse.Namespace) -> int:
    generator = SyriaLogGenerator(population=args.population,
                                  rng=random.Random(args.seed))
    analysis = analyze_logs(generator.generate(), args.population)
    print(render_table(
        ["metric", "value"],
        [
            ["population", analysis.population],
            ["requests (2 days)", analysis.total_requests],
            ["users touching censored content", analysis.users_touching_censored],
            ["fraction (paper: 0.0157)", analysis.censored_user_fraction],
            [f"analyst-days @ {args.capacity}/day", analysis.pursuit_burden(args.capacity)],
        ],
        title="Syria-log infeasibility analysis",
    ))
    return 0


def cmd_sav(args: argparse.Namespace) -> int:
    scopes = sample_scopes(random.Random(args.seed), args.clients, BEVERLY_PROFILE)
    summary = feasibility_summary(scopes)
    print(render_table(
        ["metric", "measured", "paper"],
        [
            ["clients", summary["total"], "-"],
            ["can spoof within /24", summary["frac_slash24"], 0.77],
            ["can spoof within /16", summary["frac_slash16"], 0.11],
        ],
        title="spoofing feasibility (Beverly et al. model)",
    ))
    return 0


def cmd_ethics(args: argparse.Namespace) -> int:
    comparison = load_comparison(prefix_length=args.prefix,
                                 queries_per_ip=args.queries_per_ip)
    print(render_table(
        ["metric", "value"],
        [
            [f"queries for a /{args.prefix} sweep", comparison.spoofed_queries],
            ["open forwarders (Schomp et al.)", comparison.open_forwarders],
            ["queries per open forwarder", comparison.queries_per_forwarder_equivalent],
            ["vs open-recursive population", comparison.fraction_of_recursive_population],
        ],
        title="measurement load vs. open-resolver practice",
    ))
    return 0


def _int_at_least(minimum: int):
    """An argparse ``type`` for integers >= ``minimum``, so a bad value is a
    usage error (exit 2) before any command writes a file."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum} (got {value})")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Can Censorship Measurements Be Safe(r)?' (HotNets 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every subcommand accepts --metrics-out: main() installs a registry
    # around the run and snapshots it to the given path afterwards.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a metrics-registry snapshot (JSON) after the run",
    )

    matrix = sub.add_parser("matrix", help="run the E1 accuracy/evasion matrix",
                            parents=[common])
    matrix.add_argument("--seed", type=int, default=0)
    matrix.add_argument("--duration", type=float, default=60.0)
    matrix.add_argument("--cover", type=int, default=8)
    matrix.set_defaults(func=cmd_matrix)

    vantage = sub.add_parser("vantage", help="per-domain blocking matrix from inside the AS",
                             parents=[common])
    vantage.add_argument("--seed", type=int, default=0)
    vantage.add_argument("--duration", type=float, default=30.0)
    vantage.add_argument("--open", action="store_true", help="disable the censor")
    vantage.add_argument("--censor", choices=censor_families(), default="gfc",
                         help="censor-model family at the border (default: gfc)")
    vantage.add_argument("--domains", nargs="*", help="domains to probe")
    vantage.set_defaults(func=cmd_vantage)

    risk = sub.add_parser("risk", help="run one technique and assess measurer risk",
                          parents=[common])
    risk.add_argument("--technique", choices=TECHNIQUES, default="spam")
    risk.add_argument("--censor", choices=censor_families(), default="gfc",
                      help="censor-model family at the border (default: gfc)")
    risk.add_argument("--seed", type=int, default=0,
                      help="base seed of the one-point sweep")
    risk.add_argument("--duration", type=float, default=90.0)
    risk.add_argument("--cover", type=int, default=11)
    risk.add_argument("--max-results", type=int, default=10)
    risk.set_defaults(func=cmd_risk)

    deck = sub.add_parser("deck", help="run the OONI-style test deck at a risk posture",
                          parents=[common])
    deck.add_argument("--posture", choices=("overt", "stealthy", "paranoid"),
                      default="stealthy")
    deck.add_argument("--seed", type=int, default=0,
                      help="base seed of the one-point sweep")
    deck.add_argument("--duration", type=float, default=120.0)
    deck.add_argument("--cover", type=int, default=11)
    deck.add_argument("--open", action="store_true", help="disable the censor")
    deck.add_argument("--censor", choices=censor_families(), default="gfc",
                      help="censor-model family at the border (default: gfc)")
    deck.add_argument("--json", action="store_true",
                      help="also print the deck's record rows as JSON lines")
    deck.set_defaults(func=cmd_deck)

    trace = sub.add_parser(
        "trace",
        help="run one technique fully instrumented; export a Perfetto trace",
    )
    trace.add_argument("--technique", choices=TECHNIQUES, default="scan")
    trace.add_argument("--seed", type=int, default=0,
                       help="base seed of the one-point sweep")
    trace.add_argument("--duration", type=float, default=90.0)
    trace.add_argument("--cover", type=int, default=11)
    trace.add_argument("--open", action="store_true", help="disable the censor")
    trace.add_argument("--censor", choices=censor_families(), default="gfc",
                       help="censor-model family at the border (default: gfc)")
    trace.add_argument("--out", default="run", metavar="PREFIX",
                       help="output prefix (PREFIX.trace.json / .trace.jsonl / .metrics.json)")
    trace.add_argument("--categories", nargs="*", metavar="CAT",
                       help="limit tracing to categories "
                            "(measurement, tcp, rules; default: all)")
    trace.set_defaults(func=cmd_trace)

    sweep = sub.add_parser(
        "sweep",
        help="run or resume a scenario-sweep campaign across worker processes",
    )
    sweep.add_argument("spec", metavar="SPEC",
                       help="sweep spec file (.json or .toml)")
    sweep.add_argument("--workers", type=_int_at_least(1), default=1,
                       metavar="N",
                       help="worker processes (default 1)")
    sweep.add_argument("--serial", action="store_true",
                       help="run every point in-process (no pool)")
    sweep.add_argument("--point-retries", type=_int_at_least(0), default=1,
                       metavar="N",
                       help="retries per failing point before marking it failed")
    sweep.add_argument("--out", default="sweep", metavar="PREFIX",
                       help="output prefix (PREFIX.report.json / "
                            "PREFIX.metrics.json / PREFIX.journal.jsonl)")
    sweep.add_argument("--resume", metavar="PREFIX", default=None,
                       help="resume the campaign journaled at "
                            "PREFIX.journal.jsonl: execute only missing or "
                            "failed points, write outputs at PREFIX "
                            "(a journal from a different spec is discarded)")
    sweep.add_argument("--no-journal", action="store_true",
                       help="skip the campaign journal (run is not resumable)")
    sweep.add_argument("--partial-every", type=_int_at_least(1), default=8,
                       metavar="N",
                       help="rewrite PREFIX.partial.json every N finished "
                            "points (default 8)")
    sweep.add_argument("--kill-after", type=int, default=None, metavar="N",
                       help="fault injection for crash-recovery tests/CI: "
                            "hard-kill this process after N journaled points")
    sweep.add_argument("--strict", action="store_true",
                       help="exit 1 if any point failed")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress the live progress line (it is also "
                            "off automatically when stderr is not a TTY)")
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser(
        "report",
        help="streaming analysis over a campaign's measurement records",
    )
    report.add_argument("prefix", metavar="PREFIX",
                        help="campaign output prefix (reads PREFIX.records.jsonl)")
    report.add_argument("--json", action="store_true",
                        help="print the analysis as canonical JSON instead "
                             "of text tables")
    report.set_defaults(func=cmd_report)

    dashboard = sub.add_parser(
        "dashboard",
        help="render a campaign's records as a self-contained HTML page",
    )
    dashboard.add_argument("prefix", metavar="PREFIX",
                           help="campaign output prefix "
                                "(reads PREFIX.records.jsonl)")
    dashboard.add_argument("--out", metavar="PATH", default=None,
                           help="output path (default PREFIX.dashboard.html)")
    dashboard.set_defaults(func=cmd_dashboard)

    syria = sub.add_parser("syria", help="Syria-log infeasibility analysis",
                           parents=[common])
    syria.add_argument("--population", type=int, default=50_000)
    syria.add_argument("--capacity", type=int, default=10)
    syria.add_argument("--seed", type=int, default=0)
    syria.set_defaults(func=cmd_syria)

    sav = sub.add_parser("sav", help="spoofing feasibility statistics",
                         parents=[common])
    sav.add_argument("--clients", type=int, default=20_000)
    sav.add_argument("--seed", type=int, default=0)
    sav.set_defaults(func=cmd_sav)

    ethics = sub.add_parser("ethics", help="measurement-load arithmetic",
                            parents=[common])
    ethics.add_argument("--prefix", type=int, default=16)
    ethics.add_argument("--queries-per-ip", type=int, default=1)
    ethics.set_defaults(func=cmd_ethics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        registry = MetricsRegistry()
        with use_registry(registry):
            status = args.func(args)
        write_json(metrics_out, registry.snapshot())
        print(f"wrote {metrics_out}", file=sys.stderr)
        return status
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
