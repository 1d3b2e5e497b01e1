"""Perf-regression guard for the substrate hot paths.

Times each hot path with plain ``perf_counter`` loops (no pytest needed),
producing machine-readable ops/sec so successive PRs have a throughput
trajectory to compare against.

Usage::

    python benchmarks/perf_guard.py              # measure and print
    python benchmarks/perf_guard.py --update     # also (re)write BENCH_PERF.json
    python benchmarks/perf_guard.py --check      # exit 1 if any hot path is
                                                 # >30% below the committed
                                                 # BENCH_PERF.json baseline

Numbers are machine-relative: ``--check`` is meant to compare two runs on
the *same* machine (pre/post a change, or in one CI job), not to compare a
laptop against the committed numbers from another host.  Regenerate the
baseline with ``--update`` when switching machines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.netsim import (  # noqa: E402
    Host,
    Network,
    Simulator,
    burst_loss_profile,
)
from repro.packets import (  # noqa: E402
    ACK,
    ICMPMessage,
    IPPacket,
    PSH,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.rules import (  # noqa: E402
    DEFAULT_VARIABLES,
    RuleEngine,
    StreamReassembler,
    censor_ruleset_text,
    mvr_detection_ruleset_text,
    surveillance_interest_ruleset_text,
)

BASELINE_PATH = REPO_ROOT / "BENCH_PERF.json"
DEFAULT_TOLERANCE = 0.30
MIN_SECONDS = 0.25

# -- shared workload builders --------------------------------------------------


def full_ruleset_text() -> str:
    return "\n".join(
        [
            censor_ruleset_text(),
            mvr_detection_ruleset_text(),
            surveillance_interest_ruleset_text(),
        ]
    )


def http_packet(index: int = 0) -> IPPacket:
    return IPPacket(
        src="10.1.0.5",
        dst="203.0.113.10",
        payload=TCPSegment(
            sport=40000 + index % 1000,
            dport=80,
            seq=100,
            ack=500,
            flags=PSH | ACK,
            payload=b"GET /index.html HTTP/1.1\r\nHost: example.org\r\n\r\n",
        ),
    )


def wide_port_ruleset_text(n_rules: int = 200) -> str:
    """One content rule per port across a wide spread — the workload where a
    linear scan pays for every rule and the dispatch index pays for one."""
    lines = []
    for i in range(n_rules):
        port = 1000 + i
        lines.append(
            f'alert tcp any any -> any {port} '
            f'(msg:"PERF svc {port}"; content:"token{port}"; sid:{600000 + i};)'
        )
    # A few catch-alls so the candidate list is never empty.
    lines.append('alert tcp any any -> any any (msg:"PERF tcp any"; flags:S; sid:699998;)')
    lines.append('alert ip any any -> any any (msg:"PERF ip any"; dsize:>4000; sid:699999;)')
    return "\n".join(lines)


def wide_port_packets(count: int = 200) -> list:
    """Traffic spread across the rule ports; payload hits ~1 rule in 8."""
    packets = []
    for i in range(count):
        port = 1000 + (i * 7) % 200
        body = f"token{port}".encode() if i % 8 == 0 else b"GET / HTTP/1.1\r\n\r\n"
        packets.append(
            IPPacket(
                src=f"10.1.{i % 4}.{i % 250 + 1}",
                dst="203.0.113.10",
                payload=TCPSegment(
                    sport=30000 + i, dport=port, seq=1, flags=PSH | ACK, payload=body
                ),
            )
        )
    return packets


def mixed_protocol_packets(count: int = 120) -> list:
    """A TCP/UDP/ICMP mix, matching transit traffic at the tap."""
    packets = []
    for i in range(count):
        kind = i % 3
        src = f"10.1.0.{i % 200 + 1}"
        if kind == 0:
            packets.append(http_packet(i))
        elif kind == 1:
            packets.append(
                IPPacket(
                    src=src,
                    dst="8.8.8.8",
                    payload=UDPDatagram(
                        sport=20000 + i,
                        dport=53,
                        payload=b"\x12\x34\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
                        b"\x07example\x03org\x00\x00\x0f\x00\x01",
                    ),
                )
            )
        else:
            packets.append(
                IPPacket(src=src, dst="203.0.113.10", payload=ICMPMessage.echo_request())
            )
    return packets


# -- measurement ---------------------------------------------------------------


def _measure(
    batch_fn,
    units_per_batch: int,
    min_seconds: float = MIN_SECONDS,
    warmup_batches: int = 1,
) -> float:
    """Run ``batch_fn`` until ``min_seconds`` elapse; return units/sec.

    ``warmup_batches`` runs are discarded first.  Rule-engine paths need a
    substantial warmup: each batch advances simulated time 1 s, and
    throughput only stabilizes once the longest threshold window (60 s)
    has filled and started evicting — measuring earlier under-reports the
    steady state by ~30%.
    """
    for _ in range(warmup_batches):
        batch_fn()
    batches = 0
    start = time.perf_counter()
    while True:
        batch_fn()
        batches += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return batches * units_per_batch / elapsed


def _bench_packet_serialization() -> tuple:
    packet = http_packet()
    return lambda: [packet.to_bytes() for _ in range(100)], 100, "packets", 1


def _bench_packet_parsing() -> tuple:
    raw = http_packet().to_bytes()
    return lambda: [IPPacket.from_bytes(raw) for _ in range(100)], 100, "packets", 1


def _bench_packet_wire_length() -> tuple:
    packet = http_packet()
    return lambda: [packet.wire_length() for _ in range(1000)], 1000, "packets", 1


def _bench_checksum_throughput() -> tuple:
    """Raw checksum arithmetic on an MTU-sized odd-length buffer (the odd
    tail exercises the no-copy padding path)."""
    from repro.packets import internet_checksum

    data = bytes(range(256)) * 5 + b"\x7f"  # 1281 B
    return lambda: [internet_checksum(data) for _ in range(100)], 100, "checksums", 1


def _bench_packet_roundtrip_cached() -> tuple:
    """The serialize half of a parse -> forward -> serialize round trip.

    Parsing seeds each packet's wire cache with the source bytes, so
    re-serializing a parsed-but-unmutated packet should cost a cache probe,
    not a rebuild — this bench is the direct measurement of that claim."""
    raw = http_packet().to_bytes()
    packets = [IPPacket.from_bytes(raw) for _ in range(100)]
    return lambda: [packet.to_bytes() for packet in packets], 100, "packets", 1


def _bench_capture_serialize() -> tuple:
    """A TTL-rewritten packet stream hitting three capture taps: each tap
    stores ``packet.to_bytes()``, so per packet this costs one 20-byte
    header rebuild (the TTL write invalidates the IP cache, not the
    transport's) plus two cache hits."""
    from repro.netsim import PacketCapture

    packets = [http_packet(i) for i in range(40)]
    for packet in packets:
        packet.to_bytes()
    taps = [PacketCapture() for _ in range(3)]

    class _Ctx:
        now = 0.0

        class node:
            name = "tap"

    ctx = _Ctx()

    def batch():
        for packet in packets:
            packet.ttl = 64
            for tap in taps:
                tap.process(packet, ctx)
        for tap in taps:
            tap.packets.clear()

    return batch, len(packets) * len(taps), "captures", 1


def _bench_rule_engine_full_ruleset() -> tuple:
    engine = RuleEngine.from_text(full_ruleset_text(), variables=DEFAULT_VARIABLES)
    packets = [http_packet(i) for i in range(100)]
    state = {"now": 0.0}

    def batch():
        state["now"] += 1.0
        for packet in packets:
            engine.process(packet, state["now"])

    return batch, len(packets), "packets", 80


def _bench_rule_engine_full_instrumented() -> tuple:
    """The full-ruleset workload with a live metrics registry installed.

    Tracked alongside ``rule_engine_full_ruleset`` so the cost of
    instrumentation-on is a number in BENCH_PERF.json, not folklore; the
    gap between the two benches is the observability overhead.
    """
    from repro.obs import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry()):
        engine = RuleEngine.from_text(full_ruleset_text(), variables=DEFAULT_VARIABLES)
    packets = [http_packet(i) for i in range(100)]
    state = {"now": 0.0}

    def batch():
        state["now"] += 1.0
        for packet in packets:
            engine.process(packet, state["now"])

    return batch, len(packets), "packets", 80


def _bench_rule_engine_construct_cached() -> tuple:
    """Full engine construction with a warm shared-automaton cache.

    This is the per-point construction cost a sweep worker actually pays:
    the process pool reuses workers across points, so after the first
    point of a ruleset the literal automaton comes from the process-wide
    cache (``shared_automaton``) and construction skips the trie/
    failure-link/dense-table build that ``multipattern_build`` prices.
    Rules are pre-parsed so the number isolates engine assembly (index,
    automaton lookup, obs wiring) rather than ruleset text parsing."""
    from repro.rules import parse_ruleset

    rules = parse_ruleset(full_ruleset_text(), variables=DEFAULT_VARIABLES)
    RuleEngine(rules=rules, variables=DEFAULT_VARIABLES)  # warm the cache

    def batch():
        RuleEngine(rules=rules, variables=DEFAULT_VARIABLES)

    return batch, 1, "builds", 1


def _bench_multipattern_build() -> tuple:
    """Cold build of the ruleset-wide literal automaton: interning every
    content literal of the full ruleset, trie + failure links + dense
    DFA rows.  Paid once per ruleset (and once more per ``add_rules``),
    so this bounds engine construction and live rule-reload cost."""
    from repro.rules import parse_ruleset
    from repro.rules.multipattern import MultiPatternAutomaton

    rules = parse_ruleset(full_ruleset_text(), variables=DEFAULT_VARIABLES)

    def batch():
        automaton = MultiPatternAutomaton()
        automaton.add_rules(rules)
        automaton.ensure_ready()

    return batch, 1, "builds", 1


def _bench_multipattern_scan() -> tuple:
    """One-shot payload scans against the full-ruleset automaton — the
    per-packet cost floor of the multipattern prefilter."""
    from repro.rules import parse_ruleset
    from repro.rules.multipattern import MultiPatternAutomaton

    automaton = MultiPatternAutomaton()
    automaton.add_rules(parse_ruleset(full_ruleset_text(), variables=DEFAULT_VARIABLES))
    automaton.ensure_ready()
    payloads = [
        b"GET /index.html HTTP/1.1\r\nHost: example.org\r\n\r\n",
        b"POST /upload HTTP/1.1\r\nHost: cdn.example.net\r\n\r\n" + b"A" * 160,
        b"\x13BitTorrent protocol" + b"\x00" * 48,
        b"random filler payload with no signature bytes at all " * 3,
    ]

    def batch():
        scan = automaton.scan
        for payload in payloads:
            for _ in range(25):
                scan(payload)

    return batch, len(payloads) * 25, "scans", 1


def _bench_rule_dispatch_wide_ports() -> tuple:
    engine = RuleEngine.from_text(wide_port_ruleset_text())
    packets = wide_port_packets()
    state = {"now": 0.0}

    def batch():
        state["now"] += 1.0
        for packet in packets:
            engine.process(packet, state["now"])

    return batch, len(packets), "packets", 80


def _bench_rule_engine_mixed_protocols() -> tuple:
    engine = RuleEngine.from_text(full_ruleset_text(), variables=DEFAULT_VARIABLES)
    packets = mixed_protocol_packets()
    state = {"now": 0.0}

    def batch():
        state["now"] += 1.0
        for packet in packets:
            engine.process(packet, state["now"])

    return batch, len(packets), "packets", 80


def _bench_stream_reassembly() -> tuple:
    def batch():
        reasm = StreamReassembler()
        for flow in range(20):
            client = f"10.1.0.{flow + 1}"
            reasm.feed(
                IPPacket(
                    src=client,
                    dst="203.0.113.10",
                    payload=TCPSegment(sport=1000, dport=80, seq=10, flags=SYN),
                ),
                0.0,
            )
            for index in range(10):
                reasm.feed(
                    IPPacket(
                        src=client,
                        dst="203.0.113.10",
                        payload=TCPSegment(
                            sport=1000,
                            dport=80,
                            seq=11 + index * 8,
                            ack=51,
                            flags=PSH | ACK,
                            payload=b"payload!",
                        ),
                    ),
                    0.0,
                )

    return batch, 220, "segments", 1


def _link_forward_bench(impaired: bool) -> tuple:
    """Hop-by-hop forwarding throughput across one link.

    The lossless variant is the engine fast path (shared clean fate, no
    per-packet allocation); the impaired variant pays the full pipeline
    (burst-loss state machine, jitter draw, duplication)."""
    sim = Simulator(seed=3)
    net = Network(sim)
    a = net.add(Host("a", "10.0.0.1"))
    b = net.add(Host("b", "10.0.0.2"))
    link = net.connect(a, b)
    if impaired:
        link.impair(
            burst_loss_profile(
                marginal=0.05, jitter=0.001, duplicate_probability=0.02
            )
        )
    a.stack.udp_listen(7, lambda *args: None)
    b.stack.udp_listen(7, lambda *args: None)
    template = IPPacket(
        src=a.ip, dst=b.ip, payload=UDPDatagram(sport=7, dport=7, payload=b"x" * 64)
    )

    def batch():
        for _ in range(500):
            a.send_ip(template)
        sim.run()

    return batch, 500, "packets", 1


def _bench_link_forward_lossless() -> tuple:
    return _link_forward_bench(impaired=False)


def _bench_link_forward_impaired() -> tuple:
    return _link_forward_bench(impaired=True)


def _sweep_grid16_spec():
    """16-point scenario grid shared by the sweep benches.

    ``sweep_serial_grid16`` and ``sweep_stealing_grid16`` (a four-worker
    work-stealing pool) run the *same* grid, so their ratio is the
    multi-worker speedup on this host.  On a single-core container the
    two converge (the process pool adds fork overhead but no
    parallelism); on a multi-core machine — e.g. the CI runners — the
    pool pulls ahead roughly linearly until the core count or the
    largest single point dominates.  ``sweep_resume_grid16`` resumes the grid from a
    half-complete journal, so it prices the campaign-restore path:
    half the points replay from disk, half execute.

    Every point in this grid builds rule engines over the same rulesets;
    because pool workers persist across points, the process-wide shared
    automaton cache means only each worker's *first* point pays the
    multipattern build — later points reuse the finalized automaton
    (``rule_engine_construct_cached`` prices the reused path).
    """
    from repro.runner import SweepSpec

    return SweepSpec(
        name="bench",
        base_seed=11,
        seeds=(0, 1, 2, 3),
        loss_rates=(0.02, 0.05),
        retry_policies=("single-shot", "retry-4"),
        port_count=300,
        duration=300.0,
    )


def _bench_sweep_serial_grid16() -> tuple:
    from repro.runner import SweepRunner

    spec = _sweep_grid16_spec()
    return lambda: SweepRunner(spec, serial=True).run(), len(spec), "points", 0


def _bench_sweep_stealing_grid16() -> tuple:
    from repro.runner import SweepRunner

    spec = _sweep_grid16_spec()
    return (
        lambda: SweepRunner(spec, workers=4).run(),
        len(spec), "points", 0,
    )


def _bench_sweep_resume_grid16() -> tuple:
    """Resume the shared grid from a half-complete campaign journal.

    Setup runs the grid once, journaled, and keeps the header plus the
    first 8 point lines; each iteration rewrites that half-journal and
    resumes it serially — 8 points replayed from disk, 8 executed —
    so the number prices journal load + merge on top of the residual
    execution, the cost an operator pays per restart.
    """
    import tempfile

    from repro.runner import CampaignStore, SweepRunner

    spec = _sweep_grid16_spec()
    spec_hash = spec.content_hash()
    handle = tempfile.NamedTemporaryFile(suffix=".journal.jsonl", delete=False)
    handle.close()
    path = handle.name
    with CampaignStore(path, spec_hash) as store:
        SweepRunner(spec, serial=True, store=store).run()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    half_journal = b"".join(lines[: 1 + len(spec) // 2])

    def resume():
        with open(path, "wb") as fh:
            fh.write(half_journal)
        with CampaignStore(path, spec_hash, resume=True) as store:
            SweepRunner(spec, serial=True, store=store).run()

    return resume, len(spec) - len(spec) // 2, "points", 0


def _bench_censor_dispatch() -> tuple:
    """Registry indirection on the censors-axis sweep path.

    A censors-axis sweep pays exactly one ``build_censor`` dispatch per
    point: name lookup in the family registry, kwarg forwarding, family
    construction.  Measured on the leanest family so the number isolates
    the registry machinery rather than the GFC's rule-engine build (which
    predates the registry and is priced by the rule-engine benches).
    ``--check`` pins the ratio against ``sweep_serial_grid16``: one
    dispatch must stay under ``DISPATCH_BUDGET`` (2%) of a sweep point.
    """
    from repro.censor import build_censor

    return lambda: [build_censor("geoblocker") for _ in range(200)], 200, "builds", 1


def _population_bench(users: int, fidelity: str) -> tuple:
    """Background-population traffic over the censored AS at one fidelity.

    Each batch builds the topology, attaches a ``PopulationTraffic``
    generator, and simulates a 5-second generation window; ops/sec is
    *users per wall-clock second*, the tentpole's headline unit.  The
    aggregate tier advances flows as single completion events (one per
    flow, charged to every link on the path); full fidelity materializes
    every flow into byte-accurate packets and forwards them hop by hop.
    ``population_speedup`` pins their same-run ratio: the flow-level fast
    path must stay >= POPULATION_SPEEDUP_FLOOR x the packet path.
    """
    from repro.netsim import build_censored_as
    from repro.traffic import PopulationTraffic

    window = 5.0

    def batch():
        topo = build_censored_as(seed=11)
        population = PopulationTraffic(topo, users=users, fidelity=fidelity)
        population.start(window)
        topo.sim.run(until=topo.sim.now + window)

    return batch, users, "users", 0


def _bench_population_aggregate_10k_users() -> tuple:
    return _population_bench(10_000, "aggregate")


def _bench_population_full_fidelity_1k_users() -> tuple:
    return _population_bench(1_000, "full")


def _bench_simulator_events() -> tuple:
    def batch():
        sim = Simulator()
        state = {"count": 0}

        def tick():
            state["count"] += 1
            if state["count"] < 10_000:
                sim.at(0.001, tick)

        sim.at(0.0, tick)
        sim.run()

    return batch, 10_000, "events", 1


HOT_PATHS = {
    "packet_serialization": _bench_packet_serialization,
    "packet_parsing": _bench_packet_parsing,
    "packet_wire_length": _bench_packet_wire_length,
    "checksum_throughput": _bench_checksum_throughput,
    "packet_roundtrip_cached": _bench_packet_roundtrip_cached,
    "capture_serialize": _bench_capture_serialize,
    "rule_engine_full_ruleset": _bench_rule_engine_full_ruleset,
    "rule_engine_construct_cached": _bench_rule_engine_construct_cached,
    "rule_engine_full_instrumented": _bench_rule_engine_full_instrumented,
    "multipattern_build": _bench_multipattern_build,
    "multipattern_scan": _bench_multipattern_scan,
    "rule_dispatch_wide_ports": _bench_rule_dispatch_wide_ports,
    "rule_engine_mixed_protocols": _bench_rule_engine_mixed_protocols,
    "stream_reassembly": _bench_stream_reassembly,
    "simulator_events": _bench_simulator_events,
    "link_forward_lossless": _bench_link_forward_lossless,
    "link_forward_impaired": _bench_link_forward_impaired,
    "sweep_serial_grid16": _bench_sweep_serial_grid16,
    "sweep_stealing_grid16": _bench_sweep_stealing_grid16,
    "sweep_resume_grid16": _bench_sweep_resume_grid16,
    "censor_dispatch": _bench_censor_dispatch,
    "population_aggregate_10k_users": _bench_population_aggregate_10k_users,
    "population_full_fidelity_1k_users": _bench_population_full_fidelity_1k_users,
}

DISPATCH_BUDGET = 0.02  # one censor dispatch may add at most 2% to a sweep point

#: the tiered-fidelity acceptance floor: the flow-level aggregate tier must
#: simulate at least this many times more users per wall-clock second than
#: full packet fidelity on the same topology and traffic profile
POPULATION_SPEEDUP_FLOOR = 20.0


def population_speedup(current: dict):
    """Aggregate-tier users/sec over full-fidelity users/sec, same run.

    Like ``dispatch_share`` this is a same-run ratio, meaningful on any
    machine: both numbers move together with host speed.  It is the
    tentpole's acceptance gate — the flow-level fast path exists to buy
    exactly this headroom, so a change that erodes it below
    ``POPULATION_SPEEDUP_FLOOR`` is a regression even if both absolute
    numbers pass their baselines.
    """
    aggregate = current.get("population_aggregate_10k_users", {}).get("ops_per_sec", 0)
    full = current.get("population_full_fidelity_1k_users", {}).get("ops_per_sec", 0)
    if not aggregate or not full:
        return None
    return aggregate / full


def dispatch_share(current: dict):
    """Fraction of one grid16 sweep point spent on one censor dispatch.

    A same-run ratio, so unlike the absolute baselines it is meaningful
    on any machine: both numbers move together with host speed.
    """
    grid = current.get("sweep_serial_grid16", {}).get("ops_per_sec", 0)
    dispatch = current.get("censor_dispatch", {}).get("ops_per_sec", 0)
    if not grid or not dispatch:
        return None
    return grid / dispatch


def run_all(min_seconds: float = MIN_SECONDS) -> dict:
    results = {}
    for name, builder in HOT_PATHS.items():
        batch_fn, units, unit_name, warmup = builder()
        ops = _measure(batch_fn, units, min_seconds, warmup)
        results[name] = {"ops_per_sec": round(ops, 1), "unit": unit_name}
    return results


def check(current: dict, baseline: dict, tolerance: float) -> list:
    """Return [(name, baseline_ops, current_ops, ratio)] for regressions."""
    regressions = []
    for name, entry in baseline.get("hot_paths", {}).items():
        if name not in current:
            continue
        base_ops = entry["ops_per_sec"]
        cur_ops = current[name]["ops_per_sec"]
        if base_ops > 0 and cur_ops < base_ops * (1.0 - tolerance):
            regressions.append((name, base_ops, cur_ops, cur_ops / base_ops))
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline; exit 1 on regression")
    parser.add_argument("--update", action="store_true",
                        help="write the measured numbers to BENCH_PERF.json")
    parser.add_argument("--json", type=Path, default=BASELINE_PATH,
                        help="baseline file (default: BENCH_PERF.json at the repo root)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional slowdown before --check fails (default 0.30)")
    parser.add_argument("--min-seconds", type=float, default=MIN_SECONDS,
                        help="minimum measurement time per hot path")
    args = parser.parse_args(argv)

    current = run_all(args.min_seconds)
    width = max(len(name) for name in current)
    for name, entry in current.items():
        print(f"{name:<{width}}  {entry['ops_per_sec']:>14,.0f} {entry['unit']}/s")

    status = 0
    if args.check:
        if not args.json.exists():
            print(f"\nno baseline at {args.json}; run with --update first", file=sys.stderr)
            return 2
        baseline = json.loads(args.json.read_text())
        regressions = check(current, baseline, args.tolerance)
        # A single-shot reading can dip on a loaded machine (these paths run
        # back to back on one core); re-measure just the flagged paths and
        # keep the best reading before declaring a regression.
        for attempt in range(2):
            if not regressions:
                break
            for name, _base, _cur, _ratio in regressions:
                batch_fn, units, unit_name, warmup = HOT_PATHS[name]()
                ops = _measure(batch_fn, units, args.min_seconds, warmup)
                if ops > current[name]["ops_per_sec"]:
                    current[name] = {"ops_per_sec": round(ops, 1), "unit": unit_name}
            regressions = check(current, baseline, args.tolerance)
        if regressions:
            print(f"\nREGRESSIONS (> {args.tolerance:.0%} below baseline):")
            for name, base_ops, cur_ops, ratio in regressions:
                print(f"  {name}: {base_ops:,.0f} -> {cur_ops:,.0f} ({ratio:.0%} of baseline)")
            status = 1
        else:
            print(f"\nok: all hot paths within {args.tolerance:.0%} of baseline")
        share = dispatch_share(current)
        if share is not None:
            if share > DISPATCH_BUDGET:
                print(f"REGRESSION: censor dispatch is {share:.2%} of a grid16 "
                      f"sweep point (budget {DISPATCH_BUDGET:.0%})")
                status = 1
            else:
                print(f"ok: censor dispatch is {share:.3%} of a grid16 sweep "
                      f"point (budget {DISPATCH_BUDGET:.0%})")
        speedup = population_speedup(current)
        if speedup is not None:
            if speedup < POPULATION_SPEEDUP_FLOOR:
                print(f"REGRESSION: aggregate population tier is only "
                      f"{speedup:.1f}x full fidelity "
                      f"(floor {POPULATION_SPEEDUP_FLOOR:.0f}x)")
                status = 1
            else:
                print(f"ok: aggregate population tier is {speedup:.1f}x full "
                      f"fidelity (floor {POPULATION_SPEEDUP_FLOOR:.0f}x)")

    if args.update:
        payload = {
            "schema": 1,
            "note": (
                "ops/sec per hot path, measured by benchmarks/perf_guard.py; "
                "machine-relative — regenerate with --update when hardware changes. "
                "The sweep_* benches share one grid: stealing/serial is the "
                "multi-worker speedup, meaningful only when cpus > 1; "
                "resume replays half the grid from a "
                "campaign journal.  Sweep workers share one process-cached "
                "literal automaton per ruleset (rule_engine_construct_cached "
                "vs multipattern_build is that win), and the population_* "
                "pair's ratio is the tiered-fidelity speedup gate."
            ),
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "hot_paths": current,
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return status


if __name__ == "__main__":
    sys.exit(main())
