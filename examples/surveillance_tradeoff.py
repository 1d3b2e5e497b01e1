#!/usr/bin/env python3
"""The censorship-vs-surveillance asymmetry, end to end (paper §2).

Stands up a censored AS with realistic population traffic (web, DNS, p2p,
spam bots, background scanners), lets the surveillance system drink from
the firehose, and shows:

1. Massive Volume Reduction throwing away ~30 % of bytes (mostly p2p);
2. the 7.5 % content-retention budget holding;
3. the Syria-style infeasibility of alarming on every censored query;
4. an analyst who still finds an *overt* measurer trivially.

Run:  python examples/surveillance_tradeoff.py
"""

import random

from repro.analysis import SyriaLogGenerator, analyze_logs, render_table
from repro.core import OvertHTTPMeasurement, build_environment
from repro.core.evaluation import BLOCKED_TARGETS_FULL


def main():
    print("building censored AS with population traffic...")
    env = build_environment(censored=True, seed=4, population_size=12)

    # Traffic shares calibrated so stage-1 reduction lands near the paper's
    # ~30 % (dominated by p2p) — see bench_e4_mvr_storage.py.
    from repro.traffic import PopulationMix

    mix = PopulationMix(
        env.topo,
        p2p_chunk=4096, p2p_interval=4.0, web_interval=0.2,
        dns_interval=0.3, spam_interval=3.0, scan_interval=1.0,
    )
    mix.start(until=60.0)

    # An overt measurer works alongside the population.
    technique = OvertHTTPMeasurement(env.ctx, list(BLOCKED_TARGETS_FULL))
    technique.start()
    env.run(duration=90.0)

    print(f"population activity: {mix.stats()}")
    summary = env.surveillance.summary()
    print(render_table(
        ["quantity", "value"],
        [
            ["packets seen at border", summary["packets_seen"]],
            ["bytes seen", summary["bytes_seen"]],
            ["MVR discard fraction", f"{summary['discard_fraction']:.1%}"],
            ["content retained fraction", f"{summary['retained_fraction']:.1%} (budget 7.5%)"],
            ["flow metadata records", summary["flow_records"]],
            ["retained alerts", summary["retained_alerts"]],
        ],
        title="\nsurveillance system state after the run",
    ))
    print("\ndiscarded by class:")
    for cls, size in sorted(summary["discarded_by_class"].items()):
        print(f"  {cls:6} {size:>10} bytes")

    investigations = env.surveillance.run_analyst(env.sim.now)
    print("\nanalyst investigations opened:")
    for inv in investigations:
        print(f"  {inv.user}: {inv.alert_count} alert(s) — {'; '.join(inv.reasons[:2])}")
    if not investigations:
        print("  (none)")

    # The Syria-scale argument: at country scale, per-query alarming fails.
    print("\nwhy not alarm on every censored query? (Syria logs, scaled)")
    generator = SyriaLogGenerator(population=100_000, rng=random.Random(4))
    analysis = analyze_logs(generator.generate(), 100_000)
    print(
        f"  {analysis.users_touching_censored} of {analysis.population} users "
        f"({analysis.censored_user_fraction:.2%}) touched censored content in 2 days;"
    )
    print(
        f"  pursuing them would take {analysis.pursuit_burden(10):.0f} analyst-days "
        f"at 10 investigations/day."
    )


if __name__ == "__main__":
    main()
