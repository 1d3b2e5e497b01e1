#!/usr/bin/env python3
"""Run the full OONI/Centinel-style test deck at each risk posture.

The platform runs three tests (DNS consistency, HTTP reachability, TCP
reachability) over a target list, choosing overt or stealthy
implementations per the configured risk posture, and assesses what the
surveillance system knows about the measurer afterwards.  The deck's
results as record rows (JSON lines): ``python -m repro deck --json``.

Run:  python examples/platform_decks.py
"""

from repro.analysis import render_table
from repro.core import MeasurementPlatform, build_environment
from repro.core.evaluation import BLOCKED_TARGETS_FULL

# The full blocked list plus controls: bulk enough that the volume-
# threshold interest rules have something to see in the overt posture.
DOMAINS = list(BLOCKED_TARGETS_FULL) + ["example.org", "weather.gov"]


def main():
    rows = []
    for posture in ("overt", "stealthy", "paranoid"):
        env = build_environment(censored=True, seed=6, population_size=14)
        platform = MeasurementPlatform(env, posture=posture)
        report = platform.run_deck(DOMAINS, duration=120.0)
        rows.append([
            posture,
            ",".join(report.blocked_domains()),
            report.risk.attributed_alerts,
            report.risk.attribution_confidence,
            "yes" if report.risk.investigated else "no",
            "yes" if report.risk.evaded else "no",
        ])

    print(render_table(
        ["posture", "blocked domains found", "attributed alerts",
         "confidence", "investigated", "evaded"],
        rows,
        title="the same deck at three risk postures",
    ))


if __name__ == "__main__":
    main()
