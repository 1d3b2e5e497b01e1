#!/usr/bin/env python3
"""Run the full OONI/Centinel-style test deck at each risk posture.

The platform runs three tests (DNS consistency, HTTP reachability, TCP
reachability) over a target list, choosing overt or stealthy
implementations per the risk posture.  Each posture is one technique,
``deck-POSTURE``; this runs the three as the points of one sweep spec at
the censored vantage and reads what the surveillance system knows about
the measurer from each point's risk columns.  The deck's results as
record rows (JSON lines): ``python -m repro deck --json``.

Run:  python examples/platform_decks.py
"""

from repro.analysis import render_table
from repro.core import Verdict
from repro.core.evaluation import DECK_TECHNIQUES
from repro.runner import SweepSpec, run_point

SPEC = SweepSpec.from_mapping({
    "name": "platform-decks",
    "base_seed": 6,
    "techniques": list(DECK_TECHNIQUES),
    "topologies": ["censored-as"],
    "vantages": ["censored"],
    "censors": ["gfc"],
    "duration": 120.0,
    "cover": 11,
})


def main():
    rows = []
    for point in SPEC.points():
        records = run_point(point.as_dict(), in_process=True)["records"]
        blocked = sorted({row["target"] for row in records
                          if Verdict(row["verdict"]).indicates_blocking})
        risk = records[0]
        rows.append([
            point.technique,
            ",".join(blocked),
            risk["attributed_alerts"],
            risk["attribution_confidence"],
            "yes" if risk["investigated"] else "no",
            "yes" if risk["evaded"] else "no",
        ])

    print(render_table(
        ["technique", "blocked targets found", "attributed alerts",
         "confidence", "investigated", "evaded"],
        rows,
        title="the same deck at three risk postures",
    ))


if __name__ == "__main__":
    main()
