"""E6 — spoofed cover traffic vs. attribution confidence (paper §4.1-4.2).

Sweeps the number of spoofed cover hosts for the stateless DNS mimicry and
measures what the surveillance system can conclude: attribution confidence
for the true measurer should fall toward 1/(N+1) and suspect entropy rise
toward log2(N+1) — "an IDS that triggers on a particular measurement
behavior may generate false positives for large numbers of users."
"""

import math

from common import write_report

from repro.analysis import render_table
from repro.core import StatelessSpoofedDNSMeasurement, assess_risk
from repro.core.evaluation import BLOCKED_TARGETS_FULL, build_environment

COVER_SIZES = [0, 2, 5, 10, 20]


def run_sweep(seed: int = 5):
    outcomes = []
    for cover in COVER_SIZES:
        env = build_environment(censored=True, seed=seed, population_size=max(cover, 1) + 2)
        technique = StatelessSpoofedDNSMeasurement(
            env.ctx, list(BLOCKED_TARGETS_FULL), env.cover_ips(cover)
        )
        technique.start()
        env.run(duration=60.0)
        risk = assess_risk(env.surveillance, f"cover={cover}", "measurer",
                           env.topo.measurement_client.ip, now=env.sim.now)
        accurate = all(result.blocked for result in technique.results)
        outcomes.append((cover, risk, accurate))
    return outcomes


def test_e6_cover_dilutes_attribution():
    outcomes = run_sweep()

    rows = []
    for cover, risk, accurate in outcomes:
        ideal_confidence = 1.0 / (cover + 1)
        rows.append([
            cover,
            "yes" if accurate else "NO",
            risk.attributed_alerts,
            risk.attribution_confidence,
            ideal_confidence,
            risk.suspect_entropy,
            math.log2(cover + 1),
            risk.risk_score(),
        ])
    report = render_table(
        ["cover hosts", "accurate", "attrib-alerts", "confidence",
         "ideal 1/(N+1)", "entropy", "log2(N+1)", "risk score"],
        rows,
        title="E6: spoofed-cover size vs. surveillance attribution",
    )
    write_report("e6_spoofing", report)

    # Accuracy never degrades with cover size.
    assert all(accurate for _cover, _risk, accurate in outcomes)
    # Confidence decreases monotonically and tracks 1/(N+1).
    confidences = [risk.attribution_confidence for _c, risk, _a in outcomes]
    assert all(a >= b for a, b in zip(confidences, confidences[1:]))
    for cover, risk, _accurate in outcomes:
        if cover:
            assert abs(risk.attribution_confidence - 1 / (cover + 1)) < 0.05
            assert abs(risk.suspect_entropy - math.log2(cover + 1)) < 0.3
    # With no cover, attribution is certain.
    assert outcomes[0][1].attribution_confidence == 1.0
    # Risk strictly lower with the largest crowd than alone.
    assert outcomes[-1][1].risk_score() < outcomes[0][1].risk_score()
