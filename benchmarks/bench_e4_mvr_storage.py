"""E4 — the surveillance storage model (paper §2.1 numbers).

Reproduces the quantitative surveillance constraints the paper cites:

- Massive Volume Reduction cuts observed volume by roughly 30 % (chiefly
  by discarding p2p);
- total content retention never exceeds 7.5 % of observed volume;
- content expires after 3 days, connection metadata after 30 days (NSA
  profile) / 36 hours (campus profile).
"""

from common import write_report

from repro.analysis import render_table
from repro.netsim import build_censored_as
from repro.surveillance import (
    AttributionEngine,
    CAMPUS_PROFILE,
    NSA_PROFILE,
    SurveillanceSystem,
)
from repro.traffic import PopulationMix, install_standard_servers

DAY = 86_400.0


def run_population(seed: int = 1, duration: float = 40.0):
    topo = build_censored_as(seed=seed, population_size=12)
    surveillance = SurveillanceSystem(
        attribution=AttributionEngine.from_network(topo.network)
    )
    topo.border_router.add_tap(surveillance)
    install_standard_servers(topo)
    mix = PopulationMix(
        topo,
        p2p_chunk=4096, p2p_interval=4.0, web_interval=0.2,
        dns_interval=0.3, spam_interval=3.0, scan_interval=1.0,
    )
    mix.start(until=duration)
    topo.run(duration=duration * 1.5)
    return topo, surveillance, mix


def test_e4_mvr_and_storage_budget():
    topo, surveillance, mix = run_population()
    summary = surveillance.summary()
    seen = summary["bytes_seen"]

    rows = [
        ["bytes observed", seen, "-"],
        ["MVR discard fraction", summary["discard_fraction"], "~0.30 (paper)"],
        ["  of which p2p", summary["discarded_by_class"].get("p2p", 0) / seen, "dominant"],
        ["content retained fraction", summary["retained_fraction"], "<= 0.075 (paper)"],
        ["flow metadata records", summary["flow_records"], "-"],
        ["retained alerts", summary["retained_alerts"], "-"],
    ]
    report = render_table(
        ["quantity", "measured", "paper"], rows,
        title="E4: Massive Volume Reduction and storage budget",
    )
    write_report("e4_mvr_storage", report)

    # Paper shape: ~30 % stage-1 reduction, dominated by p2p.
    assert 0.15 <= summary["discard_fraction"] <= 0.45
    p2p = summary["discarded_by_class"].get("p2p", 0)
    assert p2p >= 0.6 * summary["bytes_discarded_stage1"]
    # Hard budget: retained content never beats the 7.5 % fraction.
    assert summary["retained_fraction"] <= NSA_PROFILE.storage_fraction + 0.001


def test_e4_retention_windows():
    def run():
        topo, surveillance, _ = run_population(seed=2, duration=20.0)
        store = surveillance.store
        before = (len(store.content), len(store.flows))
        # Jump past the content window but inside the metadata window.
        store.expire(now=topo.sim.now + 4 * DAY)
        after_content = (len(store.content), len(store.flows))
        # Jump past the metadata window too.
        store.expire(now=topo.sim.now + 31 * DAY)
        after_metadata = (len(store.content), len(store.flows))
        return before, after_content, after_metadata

    before, after_content, after_metadata = run()
    assert before[0] > 0 and before[1] > 0
    assert after_content[0] == 0          # content gone after 3 days
    assert after_content[1] == before[1]  # metadata survives 4 days
    assert after_metadata[1] == 0         # metadata gone after 30 days


def test_e4_campus_profile_no_content():
    def run():
        topo = build_censored_as(seed=3, population_size=8)
        surveillance = SurveillanceSystem(
            profile=CAMPUS_PROFILE,
            attribution=AttributionEngine.from_network(topo.network),
        )
        topo.border_router.add_tap(surveillance)
        install_standard_servers(topo)
        mix = PopulationMix(topo)
        mix.start(until=15.0)
        topo.run(duration=25.0)
        return surveillance

    surveillance = run()
    # Campus: no full-content capture, but flow records and alerts exist.
    assert surveillance.store.bytes_retained == 0
    assert len(surveillance.store.flows) > 0
