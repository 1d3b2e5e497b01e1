"""E10 — measurement scans vanish into background scanning (paper §3.2.2).

Durumeric et al. measured 10.8 M scans from 1.76 M hosts against a 5.5 M
address darknet in one month; the paper argues this volume is why the MVR
discards scan traffic.  We reproduce the arithmetic (expected background
probes for a network) and verify packet-level indistinguishability: the
MVR classifies our measurement scan into the same class as the background
scanners.
"""

from common import write_report

from repro.analysis import render_table
from repro.core import ScanMeasurement, ScanTarget
from repro.core.evaluation import build_environment
from repro.traffic import BackgroundScanners, DURUMERIC_2014


def run_arithmetic():
    """Expected background scan arrivals vs. one measurement campaign."""
    campaign_probes = 1000 * 3  # a top-1000 scan of three services
    rows = []
    for prefix, addresses in (("/24", 256), ("/16", 65_536), ("/8", 16_777_216)):
        expected_day = DURUMERIC_2014.expected_background(addresses, days=1.0)
        rows.append([prefix, addresses, expected_day, campaign_probes,
                     campaign_probes / expected_day if expected_day else float("inf")])
    return rows


def run_classification(seed: int = 9):
    """Both background and measurement scans must classify identically."""
    env = build_environment(censored=False, seed=seed, population_size=6)
    # Background scanners outside the AS probing inward.
    from repro.netsim import Host

    scanners = []
    for index in range(2):
        scanner = env.topo.network.add(Host(f"bgscan{index}", f"198.18.2.{10 + index}"))
        env.topo.network.connect(scanner, env.topo.transit_router)
        scanners.append(scanner)
    background = BackgroundScanners(
        scanners=scanners,
        target_ips=[host.ip for host in env.topo.population],
        rng=env.sim.rng,
        mean_interval=0.02,
    )
    background.start(until=10.0)
    # Our measurement scan from inside.
    technique = ScanMeasurement(
        env.ctx,
        [ScanTarget(env.topo.blocked_web.ip, [80], "svc")],
        port_count=80,
    )
    technique.start()
    env.run(duration=30.0)
    return env, background, technique


def test_e10_background_arithmetic():
    rows = run_arithmetic()
    report = render_table(
        ["network", "addresses", "background probes/day", "campaign probes",
         "campaign / background"],
        rows,
        title="E10: measurement scan volume vs. Internet background radiation",
    )
    write_report("e10_scan_background", report)
    # For a /16 (the AS scale the paper reasons about), one full measurement
    # campaign is under the daily background noise level.
    slash16 = rows[1]
    assert slash16[2] > slash16[3]


def test_e10_indistinguishable_classification():
    env, background, technique = run_classification()
    assert background.probes_sent > 100
    # Scan class discarded bytes exist, and include both inbound background
    # and our outbound measurement (both tripped the same detection).
    scan_alerts = [a for a in env.surveillance.engine.alerts
                   if a.classtype == "attempted-recon"]
    sources = {a.src for a in scan_alerts}
    assert env.topo.measurement_client.ip in sources
    assert any(src.startswith("198.18.2.") for src in sources)
    # And the measurer is never attributed.
    assert env.surveillance.attributed_alerts_for_user("measurer") == []
