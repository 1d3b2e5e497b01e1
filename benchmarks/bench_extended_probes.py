"""Extended probe benches: SNI filtering and residual-penalty mapping.

Both extend the paper's goal statement ("whether an IP address, domain,
URL, or keyword is reachable") to the mechanisms the measurement
literature around it maps: SNI-keyed HTTPS censorship and the GFC's
post-reset penalty window (Clayton et al.).
"""

from common import write_report

from repro.analysis import render_table
from repro.core import TLSReachabilityMeasurement, Verdict, build_environment
from repro.core.residual import ResidualBlockingMeasurement


def run_sni(seed: int = 30):
    env = build_environment(censored=True, seed=seed, population_size=4)
    env.censor.policy.dns_poisoning = False
    technique = TLSReachabilityMeasurement(
        env.ctx, ["twitter.com", "youtube.com", "example.org", "weather.gov"]
    )
    technique.start()
    env.run(duration=60.0)
    return technique


def run_residual_sweep(seed: int = 30):
    rows = []
    for configured in (5.0, 15.0, 45.0):
        env = build_environment(censored=True, seed=seed, population_size=4)
        env.censor.policy.dns_poisoning = False
        env.censor.policy.residual_block_seconds = configured
        technique = ResidualBlockingMeasurement(
            env.ctx, env.topo.control_web.ip, probe_interval=1.0, max_wait=120.0
        )
        technique.start()
        env.run(duration=200.0)
        measured = technique.results[0].evidence.get("penalty_seconds")
        rows.append([configured, measured])
    return rows


def test_sni_filtering_matrix():
    technique = run_sni()
    rows = [[r.target, r.verdict.value, r.evidence.get("control_status", "-")]
            for r in technique.results]
    write_report("sni_filtering", render_table(
        ["domain", "TLS verdict", "decoy-SNI control"],
        rows, title="SNI-keyed HTTPS censorship matrix",
    ))
    verdicts = {r.target: r.verdict for r in technique.results}
    assert verdicts["twitter.com"] is Verdict.BLOCKED_RST
    assert verdicts["youtube.com"] is Verdict.BLOCKED_RST
    assert verdicts["example.org"] is Verdict.ACCESSIBLE
    # Decoy controls prove the blocks are name-keyed, not address-keyed.
    blocked = [r for r in technique.results if r.blocked]
    assert all(r.evidence.get("control_status") == "ok" for r in blocked)


def test_residual_penalty_mapping():
    rows = run_residual_sweep()
    write_report("residual_penalty", render_table(
        ["configured penalty (s)", "measured penalty (s)"],
        rows, title="residual flow-kill window: configured vs measured",
    ))
    for configured, measured in rows:
        assert measured is not None
        # Probe-interval granularity: within ~2 intervals of ground truth.
        assert configured <= measured <= configured + 2.5
