"""Regime comparison: censorship signatures across deployment styles.

Runs the same measurement deck against the three censorship presets (GFC,
block-page, null-route) and tabulates the observable signature per
mechanism — the comparative matrix an OONI-style country report contains.
The DDoS method's per-sample statistics are what make the mechanism
identifiable (paper Method #3: "better determine how content is being
censored").
"""

from common import write_report

from repro.analysis import render_table
from repro.censor import CensorshipPolicy
from repro.core import DDoSMeasurement, OvertDNSMeasurement, Verdict, build_environment


def run_regimes(seed: int = 25):
    outcomes = {}
    for regime in ("gfc", "blockpage", "nullroute"):
        env = build_environment(censored=True, seed=seed, population_size=4)
        if regime == "gfc":
            policy = CensorshipPolicy.gfc_preset()
        elif regime == "blockpage":
            policy = CensorshipPolicy.blockpage_preset()
            policy.dns_poisoning = False
        else:
            policy = CensorshipPolicy.nullroute_preset({env.topo.blocked_web.ip})
        env.censor.set_policy(policy)

        dns = OvertDNSMeasurement(env.ctx, ["twitter.com"])
        http = DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=12)
        dns.start()
        http.start()
        env.run(duration=60.0)
        outcomes[regime] = (dns.results[0].verdict, http.results[0].verdict)
    return outcomes


def test_regime_signatures():
    outcomes = run_regimes()

    rows = [
        [regime, dns_verdict.value, http_verdict.value]
        for regime, (dns_verdict, http_verdict) in outcomes.items()
    ]
    write_report("regime_comparison", render_table(
        ["regime", "DNS signature", "HTTP signature (12-sample)"],
        rows,
        title="censorship mechanism signatures by deployment regime",
    ))

    gfc_dns, gfc_http = outcomes["gfc"]
    bp_dns, bp_http = outcomes["blockpage"]
    nr_dns, nr_http = outcomes["nullroute"]
    # GFC: DNS injection (which then masks the HTTP layer).
    assert gfc_dns is Verdict.DNS_POISONED
    assert gfc_http is Verdict.DNS_POISONED
    # Block-page regime: truthful DNS, explicit 403.
    assert bp_dns is Verdict.ACCESSIBLE
    assert bp_http is Verdict.HTTP_BLOCKPAGE
    # Null-route regime: truthful DNS, silent timeouts.
    assert nr_dns is Verdict.ACCESSIBLE
    assert nr_http is Verdict.BLOCKED_TIMEOUT
