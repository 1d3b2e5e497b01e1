"""E3 — the censored-vantage DNS validation (paper §3.2.3).

The paper validated spam-measurement accuracy from a PlanetLab node in
China: the GFC injected bad *A* answers for both A and MX queries for
twitter.com and youtube.com.  We reproduce from a vantage host inside the
censored AS, including control domains that must resolve truthfully.
"""

from common import write_report

from repro.analysis import render_table
from repro.core.evaluation import build_environment
from repro.netsim import resolve
from repro.packets import QTYPE_A, QTYPE_MX, qtype_name


def run_vantage_queries(seed: int = 3):
    env = build_environment(censored=True, seed=seed, population_size=4)
    observations = []

    def observe(domain, qtype):
        resolve(
            env.ctx.client,
            env.ctx.resolver_ip,
            domain,
            qtype=qtype,
            callback=lambda res, d=domain, q=qtype: observations.append((d, q, res)),
        )

    for domain in ("twitter.com", "youtube.com", "example.org", "weather.gov"):
        observe(domain, QTYPE_A)
        observe(domain, QTYPE_MX)
    env.run(duration=30.0)
    return env, observations


def test_e3_gfc_dns_poisoning():
    env, observations = run_vantage_queries()
    poison_ip = env.censor.policy.poison_ip

    rows = []
    for domain, qtype, res in observations:
        injected = bool(res.addresses) and res.addresses[0] == poison_ip
        rows.append([
            domain,
            qtype_name(qtype),
            res.status,
            ",".join(res.addresses) or "-",
            ",".join(f"{p} {x}" for p, x in res.mx) or "-",
            "INJECTED" if injected else "truthful",
        ])
    report = render_table(
        ["domain", "qtype", "status", "A answers", "MX answers", "verdict"],
        rows,
        title="E3: DNS answers observed from the censored vantage",
    )
    write_report("e3_gfc_dns", report)

    by_key = {(d, q): res for d, q, res in observations}
    # Paper shape: blocked domains get injected A answers for BOTH qtypes.
    for domain in ("twitter.com", "youtube.com"):
        for qtype in (QTYPE_A, QTYPE_MX):
            res = by_key[(domain, qtype)]
            assert res.addresses == [poison_ip], (domain, qtype)
    # Controls resolve truthfully.
    assert by_key[("example.org", QTYPE_A)].addresses == [env.topo.control_web.ip]
    assert by_key[("example.org", QTYPE_MX)].mx  # genuine MX answer
    assert env.censor.dns_injections == 4
