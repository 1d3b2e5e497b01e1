"""Keyword-list mapping cost (ConceptDoppler-style isolation).

The paper's goal includes determining whether a *keyword* is reachable;
mapping the censor's keyword list efficiently is the natural campaign
built from that primitive.  This bench measures isolation cost (probes per
culprit via bisection vs. linear scanning) and verifies the recovered
list matches the censor's ground truth exactly.
"""

from common import write_report

from repro.analysis import render_table
from repro.core import KeywordIsolator, KeywordProbeMeasurement, build_environment
from repro.rules.rulesets import GFC_KEYWORDS

DECOYS = [
    "weather", "recipes", "football", "gardening", "astronomy",
    "cooking", "chess", "poetry", "museums", "hiking",
]


def run_mapping(seed: int = 21):
    rows = []
    for list_size in (8, 16, 32):
        env = build_environment(censored=True, seed=seed, population_size=4)
        env.censor.policy.dns_poisoning = False
        terms = (DECOYS * 4)[: list_size - 2] + ["falun", "tiananmen"]
        # De-duplicate decoys while keeping order and size.
        terms = [f"{term}{i}" if terms.index(term) != i else term
                 for i, term in enumerate(terms)]
        isolator = KeywordIsolator(
            env.ctx, env.topo.control_web.ip, hostname="example.org",
            max_probes=256,
        )
        found = []
        isolator.isolate(terms, found.append)
        env.run(duration=300.0)
        rows.append([
            list_size,
            ",".join(found[0]) if found else "-",
            isolator.probes_sent,
            list_size,  # linear-scan cost for comparison
        ])
    return rows


def run_probe_sweep(seed: int = 21):
    env = build_environment(censored=True, seed=seed, population_size=4)
    env.censor.policy.dns_poisoning = False
    technique = KeywordProbeMeasurement(
        env.ctx, list(GFC_KEYWORDS) + DECOYS[:6],
        env.topo.control_web.ip, hostname="example.org",
    )
    technique.start()
    env.run(duration=120.0)
    return technique


def test_keyword_isolation_cost():
    rows = run_mapping()
    report = render_table(
        ["list size", "culprits found", "bisection probes", "linear probes"],
        rows,
        title="keyword isolation: bisection vs. linear scanning",
    )
    write_report("keyword_mapping", report)
    for list_size, culprits, probes, linear in rows:
        assert culprits == "falun,tiananmen"
        # Bisection beats linear once the list is non-trivial.
        if list_size >= 16:
            assert probes < linear


def test_keyword_probe_recovers_censor_list():
    technique = run_probe_sweep()
    recovered = sorted(technique.censored_keywords())
    assert recovered == sorted(GFC_KEYWORDS)
