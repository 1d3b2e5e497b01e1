"""E5 — the Syria-logs infeasibility argument (paper §2.2, citing [9]).

Chaabane et al. found 1.57 % of users touched at least one censored site in
two days of leaked Syrian logs; the paper concludes that alarming on every
censored query is infeasible for user-focused targeting.  We reproduce the
statistic on calibrated synthetic logs and compute the analyst burden
across population scales.
"""

import random

from common import write_report

from repro.analysis import (
    SYRIA_CENSORED_USER_FRACTION,
    SyriaLogGenerator,
    analyze_logs,
    render_table,
)
from repro.surveillance import NSA_PROFILE

POPULATIONS = [10_000, 50_000, 200_000]


def run_sweep(seed: int = 4):
    results = []
    for population in POPULATIONS:
        generator = SyriaLogGenerator(population=population, rng=random.Random(seed))
        logs = generator.generate()
        results.append((population, analyze_logs(logs, population)))
    return results


def test_e5_syria_infeasibility():
    results = run_sweep()

    capacity = NSA_PROFILE.analyst_capacity_per_day
    rows = []
    for population, analysis in results:
        rows.append([
            population,
            analysis.total_requests,
            analysis.users_touching_censored,
            analysis.censored_user_fraction,
            analysis.pursuit_burden(capacity),
        ])
    report = render_table(
        ["population", "requests (2d)", "users w/ censored hit",
         "fraction", f"analyst-days @ {capacity}/day"],
        rows,
        title="E5: fraction of users touching censored content (target 0.0157)",
    )
    write_report("e5_syria", report)

    for population, analysis in results:
        # Statistic reproduces within sampling noise.
        assert abs(analysis.censored_user_fraction - SYRIA_CENSORED_USER_FRACTION) < 0.005
        # And pursuing every flagged user vastly exceeds analyst capacity:
        # the bigger the population, the more hopeless it gets.
        assert analysis.pursuit_burden(capacity) > 5
    burdens = [analysis.pursuit_burden(capacity) for _, analysis in results]
    assert burdens == sorted(burdens)
