"""E2 — Figure 2: CDF of spam-filter scores for n=100 measurements.

The paper sent 100 spam-cloaked measurement emails through the university's
Proofpoint deployment and plotted the score CDF (scores 0-100; the mass
sits high, validating that the filter classifies the measurements as spam).
We reproduce with the Proofpoint-analogue scorer, adding a ham control the
paper used implicitly (normal mail must NOT classify as spam).
"""

import random

from common import write_report

from repro.analysis import EmpiricalCDF, ascii_cdf, render_table
from repro.spamfilter import (
    SPAM_THRESHOLD,
    SpamScorer,
    generate_ham,
    measurement_spam_email,
)

N = 100


def run_cdf(seed: int = 2):
    rng = random.Random(seed)
    scorer = SpamScorer()
    measurement_scores = [
        scorer.score(measurement_spam_email(rng, "twitter.com")) for _ in range(N)
    ]
    ham_scores = [scorer.score(message) for message in generate_ham(rng, N)]
    return EmpiricalCDF(measurement_scores), EmpiricalCDF(ham_scores)


def test_e2_spam_score_cdf():
    meas_cdf, ham_cdf = run_cdf()

    table = render_table(
        ["corpus", "n", "min", "median", "max", "frac >= threshold"],
        [
            ["measurement (cloaked)", len(meas_cdf), meas_cdf.min, meas_cdf.median,
             meas_cdf.max, 1.0 - meas_cdf.at(SPAM_THRESHOLD - 0.001)],
            ["ham control", len(ham_cdf), ham_cdf.min, ham_cdf.median,
             ham_cdf.max, 1.0 - ham_cdf.at(SPAM_THRESHOLD - 0.001)],
        ],
        title=f"E2 (Figure 2): spam scores for n={N} cloaked measurements",
    )
    art = ascii_cdf(meas_cdf, x_label="spam score", title="CDF of measurement spam scores")
    write_report("e2_spam_cdf", table + "\n\n" + art)

    # Paper shape: every cloaked measurement classifies as spam (the
    # published CDF is concentrated in the high-score region)...
    assert meas_cdf.min >= SPAM_THRESHOLD
    assert meas_cdf.median >= 85.0
    # ...while normal mail does not.
    assert ham_cdf.max < SPAM_THRESHOLD
