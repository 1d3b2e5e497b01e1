"""Unit tests for the analysis package."""

import math
import random

import pytest

from repro.analysis import (
    ConfusionCounts,
    EmpiricalCDF,
    SCHOMP_2013,
    SYRIA_CENSORED_USER_FRACTION,
    SyriaLogGenerator,
    analyze_logs,
    ascii_cdf,
    load_comparison,
    render_table,
    spoofed_query_load,
)
from repro.core import MeasurementResult, Verdict
from repro.results import RecordAnalysis, rows_from_point

POINT = dict(index=0, seed=0, technique="t", topology="censored-as",
             loss=0.0, retry="single-shot")


def score(results, blocked, control=()):
    """Score results the sweep's way: record rows through RecordAnalysis
    (censored vantage, so blocked names are truly blocked)."""
    rows = rows_from_point(POINT, results, vantage="censored", censor="gfc",
                           risk=None)
    analysis = RecordAnalysis(blocked_targets=blocked, control_targets=control)
    return analysis.extend(rows).matrix()["t"]


class TestConfusion:
    def test_counts_and_metrics(self):
        counts = ConfusionCounts(true_positive=8, false_negative=2,
                                 true_negative=9, false_positive=1)
        assert counts.total == 20
        assert counts.accuracy == pytest.approx(0.85)
        assert counts.precision == pytest.approx(8 / 9)
        assert counts.recall == pytest.approx(0.8)
        assert 0 < counts.f1 < 1

    def test_empty_counts(self):
        counts = ConfusionCounts()
        assert counts.accuracy == 0.0
        assert counts.precision == 0.0
        assert counts.f1 == 0.0

    def test_score_results(self):
        results = [
            MeasurementResult("t", "twitter.com", Verdict.DNS_POISONED),
            MeasurementResult("t", "example.org", Verdict.ACCESSIBLE),
            MeasurementResult("t", "youtube.com", Verdict.ACCESSIBLE),  # miss
            MeasurementResult("t", "weather.gov", Verdict.BLOCKED_RST),  # FP
        ]
        cell = score(results, blocked=["twitter.com", "youtube.com"],
                     control=["example.org", "weather.gov"])
        # one each of TP, FN, TN, FP: recall, accuracy and false-block
        # rate are all 1/2 over four scored rows
        assert cell["scored"] == 4
        assert cell["detects"] == 0.5
        assert cell["accuracy"] == 0.5
        assert cell["false_block_rate"] == 0.5

    def test_substring_target_matching(self):
        results = [MeasurementResult("t", "203.0.113.10:80", Verdict.BLOCKED_TIMEOUT)]
        cell = score(results, blocked=["203.0.113.10"])
        assert cell["scored"] == 1
        assert cell["detects"] == 1.0

    def test_unknown_targets_skipped(self):
        results = [MeasurementResult("t", "mystery.com", Verdict.ACCESSIBLE)]
        assert score(results, blocked=["twitter.com"])["scored"] == 0

    def test_inconclusive_counted(self):
        results = [MeasurementResult("t", "twitter.com", Verdict.INCONCLUSIVE)]
        cell = score(results, blocked=["twitter.com"])
        # scored, but neither a detection nor a miss
        assert cell["scored"] == 1
        assert cell["detects"] is None
        assert cell["accuracy"] == 0.0


class TestCDF:
    def test_at_and_quantile(self):
        cdf = EmpiricalCDF([1, 2, 3, 4, 5])
        assert cdf.at(3) == 0.6
        assert cdf.at(0) == 0.0
        assert cdf.at(10) == 1.0
        assert cdf.median == 3
        assert cdf.min == 1 and cdf.max == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF([1, 2, 3])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_points_monotonic(self):
        cdf = EmpiricalCDF([5, 1, 9, 3, 7])
        points = cdf.points(steps=20)
        fractions = [fraction for _value, fraction in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_single_value(self):
        cdf = EmpiricalCDF([7.0])
        assert cdf.points() == [(7.0, 1.0)]

    def test_ascii_render(self):
        cdf = EmpiricalCDF([float(v) for v in range(70, 100)])
        art = ascii_cdf(cdf, title="spam scores")
        assert "spam scores" in art
        assert "#" in art


class TestSyria:
    def test_calibration_hits_target(self):
        gen = SyriaLogGenerator(population=30000, rng=random.Random(5))
        logs = gen.generate()
        analysis = analyze_logs(logs, 30000)
        assert abs(analysis.censored_user_fraction - SYRIA_CENSORED_USER_FRACTION) < 0.004

    def test_pursuit_burden_infeasible(self):
        gen = SyriaLogGenerator(population=50000, rng=random.Random(5))
        analysis = analyze_logs(gen.generate(), 50000)
        # ~785 users flagged over 2 days vs. 10 investigations/day.
        assert analysis.pursuit_burden(analyst_capacity_per_day=10) > 10

    def test_censored_requests_use_censored_domains(self):
        gen = SyriaLogGenerator(population=2000, rng=random.Random(5))
        logs = gen.generate(censored_domains=["blocked.example"],
                            open_domains=["open.example"])
        for entry in logs:
            if entry.censored:
                assert entry.domain == "blocked.example"
            else:
                assert entry.domain == "open.example"

    def test_entries_sorted_by_time(self):
        gen = SyriaLogGenerator(population=500, rng=random.Random(5))
        logs = gen.generate()
        times = [entry.time for entry in logs]
        assert times == sorted(times)

    def test_population_must_be_positive(self):
        with pytest.raises(ValueError):
            SyriaLogGenerator(population=0, rng=random.Random(1))

    def test_zero_capacity_burden_infinite(self):
        gen = SyriaLogGenerator(population=1000, rng=random.Random(5))
        analysis = analyze_logs(gen.generate(), 1000)
        assert analysis.pursuit_burden(0) == math.inf


class TestEthics:
    def test_slash16_is_65k(self):
        assert spoofed_query_load(16) == 65536

    def test_slash24(self):
        assert spoofed_query_load(24) == 256

    def test_queries_per_ip_multiplier(self):
        assert spoofed_query_load(24, queries_per_ip=3) == 768

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            spoofed_query_load(40)

    def test_comparison_matches_paper_scale(self):
        comparison = load_comparison()
        assert comparison.spoofed_queries == 65536
        # 65k queries are a tiny fraction of the 32 M open-forwarder load.
        assert comparison.queries_per_forwarder_equivalent < 0.01
        assert comparison.fraction_of_recursive_population == pytest.approx(65536 / 60000)

    def test_schomp_constants(self):
        assert SCHOMP_2013.open_forwarders == 32_000_000
        assert SCHOMP_2013.open_recursives_low == 60_000


class TestRenderTable:
    def test_alignment_and_title(self):
        table = render_table(["name", "value"], [["a", 1.5], ["bb", 20]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.500" in table

    def test_empty_rows(self):
        table = render_table(["x"], [])
        assert "x" in table
