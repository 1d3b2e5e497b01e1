"""Unit tests for verdicts and results."""

from repro.core import MeasurementResult, Verdict, summarize
from repro.core.results import blocked_verdicts


class TestVerdict:
    def test_blocking_verdicts(self):
        assert Verdict.BLOCKED_RST.indicates_blocking
        assert Verdict.BLOCKED_TIMEOUT.indicates_blocking
        assert Verdict.DNS_POISONED.indicates_blocking
        assert Verdict.HTTP_BLOCKPAGE.indicates_blocking
        assert Verdict.DNS_FAILURE.indicates_blocking

    def test_non_blocking_verdicts(self):
        assert not Verdict.ACCESSIBLE.indicates_blocking
        assert not Verdict.INCONCLUSIVE.indicates_blocking

    def test_blocked_verdicts_set(self):
        assert Verdict.BLOCKED_RST in blocked_verdicts()
        assert Verdict.ACCESSIBLE not in blocked_verdicts()


class TestMeasurementResult:
    def test_blocked_property(self):
        result = MeasurementResult("t", "x.com", Verdict.BLOCKED_RST)
        assert result.blocked
        assert not MeasurementResult("t", "x.com", Verdict.ACCESSIBLE).blocked

    def test_str_contains_fields(self):
        result = MeasurementResult("scan", "x.com", Verdict.ACCESSIBLE, detail="ok")
        assert "scan" in str(result) and "x.com" in str(result)

    def test_summarize(self):
        results = [
            MeasurementResult("t", "a", Verdict.ACCESSIBLE),
            MeasurementResult("t", "b", Verdict.ACCESSIBLE),
            MeasurementResult("t", "c", Verdict.BLOCKED_RST),
        ]
        assert summarize(results) == {"accessible": 2, "blocked_rst": 1}
