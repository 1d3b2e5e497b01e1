"""Acceptance: measurement safety on a hostile (but uncensored) path.

The PR's headline criterion: over a 5% Gilbert–Elliott burst-loss link
with *no censor anywhere*, a retrying scanner sweeping 1000 ports must
report zero blocked verdicts and leave zero ports unresolved, while the
single-shot baseline demonstrably reports false blocks on the identical
path.  That gap — not any new detection power — is the argument for the
retry layer.
"""

import pytest

from repro.analysis import link_report
from repro.core import (
    MeasurementContext,
    RetryPolicy,
    ScanMeasurement,
    ScanTarget,
    Verdict,
)
from repro.netsim import WebServer, build_three_node, burst_loss_profile
from repro.results import RecordAnalysis, rows_from_point


def scan_under_burst_loss(policy, port_count=1000, marginal=0.05, seed=29):
    topo = build_three_node(seed=seed)
    WebServer(topo.server)
    topo.network.impair_all_links(
        burst_loss_profile(marginal=marginal, mean_burst_length=5.0, jitter=0.001)
    )
    ctx = MeasurementContext(client=topo.client, retry_policy=policy)
    technique = ScanMeasurement(
        ctx,
        [ScanTarget(topo.server.ip, [80], "server")],
        port_count=port_count,
        probe_interval=0.005,
        timeout=1.0,
    )
    technique.start()
    topo.sim.run(until=topo.sim.now + 600.0)
    assert technique.done
    return topo, technique.results[0]


class TestThousandPortAcceptance:
    def test_retrying_scan_reports_zero_blocked_across_1000_ports(self):
        topo, result = scan_under_burst_loss(
            RetryPolicy(max_attempts=5, timeout=1.0)
        )
        # The path really was hostile...
        assert sum(link.packets_lost for link in topo.network.links) > 0
        # ...yet nothing is called blocked and no port stays unresolved.
        assert not result.blocked
        assert result.verdict is Verdict.ACCESSIBLE
        assert result.evidence["unresolved_ports"] == 0
        assert result.evidence["ports_scanned"] >= 1000
        assert result.attempts > 1

    def test_single_shot_baseline_false_blocks_on_the_same_path(self):
        _, result = scan_under_burst_loss(RetryPolicy.single_shot(timeout=1.0))
        # Lost SYNs/RSTs leave ports "filtered" — the raw material of
        # false blocked verdicts — on a path with no censor at all.
        assert result.evidence["unresolved_ports"] > 0

    def test_link_accounting_is_conserved_end_to_end(self):
        topo, _ = scan_under_burst_loss(RetryPolicy(max_attempts=3, timeout=1.0))
        report = link_report(topo.network.links)
        assert report
        for entry in report.values():
            assert entry["conserved"] is True


def _rows_at_loss(index: int, loss_rate: float, policy: RetryPolicy, retry: str):
    """The record rows a sweep point scanning the known-open server at
    ``loss_rate`` would produce ("server" is a ground-truth-open name)."""
    _, result = scan_under_burst_loss(
        policy, port_count=100, marginal=loss_rate, seed=31
    )
    point = dict(index=index, seed=31, technique="scan", topology="three-node",
                 loss=loss_rate, retry=retry)
    return rows_from_point(point, [result], vantage="censored", censor="none",
                           risk=None)


@pytest.mark.slow
class TestFalseBlockCurve:
    """The paper-style safety curve: false-block rate vs. path loss."""

    LOSS_RATES = [0.0, 0.02, 0.05, 0.10, 0.15]

    def _curve(self, policy: RetryPolicy, retry: str):
        analysis = RecordAnalysis()
        for index, loss in enumerate(self.LOSS_RATES):
            analysis.extend(_rows_at_loss(index, loss, policy, retry))
        curve = analysis.false_block_curves()["scan"][retry]
        assert [loss for loss, _rate, _n in curve] == self.LOSS_RATES
        return [(loss, rate) for loss, rate, _n in curve]

    def test_retrying_curve_stays_at_zero(self):
        curve = self._curve(RetryPolicy(max_attempts=6, timeout=1.0), "retry-6")
        assert all(rate == 0.0 for _, rate in curve)

    def test_single_shot_curve_climbs_with_loss(self):
        curve = self._curve(RetryPolicy.single_shot(timeout=1.0), "single-shot")
        assert curve[0][1] == 0.0  # lossless: no false blocks
        assert any(rate > 0.0 for _, rate in curve[1:])
