"""Retry policy and verdict-confidence unit tests.

The policy is the paper-safety mechanism that separates "the censor
dropped it" from "the path dropped it": exponential backoff decorrelates
retries from loss bursts, and the consistent-failure floor keeps one
lost packet from becoming a ``blocked`` verdict.
"""

import random

import pytest

from repro.core import (
    MeasurementContext,
    RetryPolicy,
    ScanMeasurement,
    ScanTarget,
    Verdict,
    aggregate_attempts,
)
from repro.netsim import GilbertElliottLoss, WebServer, build_three_node


class TestRetryPolicy:
    def test_backoff_schedule_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.25, backoff=2.0)
        assert policy.schedule() == [0.25, 0.5, 1.0]

    def test_delay_before_without_rng_is_jitter_free(self):
        policy = RetryPolicy(base_delay=0.1, backoff=3.0, jitter=0.5)
        assert policy.delay_before(1) == pytest.approx(0.1)
        assert policy.delay_before(2) == pytest.approx(0.3)
        assert policy.delay_before(3) == pytest.approx(0.9)

    def test_jitter_is_bounded_and_non_negative(self):
        policy = RetryPolicy(base_delay=0.2, backoff=2.0, jitter=0.25)
        rng = random.Random(1)
        for attempt in (1, 2, 3):
            base = 0.2 * 2.0 ** (attempt - 1)
            for _ in range(50):
                delay = policy.delay_before(attempt, rng)
                assert base <= delay <= base * 1.25

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_before(0)

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_single_shot_reproduces_legacy_behaviour(self):
        policy = RetryPolicy.single_shot()
        assert policy.max_attempts == 1
        assert policy.min_consistent_failures == 1
        assert not policy.retries_enabled
        assert policy.schedule() == []

    def test_context_default_is_single_shot(self):
        topo = build_three_node(seed=1)
        ctx = MeasurementContext(client=topo.client)
        assert not ctx.retry_policy.retries_enabled


class TestAggregateAttempts:
    def test_empty_is_inconclusive(self):
        assert aggregate_attempts([]) == (Verdict.INCONCLUSIVE, 0.0)

    def test_any_success_proves_reachability(self):
        verdict, confidence = aggregate_attempts(
            [Verdict.BLOCKED_TIMEOUT, Verdict.ACCESSIBLE, Verdict.BLOCKED_TIMEOUT]
        )
        assert verdict is Verdict.ACCESSIBLE
        assert confidence == pytest.approx(1 / 3)

    def test_single_failure_below_floor_is_inconclusive(self):
        verdict, confidence = aggregate_attempts(
            [Verdict.BLOCKED_TIMEOUT], min_consistent_failures=2
        )
        assert verdict is Verdict.INCONCLUSIVE
        assert confidence == pytest.approx(0.5)

    def test_consistent_failures_reach_blocked(self):
        verdict, confidence = aggregate_attempts(
            [Verdict.BLOCKED_TIMEOUT] * 3, min_consistent_failures=2
        )
        assert verdict is Verdict.BLOCKED_TIMEOUT
        assert confidence == pytest.approx(1.0)

    def test_dominant_blocking_verdict_wins(self):
        verdict, confidence = aggregate_attempts(
            [Verdict.BLOCKED_RST, Verdict.BLOCKED_RST, Verdict.BLOCKED_TIMEOUT],
            min_consistent_failures=2,
        )
        assert verdict is Verdict.BLOCKED_RST
        assert confidence == pytest.approx(2 / 3)

    def test_failing_controls_downgrade_to_inconclusive(self):
        """When the known-open controls fail too, the measurement saw the
        path (loss, outage), not the censor."""
        verdict, confidence = aggregate_attempts(
            [Verdict.BLOCKED_TIMEOUT] * 3,
            min_consistent_failures=2,
            control_outcomes=[Verdict.BLOCKED_TIMEOUT, Verdict.BLOCKED_TIMEOUT],
        )
        assert verdict is Verdict.INCONCLUSIVE
        assert confidence == 0.0

    def test_healthy_controls_leave_verdict_standing(self):
        verdict, _ = aggregate_attempts(
            [Verdict.BLOCKED_TIMEOUT] * 3,
            min_consistent_failures=2,
            control_outcomes=[Verdict.ACCESSIBLE, Verdict.ACCESSIBLE],
        )
        assert verdict is Verdict.BLOCKED_TIMEOUT


class TestRetryingScanUnderLoss:
    def _scan(self, policy):
        topo = build_three_node(seed=23)
        WebServer(topo.server)
        topo.network.impair_all_links(
            [GilbertElliottLoss.from_marginal(0.15, mean_burst_length=4.0)]
        )
        ctx = MeasurementContext(client=topo.client, retry_policy=policy)
        technique = ScanMeasurement(
            ctx,
            [ScanTarget(topo.server.ip, [80], "server")],
            port_count=60,
            timeout=1.0,
        )
        technique.start()
        topo.sim.run(until=topo.sim.now + 120.0)
        assert technique.done
        return technique.results[0]

    def test_retries_resolve_what_single_shot_false_blocks(self):
        """No censor exists, yet the single-shot scan leaves ports
        unresolved (false blocks); the retrying scan clears them all."""
        single = self._scan(RetryPolicy.single_shot(timeout=1.0))
        # 15% marginal loss per link direction compounds to roughly a
        # one-in-four failure per attempt round trip, so clearing all 60
        # ports needs a deeper attempt budget than the 5%-loss scenarios.
        retried = self._scan(RetryPolicy(max_attempts=7, timeout=1.0))
        assert single.evidence["unresolved_ports"] > 0
        assert retried.evidence["unresolved_ports"] == 0
        assert retried.verdict is Verdict.ACCESSIBLE
        assert retried.attempts > 1
