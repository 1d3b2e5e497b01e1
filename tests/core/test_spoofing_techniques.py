"""Tests for the Section-4 spoofed-mimicry techniques."""

import pytest

from repro.core import (
    MimicryServer,
    SpoofedSYNReachability,
    StatefulMimicryMeasurement,
    StatelessSpoofedDNSMeasurement,
    Verdict,
    shared_isn,
)
from repro.core.evaluation import build_environment


class TestStatelessSpoofedDNS:
    def test_verdicts_match_censorship_state(self):
        env = build_environment(censored=True, seed=40, population_size=8)
        technique = StatelessSpoofedDNSMeasurement(
            env.ctx, ["twitter.com", "example.org"], env.cover_ips(5)
        )
        technique.start()
        env.run(duration=30.0)
        verdicts = {r.target: r.verdict for r in technique.results}
        assert verdicts["twitter.com"] is Verdict.DNS_POISONED
        assert verdicts["example.org"] is Verdict.ACCESSIBLE

    def test_cover_queries_sent(self):
        env = build_environment(censored=False, seed=40, population_size=8)
        technique = StatelessSpoofedDNSMeasurement(
            env.ctx, ["twitter.com"], env.cover_ips(5)
        )
        technique.start()
        env.run(duration=30.0)
        assert technique.cover_queries_sent == 5

    def test_attribution_diluted_across_cover_hosts(self):
        """With a full blocked list, the bulk-resolution rule fires for the
        measurer AND every cover host — confidence collapses to ~1/(N+1)."""
        from repro.core.evaluation import BLOCKED_TARGETS_FULL

        env = build_environment(censored=True, seed=40, population_size=12)
        technique = StatelessSpoofedDNSMeasurement(
            env.ctx, list(BLOCKED_TARGETS_FULL), env.cover_ips(10)
        )
        technique.start()
        env.run(duration=60.0)
        report = env.surveillance.suspect_report()
        assert report.total > 0
        assert report.confidence("measurer") <= 1.0 / 10
        assert report.entropy() > 3.0

    @pytest.mark.parametrize("censored", [True, False], ids=["censored", "clean"])
    @pytest.mark.parametrize("blocked, sids", [(7, []), (8, [3000900])])
    def test_bulk_resolution_boundary(self, censored, blocked, sids):
        """Why the E1 pack's spoofed-dns row fails evasion: the MVR's
        bulk-resolution rule (sid 3000900, eight censored names in 60 s by
        source) attributes the measurer once it resolves eight blocked
        names, at either vantage and whatever cover it spoofs; at seven it
        stays unattributed.  The pack resolves all ten."""
        from repro.core.evaluation import BLOCKED_TARGETS_FULL, CONTROL_TARGETS_FULL

        env = build_environment(censored=censored, seed=0)
        technique = StatelessSpoofedDNSMeasurement(
            env.ctx,
            list(BLOCKED_TARGETS_FULL)[:blocked] + CONTROL_TARGETS_FULL,
            env.cover_ips(8),
        )
        technique.start()
        env.run(duration=60.0)
        attributed = env.surveillance.attributed_alerts_for_user("measurer")
        assert [stored.alert.sid for stored in attributed] == sids

    def test_spoofed_queries_blocked_by_strict_sav(self):
        from repro.spoofing import SAVFilter

        env = build_environment(censored=False, seed=40, population_size=8,
                                sav_filter=SAVFilter.strict())
        technique = StatelessSpoofedDNSMeasurement(
            env.ctx, ["example.org"], env.cover_ips(5)
        )
        technique.start()
        env.run(duration=30.0)
        # Real query still answers; spoofed cover died at the border.
        assert technique.results[0].verdict is Verdict.ACCESSIBLE
        assert env.topo.border_router.sav_drops == 5


class TestSpoofedSYN:
    def test_reachability_verdicts(self):
        env = build_environment(censored=True, seed=41, population_size=8)
        env.censor.policy.blocked_ips.add(env.topo.blocked_web.ip)
        technique = SpoofedSYNReachability(
            env.ctx,
            targets=[(env.topo.blocked_web.ip, 80), (env.topo.control_web.ip, 80)],
            cover_ips=env.cover_ips(5),
        )
        technique.start()
        env.run(duration=30.0)
        verdicts = {r.target: r.verdict for r in technique.results}
        assert verdicts[f"{env.topo.blocked_web.ip}:80"] is Verdict.BLOCKED_TIMEOUT
        assert verdicts[f"{env.topo.control_web.ip}:80"] is Verdict.ACCESSIBLE

    def test_rst_blocking_detected(self):
        env = build_environment(censored=True, seed=41, population_size=8)
        env.censor.policy.rst_endpoints.add((env.topo.blocked_web.ip, 80))
        technique = SpoofedSYNReachability(
            env.ctx, [(env.topo.blocked_web.ip, 80)], env.cover_ips(3)
        )
        technique.start()
        env.run(duration=30.0)
        assert technique.results[0].verdict is Verdict.BLOCKED_RST


class TestSharedISN:
    def test_deterministic(self):
        a = shared_isn(b"secret", 80, "10.1.0.5", 40000)
        b = shared_isn(b"secret", 80, "10.1.0.5", 40000)
        assert a == b

    def test_varies_with_tuple(self):
        base = shared_isn(b"secret", 80, "10.1.0.5", 40000)
        assert shared_isn(b"secret", 80, "10.1.0.5", 40001) != base
        assert shared_isn(b"other", 80, "10.1.0.5", 40000) != base

    def test_positive_31_bit(self):
        for sport in range(100):
            isn = shared_isn(b"s", 80, "10.0.0.1", sport)
            assert 1 <= isn < 2**31


class TestStatefulMimicry:
    def _technique(self, env, payloads, covers=3):
        return StatefulMimicryMeasurement(
            env.ctx,
            server=env.mimicry_server,
            probe_payloads=payloads,
            cover_ips=env.cover_ips(covers),
        )

    def test_blind_spoofed_flows_reach_server(self):
        env = build_environment(censored=False, seed=42, population_size=8)
        payload = b"GET /innocuous HTTP/1.1\r\nHost: test\r\n\r\n"
        technique = self._technique(env, [payload])
        technique.start()
        env.run(duration=30.0)
        assert len(technique.results) == 4  # 1 real + 3 covers
        assert all(r.verdict is Verdict.ACCESSIBLE for r in technique.results)
        assert technique.verdict_for_payload(payload) is Verdict.ACCESSIBLE

    def test_keyword_probe_detected_when_censored(self):
        env = build_environment(censored=True, seed=42, population_size=8)
        payload = b"GET /falun HTTP/1.1\r\nHost: test\r\n\r\n"
        technique = self._technique(env, [payload])
        technique.start()
        env.run(duration=30.0)
        verdict = technique.verdict_for_payload(payload)
        assert verdict is Verdict.BLOCKED_RST

    def test_ttl_limited_synack_never_reaches_cover_hosts(self):
        """The replay fix: cover hosts must see no SYN/ACK (else they RST)."""
        env = build_environment(censored=False, seed=42, population_size=8)
        cover = env.topo.population[0]
        synacks = []
        cover.stack.add_sniffer(
            lambda p: synacks.append(p) if p.tcp is not None and p.tcp.is_synack else None
        )
        payload = b"GET / HTTP/1.1\r\n\r\n"
        technique = StatefulMimicryMeasurement(
            env.ctx, env.mimicry_server, [payload], cover_ips=[cover.ip]
        )
        technique.start()
        env.run(duration=30.0)
        assert synacks == []
        # And the spoofed flow still delivered its request.
        spoofed = [r for r in technique.results if r.evidence["spoofed"]]
        assert spoofed and spoofed[0].verdict is Verdict.ACCESSIBLE

    def test_mixed_payloads(self):
        env = build_environment(censored=True, seed=42, population_size=8)
        good = b"GET /ok HTTP/1.1\r\n\r\n"
        bad = b"GET /tiananmen HTTP/1.1\r\n\r\n"
        technique = self._technique(env, [good, bad], covers=2)
        technique.start()
        env.run(duration=60.0)
        assert technique.verdict_for_payload(good) is Verdict.ACCESSIBLE
        assert technique.verdict_for_payload(bad) is Verdict.BLOCKED_RST

    def test_no_attribution_for_measurer(self):
        env = build_environment(censored=True, seed=42, population_size=8)
        payload = b"GET /falun HTTP/1.1\r\n\r\n"
        technique = self._technique(env, [payload])
        technique.start()
        env.run(duration=30.0)
        report = env.surveillance.suspect_report()
        # Keyword alerts spread over real + cover sources.
        assert report.confidence("measurer") < 0.5
