"""Tap equivalence: the tiered-fidelity fast path changes nothing a tap sees.

The tentpole's safety argument, tested end to end: flows that cross a
tap are expanded to byte-accurate packets, so every tap observable —
captured bytes and timestamps, censor enforcement events, MVR retained
bytes, rule-engine hit counters — is *identical* between hybrid mode
(aggregate fast path + expansion at taps) and full fidelity (every flow
materialized).  The suite runs without impairment: loss draws RNG per
materialized packet, so lossy links make the two modes' random streams
diverge by construction — the documented limit of the equivalence.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import AggregateFlow, PacketCapture, build_censored_as
from repro.obs import MetricsRegistry, use_registry
from repro.traffic.population import (
    PopulationProfile,
    PopulationTraffic,
    _DNSTemplate,
    _FlowTemplate,
    _SMTPTemplate,
    _VideoTemplate,
    _WebTemplate,
)

USERS = 300
WINDOW = 6.0


def run_population(fidelity, users=USERS, seed=7, tap=True):
    topo = build_censored_as(seed=seed)
    capture = PacketCapture()
    if tap:
        topo.border_router.add_tap(capture)
    population = PopulationTraffic(
        topo, users=users, fidelity=fidelity, log_schedule=True
    )
    population.start(WINDOW)
    topo.sim.run(until=topo.sim.now + WINDOW + 5.0)
    return topo, capture, population


def capture_trace(capture):
    """The byte-exact observable: (timestamp, wire bytes) per packet."""
    return [(round(entry.time, 9), entry.raw) for entry in capture.packets]


class TestTapEquivalence:
    @pytest.fixture(scope="class")
    def runs(self):
        return {mode: run_population(mode) for mode in ("hybrid", "full", "aggregate")}

    def test_schedule_identical_across_modes(self, runs):
        """The tier decision consumes no RNG, so the flow schedule is a
        pure function of (seed, users, profile) — fidelity-independent."""
        digests = {
            mode: population.schedule_digest()
            for mode, (_topo, _capture, population) in runs.items()
        }
        assert len(set(digests.values())) == 1, digests

    def test_tap_capture_byte_identical_hybrid_vs_full(self, runs):
        _t1, hybrid_capture, _p1 = runs["hybrid"]
        _t2, full_capture, _p2 = runs["full"]
        hybrid_trace = capture_trace(hybrid_capture)
        assert hybrid_trace, "no tap-crossing flows — equivalence is vacuous"
        assert hybrid_trace == capture_trace(full_capture)

    def test_aggregate_mode_reaches_no_tap(self, runs):
        _topo, capture, population = runs["aggregate"]
        assert capture_trace(capture) == []
        assert population.stats()["packets_materialized"] == 0

    def test_total_bytes_identical_across_modes(self, runs):
        """Conservation: both tiers account the same wire bytes, so the
        grand total is mode-independent."""
        totals = {
            mode: population.bytes_total()
            for mode, (_topo, _capture, population) in runs.items()
        }
        assert len(set(totals.values())) == 1, totals

    def test_hybrid_splits_tiers(self, runs):
        stats = runs["hybrid"][2].stats()
        assert stats["flows_aggregate"] > 0
        assert stats["flows_expanded"] > 0
        full = runs["full"][2].stats()
        assert full["flows_aggregate"] == 0
        assert full["flows_expanded"] == stats["flows_aggregate"] + stats["flows_expanded"]


def censored_observables(fidelity, users=150, seed=3, duration=6.0):
    """Run the full censored AS under background population; return every
    tap observable the paper's evaluation scores."""
    from repro.core.evaluation import build_environment

    registry = MetricsRegistry()
    with use_registry(registry):
        env = build_environment(
            censored=True, seed=seed, synthetic_users=users, fidelity=fidelity
        )
        env.population.start(duration)
        env.run(duration=duration + 5.0)
        snapshot = registry.snapshot()
    events = [
        (round(e.time, 9), e.mechanism, e.src, e.dst, e.detail)
        for e in env.censor.events
    ]
    rule_metrics = {
        name: instrument["values"]
        for name, instrument in snapshot["instruments"].items()
        if name.startswith("rules_") or name.startswith("mvr_")
    }
    return {
        "censor_events": events,
        "surveillance": env.surveillance.summary(),
        "rule_metrics": rule_metrics,
        "background_bytes": env.population.bytes_total(),
    }


class TestCensoredEnvironmentEquivalence:
    @pytest.fixture(scope="class")
    def observables(self):
        return {
            mode: censored_observables(mode) for mode in ("hybrid", "full")
        }

    def test_mvr_sees_identical_traffic(self, observables):
        hybrid = observables["hybrid"]["surveillance"]
        full = observables["full"]["surveillance"]
        assert hybrid["bytes_seen"] > 0, "population never reached the MVR"
        assert hybrid == full

    def test_censor_event_log_identical(self, observables):
        assert (
            observables["hybrid"]["censor_events"]
            == observables["full"]["censor_events"]
        )

    def test_rule_engine_counters_identical(self, observables):
        hybrid = observables["hybrid"]["rule_metrics"]
        assert hybrid, "no rule/MVR instruments registered — comparison is vacuous"
        assert hybrid == observables["full"]["rule_metrics"]

    def test_background_bytes_identical(self, observables):
        assert (
            observables["hybrid"]["background_bytes"]
            == observables["full"]["background_bytes"]
        )


def materialized_totals(template, flow_id, params):
    plan = template.plan(flow_id, params)
    packets_up, bytes_up, packets_down, bytes_down, duration = plan
    flow = AggregateFlow(
        flow_id=flow_id, kind=template.kind, src_ip="10.128.0.2",
        dst_ip="10.224.10.10", src_gateway="popgw-a", dst_gateway="popsvc",
        duration=duration, packets_up=packets_up, bytes_up=bytes_up,
        packets_down=packets_down, bytes_down=bytes_down,
        template=template, params=params,
    )
    total_bytes = 0
    total_packets = 0
    last_offset = 0.0
    for offset, _origin, packet in template.materialize(flow):
        total_bytes += packet.wire_length()
        total_packets += 1
        assert offset >= 0.0
        last_offset = max(last_offset, offset)
    return total_bytes, total_packets, last_offset, flow


class TestTemplateConservation:
    """The single-script invariant: plan totals equal materialized wire
    bytes for every parameter the generator can draw — the property
    ``FlowFidelityEngine._expand`` asserts at runtime."""

    @settings(max_examples=30, deadline=None)
    @given(flow_id=st.integers(0, 2**31), page=st.integers(1, 200_000))
    def test_web(self, flow_id, page):
        template = _WebTemplate()
        params = ("cdn-00.example.com", page)
        total_bytes, total_packets, last, flow = materialized_totals(
            template, flow_id, params
        )
        assert total_bytes == flow.bytes_total
        assert total_packets == flow.packets_total
        assert last < flow.duration

    @settings(max_examples=30, deadline=None)
    @given(flow_id=st.integers(0, 2**31),
           segment=st.integers(1, 100_000), count=st.integers(1, 5))
    def test_video(self, flow_id, segment, count):
        template = _VideoTemplate()
        params = ("video.example.com", segment, count)
        total_bytes, total_packets, _last, flow = materialized_totals(
            template, flow_id, params
        )
        assert total_bytes == flow.bytes_total
        assert total_packets == flow.packets_total

    @settings(max_examples=30, deadline=None)
    @given(flow_id=st.integers(0, 2**31), message=st.integers(1, 50_000))
    def test_smtp(self, flow_id, message):
        template = _SMTPTemplate()
        params = ("client.example.com", message)
        total_bytes, total_packets, _last, flow = materialized_totals(
            template, flow_id, params
        )
        assert total_bytes == flow.bytes_total
        assert total_packets == flow.packets_total

    @settings(max_examples=30, deadline=None)
    @given(flow_id=st.integers(0, 2**31),
           labels=st.lists(
               st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                       min_size=1, max_size=20),
               min_size=1, max_size=4))
    def test_dns(self, flow_id, labels):
        template = _DNSTemplate()
        params = (".".join(labels),)
        total_bytes, total_packets, _last, flow = materialized_totals(
            template, flow_id, params
        )
        assert total_bytes == flow.bytes_total
        assert total_packets == flow.packets_total


#: flow ids on both sides of the 6 -> 7 digit ``flow_id & 0xFFFFF`` boundary
#: (the SMTP MAIL FROM length changes there) and of its wrap to zero
flow_ids = st.one_of(
    st.integers(0, 2**31),
    st.integers(999_990, 1_000_010),
    st.integers(0xFFFFF - 5, 0xFFFFF + 5),
)


class TestArithmeticPlan:
    """TCP templates plan by summing turns; the result must equal walking
    the packet script, duration float included, bit for bit."""

    @staticmethod
    def assert_plan_matches_script(template, flow_id, params):
        plan = template.plan(flow_id, params)
        walked = _FlowTemplate.plan(template, flow_id, params)
        assert plan[:4] == walked[:4]
        assert plan[4].hex() == walked[4].hex()

    @settings(max_examples=60, deadline=None)
    @given(flow_id=flow_ids, page=st.integers(0, 200_000))
    def test_web(self, flow_id, page):
        self.assert_plan_matches_script(_WebTemplate(), flow_id, ("cdn-00.example.com", page))

    @settings(max_examples=60, deadline=None)
    @given(flow_id=flow_ids, segment=st.integers(0, 100_000), count=st.integers(0, 5))
    def test_video(self, flow_id, segment, count):
        self.assert_plan_matches_script(
            _VideoTemplate(), flow_id, ("video.example.com", segment, count)
        )

    @settings(max_examples=60, deadline=None)
    @given(flow_id=flow_ids, message=st.integers(0, 50_000))
    def test_smtp(self, flow_id, message):
        self.assert_plan_matches_script(
            _SMTPTemplate(), flow_id, ("client.example.com", message)
        )

    @settings(max_examples=30, deadline=None)
    @given(flow_id=flow_ids, qname=st.sampled_from(["cdn-00.example.com", "ext-07.example.net"]))
    def test_dns(self, flow_id, qname):
        self.assert_plan_matches_script(_DNSTemplate(), flow_id, (qname,))

    def test_smtp_sender_width_changes_at_one_million(self):
        template = _SMTPTemplate()
        params = ("client.example.com", 900)
        below = template.plan(999_999, params)
        above = template.plan(1_000_000, params)
        assert above[1] == below[1] + 1  # one more digit up, same packets
        assert above[0] == below[0]


#: ids at the edges of every width the templates format a flow id at
MEMO_FLOW_IDS = (
    0, 0xFFFF, 0x10000, 999_999, 1_000_000, 0xFFFFF, 0x100000, 0xFFFFFF,
)


def profile_params(population):
    """Every ``(kind, params)`` the population's profile can draw."""
    profile = population.profile
    sites = population._local_sites + population._external_sites
    for _ip, host in sites:
        for page in profile.page_bytes:
            yield "web", (host, page)
    for qname in population._dns_names:
        yield "dns", (qname,)
    for segments in profile.video_segments_per_fetch:
        yield "video", ("video.example.com", profile.video_segment_bytes, segments)
    for message in profile.message_bytes:
        yield "smtp", ("client.example.com", message)


class TestPlanMemo:
    """A population memoises plans on ``(kind, plan_key)``; a memo hit must
    return what planning the flow afresh returns."""

    @pytest.mark.parametrize("order", [MEMO_FLOW_IDS, MEMO_FLOW_IDS[::-1]])
    def test_memo_equals_plan_and_script_walk(self, order):
        population = PopulationTraffic(build_censored_as(seed=1), users=10)
        params_seen = list(profile_params(population))
        assert {kind for kind, _params in params_seen} == set(population._templates)
        for flow_id in order:
            for kind, params in params_seen:
                template = population._templates[kind]
                memo = population._plan(template, flow_id, params)
                assert memo == template.plan(flow_id, params)
                walked = _FlowTemplate.plan(template, flow_id, params)
                assert memo[:4] == walked[:4]
                assert memo[4].hex() == walked[4].hex()

    def test_smtp_key_splits_at_one_million(self):
        template = _SMTPTemplate()
        params = ("client.example.com", 900)
        assert template.plan_key(999_999, params) == template.plan_key(0x100000, params)
        assert template.plan_key(1_000_000, params) == template.plan_key(0xFFFFF, params)
        assert template.plan_key(999_999, params) != template.plan_key(1_000_000, params)

    def test_memo_is_per_population(self):
        topo = build_censored_as(seed=1)
        first = PopulationTraffic(topo, users=10)
        second = PopulationTraffic(build_censored_as(seed=2), users=10)
        first._plan(first._templates["dns"], 0, ("cdn-00.example.com",))
        assert first._plans and not second._plans


class TestPopulationSurface:
    def test_user_count_bounds_enforced(self):
        topo = build_censored_as(seed=1)
        with pytest.raises(ValueError, match="users"):
            PopulationTraffic(topo, users=0)

    def test_bad_fidelity_rejected(self):
        topo = build_censored_as(seed=1)
        with pytest.raises(ValueError, match="fidelity"):
            PopulationTraffic(topo, users=10, fidelity="imax")

    def test_user_ips_are_unique_and_prefix_routed(self):
        topo = build_censored_as(seed=1)
        population = PopulationTraffic(topo, users=100)
        ips = {population.user_ip(i) for i in range(100)}
        assert len(ips) == 100
        for i in (0, 1, 98, 99):
            owner = topo.network.owner_of(population.user_ip(i))
            assert owner is not None and owner.name.startswith("popgw-")

    def test_stop_halts_generation(self):
        topo = build_censored_as(seed=5)
        population = PopulationTraffic(topo, users=200, fidelity="aggregate")
        population.start(30.0)
        topo.sim.run(until=1.0)
        population.stop()
        created = population.flows_created
        assert created > 0
        topo.sim.run()
        assert population.flows_created == created

    def test_rate_scales_with_users_not_hosts(self):
        """Population-level Poisson arrivals: 4x the users, ~4x the flows,
        with zero additional Host objects."""
        topo_small = build_censored_as(seed=9)
        node_count = len(topo_small.network.nodes)
        small = PopulationTraffic(topo_small, users=100, fidelity="aggregate")
        small.start(WINDOW)
        topo_small.sim.run(until=topo_small.sim.now + WINDOW + 5.0)

        topo_large = build_censored_as(seed=9)
        large = PopulationTraffic(topo_large, users=400, fidelity="aggregate")
        large.start(WINDOW)
        topo_large.sim.run(until=topo_large.sim.now + WINDOW + 5.0)

        assert len(topo_large.network.nodes) == node_count + 4  # gateways only
        ratio = large.flows_created / max(1, small.flows_created)
        assert 2.0 < ratio < 8.0

    def test_custom_profile_rates_respected(self):
        topo = build_censored_as(seed=4)
        profile = PopulationProfile(
            web_rate=0.0, dns_rate=1.0, video_rate=0.0, smtp_rate=0.0
        )
        population = PopulationTraffic(
            topo, users=50, fidelity="aggregate", profile=profile,
            log_schedule=True,
        )
        population.start(3.0)
        topo.sim.run()
        kinds = {entry[2] for entry in population.schedule_log}
        assert kinds == {"dns"}
