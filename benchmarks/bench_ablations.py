"""Ablation benches for the design choices DESIGN.md §6 calls out.

A1 — MVR detection coverage: the Section-3 evasion argument rests on the
     surveillance system *recognizing* the traffic as commodity bot noise.
     Remove the DDoS detection rule and the DDoS technique is suddenly
     attributed — "evading by triggering" needs the trigger to exist.
A2 — Censor response mode: block page vs. bare RST.  The DDoS technique's
     per-sample statistics characterize the mechanism either way.
A3 — TTL-estimate error: over-estimating hop distance lets TTL-limited
     replies reach spoofed clients, whose replay RSTs corrupt stateful-
     mimicry verdicts (the paper's §4.1 complication, quantified).
A4 — SAV granularity: stricter source-address validation shrinks the
     usable cover crowd (paper §4.2).
"""

from common import write_report

from repro.analysis import render_table
from repro.core import (
    DDoSMeasurement,
    StatefulMimicryMeasurement,
    StatelessSpoofedDNSMeasurement,
    Verdict,
    assess_risk,
)
from repro.core.evaluation import BLOCKED_TARGETS_FULL, build_environment
from repro.core.spoofing_stateful import MimicryServer
from repro.netsim import Host
from repro.spoofing import SAVFilter
from repro.surveillance import AttributionEngine, SurveillanceSystem


def test_a1_mvr_coverage_ablation():
    """Without the DDoS detection, the DDoS method loses its cover."""

    def run():
        results = {}
        detection_variants = {
            "full-ruleset": None,
            "no-ddos-rule": "\n".join(
                line
                for line in __import__(
                    "repro.rules.rulesets", fromlist=["mvr_detection_ruleset_text"]
                ).mvr_detection_ruleset_text().splitlines()
                if "DOS" not in line
            ),
        }
        for label, detection in detection_variants.items():
            env = build_environment(censored=True, seed=70, population_size=6)
            # Rebuild surveillance with the variant ruleset on the same spot.
            surv = SurveillanceSystem(
                attribution=AttributionEngine.from_network(env.topo.network),
                detection_ruleset=detection,
            )
            env.topo.border_router.taps[0] = surv
            env.surveillance = surv
            env.censor.policy.dns_poisoning = False  # force the HTTP stage
            technique = DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=25)
            technique.start()
            env.run(duration=60.0)
            risk = assess_risk(surv, label, "measurer",
                               env.topo.measurement_client.ip, now=env.sim.now)
            results[label] = (technique.results[0].verdict, risk)
        return results

    results = run()
    rows = [[label, verdict.value, risk.attributed_alerts]
            for label, (verdict, risk) in results.items()]
    write_report("a1_mvr_coverage", render_table(
        ["MVR ruleset", "verdict", "attributed alerts"], rows,
        title="A1: evasion depends on the commodity detection existing",
    ))
    # Accuracy unchanged; evasion flips.
    assert results["full-ruleset"][0] is Verdict.BLOCKED_RST
    assert results["no-ddos-rule"][0] is Verdict.BLOCKED_RST
    assert results["full-ruleset"][1].attributed_alerts == 0
    assert results["no-ddos-rule"][1].attributed_alerts > 0


def test_a2_censor_response_mode():
    """Block-page censors are characterized as such, resets as resets."""

    def run():
        verdicts = {}
        for mode, block_page in (("rst", False), ("block-page", True)):
            env = build_environment(censored=True, seed=71, population_size=4)
            env.censor.policy.dns_poisoning = False
            env.censor.policy.http_block_page = block_page
            technique = DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=15)
            technique.start()
            env.run(duration=60.0)
            verdicts[mode] = technique.results[0].verdict
        return verdicts

    verdicts = run()
    write_report("a2_censor_mode", render_table(
        ["censor mode", "characterized as"],
        [[mode, verdict.value] for mode, verdict in verdicts.items()],
        title="A2: per-sample statistics identify the censorship mechanism",
    ))
    assert verdicts["rst"] is Verdict.BLOCKED_RST
    assert verdicts["block-page"] is Verdict.HTTP_BLOCKPAGE


def test_a3_ttl_estimate_error():
    """TTL over-estimation leaks SYN/ACKs to covers -> replay corruption.

    Censor OFF throughout: any blocked verdict is a false positive caused
    purely by the replay RSTs.
    """

    def run():
        outcomes = {}
        for error in (0, +2):
            env = build_environment(censored=False, seed=72, population_size=8)
            planned = env.topo.reply_ttl_dying_inside()
            server_host = env.topo.network.add(
                Host("mimicry2", "198.51.100.60")
            )
            env.topo.network.connect(server_host, env.topo.transit_router)
            server = MimicryServer(server_host, port=8080, reply_ttl=planned + error)
            technique = StatefulMimicryMeasurement(
                env.ctx, server,
                [b"GET /benign HTTP/1.1\r\n\r\n"],
                cover_ips=env.cover_ips(6),
            )
            technique.start()
            env.run(duration=60.0)
            false_blocked = sum(1 for r in technique.results if r.blocked)
            outcomes[error] = (false_blocked, len(technique.results))
        return outcomes

    outcomes = run()
    write_report("a3_ttl_error", render_table(
        ["TTL estimate error", "false-blocked flows", "total flows"],
        [[error, blocked, total] for error, (blocked, total) in outcomes.items()],
        title="A3: hop-estimate error vs. replay corruption (censor OFF)",
    ))
    assert outcomes[0][0] == 0          # correct TTL: clean verdicts
    assert outcomes[2][0] > 0           # +2 hops: replay RSTs corrupt flows


def test_a4_sav_granularity():
    """Stricter SAV shrinks the spoofed crowd the measurer can hide in."""

    def run():
        results = {}
        for label, scope in (("no-SAV", 0), ("/16 scope", 16), ("/24 scope", 24),
                             ("strict", None)):
            env_kwargs = dict(censored=True, seed=73, population_size=12)
            env = build_environment(**env_kwargs)
            # Install enforcement keyed to a uniform per-host scope.
            for host in env.topo.all_clients:
                host.spoof_scope = scope
            env.topo.border_router.sav = SAVFilter.from_network(env.topo.network)
            technique = StatelessSpoofedDNSMeasurement(
                env.ctx, list(BLOCKED_TARGETS_FULL), env.cover_ips(10)
            )
            technique.start()
            env.run(duration=60.0)
            report = env.surveillance.suspect_report()
            results[label] = (env.topo.border_router.sav_drops,
                              report.confidence("measurer"),
                              report.entropy())
        return results

    results = run()
    write_report("a4_sav_granularity", render_table(
        ["SAV policy", "spoofed packets dropped", "measurer confidence", "entropy"],
        [[label, drops, conf, ent] for label, (drops, conf, ent) in results.items()],
        title="A4: SAV granularity vs. cover effectiveness",
    ))
    # No SAV: full dilution.  Strict SAV: every spoof dropped, certain
    # attribution.  (Population is 10.1.1.x-10.1.2.x; the measurer sits in
    # 10.1.0.x, so /24-scoped spoofing cannot reach the cover addresses
    # while /16-scoped spoofing can.)
    assert results["no-SAV"][1] < 0.15
    assert results["/16 scope"][1] < 0.15
    assert results["/24 scope"][0] > 0
    assert results["/24 scope"][1] == 1.0
    assert results["strict"][1] == 1.0


def test_a5_ttl_normalization_countermeasure():
    """The §4.2 countermeasure trade-off: TTL normalization defeats
    stateful mimicry but breaks legitimate hop-limited diagnostics.
    """

    from repro.packets import ICMPMessage, IPPacket
    from repro.surveillance import TTLNormalizer

    def run():
        results = {}
        for deployed in (False, True):
            env = build_environment(censored=False, seed=74, population_size=6)
            normalizer = TTLNormalizer(floor=8)
            if deployed:
                env.topo.border_router.taps.insert(0, normalizer)
            technique = StatefulMimicryMeasurement(
                env.ctx, env.mimicry_server,
                [b"GET /benign HTTP/1.1\r\n\r\n"],
                cover_ips=env.cover_ips(4),
            )
            technique.start()
            # Legitimate low-TTL diagnostics crossing the same tap
            # (traceroute-style probes from the measurement server).
            for ttl in (1, 2, 3):
                env.topo.measurement_server.send_ip(IPPacket(
                    src=env.topo.measurement_server.ip,
                    dst=env.topo.population[0].ip,
                    ttl=ttl,
                    payload=ICMPMessage.echo_request(ident=ttl),
                ))
            env.run(duration=30.0)
            false_blocked = sum(1 for r in technique.results if r.blocked)
            results["normalizer" if deployed else "baseline"] = (
                false_blocked, len(technique.results), normalizer.diagnostics_broken,
            )
        return results

    results = run()
    write_report("a5_ttl_normalizer", render_table(
        ["deployment", "false-blocked flows", "total flows", "diagnostics broken"],
        [[label, blocked, total, broken]
         for label, (blocked, total, broken) in results.items()],
        title="A5: TTL-normalization countermeasure trade-off (censor OFF)",
    ))
    baseline, deployed = results["baseline"], results["normalizer"]
    assert baseline[0] == 0            # mimicry clean without the countermeasure
    assert deployed[0] == deployed[1]  # countermeasure corrupts every flow...
    assert deployed[2] > 0             # ...at the cost of broken diagnostics


def test_a6_low_and_slow_overt():
    """Pacing ablation: a *slow* overt DNS campaign stays under the bulk-
    resolution threshold and evades too — but pays in wall-clock time.

    An honest caveat this reproduction surfaces: volume-threshold interest
    rules create a stealth/latency trade-off even for overt methods.  The
    paper's techniques remove the latency cost (they can burst, because
    bursting is exactly what makes them look like bots).
    """

    from repro.core import OvertDNSMeasurement

    def run():
        results = {}
        for label, interval in (("burst", 0.0), ("low-and-slow", 10.0)):
            env = build_environment(censored=True, seed=75, population_size=6)
            technique = OvertDNSMeasurement(
                env.ctx, list(BLOCKED_TARGETS_FULL), interval=interval
            )
            started = env.sim.now
            technique.start()
            env.run(duration=300.0)
            elapsed = max(r.time for r in technique.results) - started
            risk = assess_risk(env.surveillance, label, "measurer",
                               env.topo.measurement_client.ip, now=env.sim.now)
            accurate = all(r.blocked for r in technique.results)
            results[label] = (accurate, risk.attributed_alerts, elapsed)
        return results

    results = run()
    write_report("a6_pacing", render_table(
        ["pacing", "accurate", "attributed alerts", "campaign seconds"],
        [[label, "yes" if acc else "NO", alerts, elapsed]
         for label, (acc, alerts, elapsed) in results.items()],
        title="A6: overt-DNS pacing vs. the volume-threshold interest rule",
    ))
    burst, slow = results["burst"], results["low-and-slow"]
    assert burst[0] and slow[0]          # both accurate
    assert burst[1] > 0                  # bursting trips the threshold
    assert slow[1] == 0                  # pacing stays under it...
    assert slow[2] > 20 * burst[2]       # ...at a large latency cost


def test_a7_sampling_beats_single_shot_under_loss():
    """Method #3's sampling claim, quantified: on a lossy path (censor
    OFF), single-shot overt probes misreport timeouts as blocking while the
    DDoS method's majority vote over 25 samples stays correct.
    """

    from repro.core import OvertHTTPMeasurement

    def run():
        rows = []
        for loss in (0.0, 0.05, 0.10):
            single_fp = 0
            sampled_fp = 0
            trials = 6
            for trial in range(trials):
                env = build_environment(censored=False, seed=76 + trial,
                                        population_size=4)
                # Make the international hop lossy.
                for link in env.topo.network.links:
                    if link.connects(env.topo.border_router, env.topo.transit_router):
                        link.loss = loss
                # The ablation's condition is "no TCP retransmission": the
                # measurement client's stack must not hide a lost segment.
                stack = env.ctx.client.stack
                stack.syn_retries = 0
                stack.max_retransmits = 0
                overt = OvertHTTPMeasurement(env.ctx, ["example.org"])
                # Censorship is deterministic (~100 % of samples fail)
                # while loss is stochastic, so the sampled method can use
                # a high blocked-fraction threshold and separate the two —
                # something a single-shot probe fundamentally cannot do.
                sampled = DDoSMeasurement(env.ctx, ["weather.gov"],
                                          requests_per_target=25,
                                          blocked_fraction_threshold=0.8)
                overt.start()
                sampled.start()
                env.run(duration=120.0)
                single_fp += int(overt.results[0].blocked)
                sampled_fp += int(sampled.results[0].blocked)
            rows.append([loss, f"{single_fp}/{trials}", f"{sampled_fp}/{trials}"])
        return rows

    rows = run()

    from repro.analysis.stats import wilson_interval

    def with_ci(cell):
        hits, trials = (int(x) for x in cell.split("/"))
        low, high = wilson_interval(hits, trials)
        return f"{cell} (95% CI {low:.2f}-{high:.2f})"

    write_report("a7_loss_sampling", render_table(
        ["link loss", "overt false-blocked", "ddos(25-sample) false-blocked"],
        [[loss, with_ci(single), with_ci(sampled)] for loss, single, sampled in rows],
        title="A7: repeated sampling vs. single-shot probing on lossy paths",
    ))
    # Clean path: nobody false-positives.
    assert rows[0][1] == "0/6" and rows[0][2] == "0/6"
    # Lossy paths: the sampled method never false-positives; the single
    # shot does at least once across the sweep.
    total_single = sum(int(r[1].split("/")[0]) for r in rows)
    total_sampled = sum(int(r[2].split("/")[0]) for r in rows)
    assert total_sampled == 0
    assert total_single > 0


def test_a8_censor_stream_depth():
    """The censor's finite reassembly (Khattak et al. [26]): content past
    the inspection depth is invisible, so a keyword buried deep in the
    request escapes the reset — and a measurement that only probes deep
    offsets would wrongly conclude 'not censored'.
    """

    from repro.censor import GreatFirewall
    from repro.netsim import http_get

    def run():
        results = {}
        for depth in (256, 8192):
            env = build_environment(censored=True, seed=77, population_size=4)
            censor = GreatFirewall(stream_depth=depth)
            censor.policy.dns_poisoning = False
            # Replace the default censor tap (index 1; MVR is at 0).
            env.topo.border_router.taps[1] = censor
            outcomes = {}
            filler = "x" * 600
            for label, path in (
                ("shallow", "/falun"),
                ("deep", f"/{filler}falun"),
            ):
                captured = []
                http_get(env.ctx.client, env.topo.control_web.ip, "example.org",
                         path, callback=captured.append)
                env.run(duration=20.0)
                outcomes[label] = captured[0].status
            results[depth] = outcomes
        return results

    results = run()
    write_report("a8_stream_depth", render_table(
        ["censor depth", "shallow keyword", "keyword at offset ~600"],
        [[depth, out["shallow"], out["deep"]] for depth, out in results.items()],
        title="A8: censor reassembly depth vs. keyword position",
    ))
    assert results[256]["shallow"] == "reset"
    assert results[256]["deep"] == "ok"      # escaped the shallow censor
    assert results[8192]["deep"] == "reset"  # full-depth censor catches it


def test_a9_fragmentation_evasion():
    """Clayton et al.'s fragment evasion, as a censor-capability ablation:
    a keyword split across IP fragments passes a non-reassembling censor
    and is caught by a reassembling one.  (This is an *accuracy* hazard
    for keyword measurements against modern censors: concluding "not
    censored" from a fragmented probe requires knowing the censor's
    reassembly capability.)
    """

    from repro.censor import GreatFirewall
    from repro.netsim import WebServer, build_three_node
    from repro.packets import ACK, IPPacket, PSH, SYN, TCPSegment, fragment

    def keyword_over_fragments(reassemble):
        """Real TCP flow whose keyword-bearing data segment travels as
        IP fragments (the raw client suppresses kernel RSTs, nmap-style)."""
        topo = build_three_node(seed=23)
        censor = GreatFirewall()
        censor.policy.reassemble_fragments = reassemble
        topo.switch.add_tap(censor)
        web = WebServer(topo.server)
        client, server = topo.client, topo.server
        client.stack.closed_port_rst = False
        sport, client_isn = 45000, 1000
        state = {}

        def sniff(packet):
            if packet.tcp is not None and packet.tcp.is_synack:
                state["server_isn"] = packet.tcp.seq

        client.stack.add_sniffer(sniff)
        client.send_raw(IPPacket(
            src=client.ip, dst=server.ip,
            payload=TCPSegment(sport=sport, dport=80, seq=client_isn, flags=SYN),
        ))
        topo.run()

        def seg(flags, seq, data=b""):
            return IPPacket(
                src=client.ip, dst=server.ip, flags=0,
                payload=TCPSegment(sport=sport, dport=80, seq=seq,
                                   ack=state["server_isn"] + 1,
                                   flags=flags, payload=data),
            )

        client.send_raw(seg(ACK, client_isn + 1))
        topo.run()
        request = b"GET /falun-material HTTP/1.1\r\nHost: x\r\n\r\n"
        for frag in fragment(seg(PSH | ACK, client_isn + 1, request), mtu=36):
            client.send_raw(frag)
        topo.run()
        return censor, web

    def run():
        outcomes = {}
        for reassemble in (False, True):
            censor, web = keyword_over_fragments(reassemble)
            outcomes[reassemble] = (
                len(censor.events_by_mechanism("keyword")),
                len(web.request_log),
            )
        return outcomes

    outcomes = run()
    write_report("a9_fragmentation", render_table(
        ["censor reassembles fragments", "keyword detections", "requests served"],
        [[str(flag), events, served] for flag, (events, served) in outcomes.items()],
        title="A9: IP-fragmentation evasion vs. censor reassembly capability",
    ))
    assert outcomes[False] == (0, 1)   # evaded; server still got the request
    assert outcomes[True][0] == 1      # reassembling censor catches it
