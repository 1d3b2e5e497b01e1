"""E8 — the ethics-section load comparison (paper §6).

"If we conducted a single DNS measurement from every IP in an ASN's /16,
we would send roughly 65k queries" — compared against the accepted practice
of open-resolver measurement (Schomp et al.: 32 M open forwarders, 60-70 k
open recursives).  We reproduce the arithmetic and additionally replay a
scaled-down spoofed sweep in the simulator to measure the true per-server
load.
"""

from common import write_report

from repro.analysis import load_comparison, render_table, spoofed_query_load
from repro.core.evaluation import build_environment
from repro.packets import DNSMessage, IPPacket, UDPDatagram


def run_arithmetic():
    return {
        "/16 sweep": load_comparison(prefix_length=16),
        "/24 sweep": load_comparison(prefix_length=24),
    }


def run_simulated_sweep(seed: int = 7, prefix: int = 24):
    """Replay a /24-scale spoofed sweep and count resolver load."""
    env = build_environment(censored=False, seed=seed, population_size=4)
    client = env.topo.measurement_client
    base = client.ip.rsplit(".", 1)[0]
    count = spoofed_query_load(prefix)
    for index in range(count):
        query = DNSMessage.query("example.org", txid=index % 65536)
        packet = IPPacket(
            src=f"{base}.{index % 254 + 1}",
            dst=env.topo.dns_server.ip,
            payload=UDPDatagram(sport=30000 + index % 20000, dport=53,
                                payload=query.to_bytes()),
        )
        client.send_raw(packet)
    env.run(duration=30.0)
    return count, env.servers["dns"].queries_served


def test_e8_load_arithmetic():
    comparisons = run_arithmetic()

    rows = []
    for name, cmp in comparisons.items():
        rows.append([
            name,
            cmp.spoofed_queries,
            cmp.open_forwarders,
            cmp.queries_per_forwarder_equivalent,
            cmp.fraction_of_recursive_population,
        ])
    report = render_table(
        ["scenario", "queries", "open forwarders (Schomp)",
         "queries per forwarder", "vs recursive population"],
        rows,
        title="E8: spoofed-measurement load vs. open-resolver practice",
    )
    write_report("e8_ethics_load", report)

    full = comparisons["/16 sweep"]
    assert full.spoofed_queries == 65_536  # the paper's "roughly 65k"
    # The imposed load is small next to accepted measurement practice.
    assert full.queries_per_forwarder_equivalent < 0.01


def test_e8_simulated_sweep_load():
    count, served = run_simulated_sweep()
    # Every spoofed query lands on the resolver exactly once: the load is
    # bounded and predictable (one query per address, as the paper states).
    assert count == 256
    assert served == count
