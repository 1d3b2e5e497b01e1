"""The network: nodes, links, routing, and hop-by-hop packet forwarding.

Routing uses shortest-path next-hop tables computed once after topology
construction.  Forwarding applies, at every transit node: SAV (routers),
TTL decrement with ICMP time-exceeded (routers), then each attached tap in
order — the same pipeline a packet crosses on the paper's OVS switch with
its censor and MVR Snort instances.

Next-hop tables depend only on the topology's shape, so they are computed
once per process per shape and shared read-only by every network of that
shape (see :func:`_routes_for`).

Each node's hop cache (``_hops``) is filled lazily from the next-hop
tables and dropped on every rebuild; a packet's wire size is computed at
its first hop and carried along, except past taps, which may rewrite it
(docs/ARCHITECTURE.md, "Forwarding fast path").
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..packets import IPPacket
from .engine import Simulator
from .impairment import ImpairmentModel, mix_seed
from .link import Link
from .middlebox import Action, TapContext
from .node import Host, Node
from .stack import NetworkStack

__all__ = ["Network"]


def _ip_to_int(ip: str) -> int:
    """Dotted-quad IPv4 → 32-bit integer (raises ValueError on junk)."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {ip!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"not an IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


#: Bound on the process-wide route cache, in (source, destination) table
#: cells; a topology of ``n`` nodes takes ``n * n``.  A topology bigger
#: than the whole budget is routed afresh every time, never cached.
ROUTE_CACHE_CELLS = 1 << 16

#: topology shape -> (next-hop tables, cells); least recently used first
_ROUTE_CACHE: "OrderedDict[tuple, Tuple[Dict[str, Dict[str, str]], int]]" = OrderedDict()


def _routes_for(shape: tuple, build) -> Dict[str, Dict[str, str]]:
    """The next-hop tables of topology ``shape``, from the process cache
    or from ``build()``.  The tables are shared: nobody may write to them."""
    entry = _ROUTE_CACHE.get(shape)
    if entry is not None:
        _ROUTE_CACHE.move_to_end(shape)
        return entry[0]
    tables = build()
    cells = len(shape[0]) ** 2
    if cells <= ROUTE_CACHE_CELLS:
        _ROUTE_CACHE[shape] = (tables, cells)
        while sum(size for _, size in _ROUTE_CACHE.values()) > ROUTE_CACHE_CELLS:
            _ROUTE_CACHE.popitem(last=False)
    return tables


def clear_route_cache() -> int:
    """Drop every cached route table; returns how many were cached."""
    count = len(_ROUTE_CACHE)
    _ROUTE_CACHE.clear()
    return count


class Network:
    """A simulated internetwork bound to a :class:`Simulator`."""

    def __init__(self, sim: Simulator, default_latency: float = 0.001) -> None:
        self.sim = sim
        self.default_latency = default_latency
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self._adjacency: Dict[str, List[Link]] = {}
        self._ip_owner: Dict[str, Host] = {}
        self._next_hop: Dict[str, Dict[str, str]] = {}
        self._routes_dirty = True
        self.dropped_no_route = 0
        #: Prefix routes: (mask, network, prefix_len, gateway host), kept
        #: longest-prefix-first.  Lets population traffic address millions
        #: of synthetic users without a Host object per user — anything in
        #: the prefix is delivered to (or materialized from) the gateway.
        self._prefix_routes: List[Tuple[int, int, int, Host]] = []
        self._prefix_cache: Dict[str, Optional[Host]] = {}
        #: (src_name, dst_name) -> does the routed path cross any tap?
        #: The fidelity boundary for population traffic; invalidated on
        #: route rebuilds and tap attachment.
        self._tap_path_cache: Dict[Tuple[str, str], bool] = {}

    def teardown(self) -> None:
        """Break a finished simulation's reference cycles.

        Nodes, links, protocol stacks, taps and pending events all point
        back at one another, so a finished world is cyclic garbage that
        only a full collector pass frees.  After this call refcounting
        frees it as soon as its last outside holder lets go.  The network,
        its nodes and its simulator cannot be used afterwards.
        """
        self.sim.teardown()
        for node in self.nodes.values():
            node.network = None
            node.taps = []
            node._hops = {}
            if node.is_host and node.stack is not None:
                node.stack.teardown()
                node.stack = None
        self.nodes.clear()
        self.links.clear()
        self._adjacency.clear()
        self._ip_owner.clear()
        # Rebind, never clear(): the tables are shared with every network
        # of the same shape through the route cache.
        self._next_hop = {}
        self._prefix_routes.clear()
        self._prefix_cache.clear()
        self._tap_path_cache.clear()

    # -- topology construction ----------------------------------------------

    def add(self, node: Node) -> Node:
        """Attach a node; hosts get a protocol stack bound to the simulator."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        node.network = self
        self.nodes[node.name] = node
        self._adjacency[node.name] = []
        if isinstance(node, Host):
            if node.ip in self._ip_owner:
                raise ValueError(f"duplicate host IP: {node.ip}")
            self._ip_owner[node.ip] = node
            node.stack = NetworkStack(node, self.sim)
        self._routes_dirty = True
        return node

    def connect(
        self, a: Node, b: Node, latency: Optional[float] = None, loss: float = 0.0
    ) -> Link:
        """Create a bidirectional link between two attached nodes."""
        for node in (a, b):
            if node.name not in self.nodes:
                raise ValueError(f"{node.name} is not attached to this network")
        link = Link(
            a,
            b,
            latency if latency is not None else self.default_latency,
            loss=loss,
            # Each link gets its own RNG stream derived from the simulation
            # seed and its ordinal, so impairments are deterministic without
            # consuming (and thereby perturbing) the simulator's shared rng.
            seed=mix_seed(self.sim.seed, len(self.links)),
        )
        self.links.append(link)
        self._adjacency[a.name].append(link)
        self._adjacency[b.name].append(link)
        self._routes_dirty = True
        return link

    def impair_all_links(
        self, models: Sequence[ImpairmentModel], direction: str = "both"
    ) -> None:
        """Install an impairment profile on every link (cloned per direction).

        The blunt instrument for "make the whole network hostile" — e.g.
        running the full evaluation scenario under 5% burst loss.
        """
        for link in self.links:
            link.impair(models, direction=direction)

    def host(self, name: str) -> Host:
        """Look up a host by name (raises KeyError with a clear message)."""
        node = self.nodes.get(name)
        if not isinstance(node, Host):
            raise KeyError(f"no host named {name!r}")
        return node

    def add_prefix_route(self, cidr: str, gateway: Host) -> None:
        """Deliver every address inside ``cidr`` to ``gateway``.

        Exact host IPs always win over prefixes, and longer prefixes win
        over shorter ones.  Registration order breaks prefix-length ties
        deterministically (first registered wins).
        """
        network, sep, length = cidr.partition("/")
        if not sep:
            raise ValueError(f"prefix route needs CIDR notation, got {cidr!r}")
        prefix_len = int(length)
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {cidr!r}")
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0
        net_int = _ip_to_int(network)
        if net_int & ~mask & 0xFFFFFFFF:
            raise ValueError(f"host bits set in prefix route: {cidr!r}")
        if gateway.name not in self.nodes:
            raise ValueError(f"{gateway.name} is not attached to this network")
        self._prefix_routes.append((mask, net_int, prefix_len, gateway))
        self._prefix_routes.sort(key=lambda entry: -entry[2])
        self._prefix_cache.clear()

    def owner_of(self, ip: str) -> Optional[Host]:
        """The host owning ``ip`` (exact, then longest prefix), or None."""
        owner = self._ip_owner.get(ip)
        if owner is not None or not self._prefix_routes:
            return owner
        try:
            return self._prefix_cache[ip]
        except KeyError:
            pass
        resolved: Optional[Host] = None
        try:
            ip_int = _ip_to_int(ip)
        except ValueError:
            ip_int = None
        if ip_int is not None:
            for mask, net_int, _length, gateway in self._prefix_routes:
                if ip_int & mask == net_int:
                    resolved = gateway
                    break
        self._prefix_cache[ip] = resolved
        return resolved

    def _build_routes(self) -> None:
        """All-pairs next-hop tables, shared per topology shape.

        The shape is the node names in insertion order plus each link's
        endpoints in insertion order: that fixes every node's adjacency
        order, hence the BFS tie order, hence the tables.
        """
        shape = (
            tuple(self.nodes),
            tuple((link.a.name, link.b.name) for link in self.links),
        )
        self._next_hop = _routes_for(shape, self._bfs_routes)
        for node in self.nodes.values():
            node._hops = {}
        self._routes_dirty = False
        self._tap_path_cache.clear()

    def _bfs_routes(self) -> Dict[str, Dict[str, str]]:
        """All-pairs next-hop tables via BFS (uniform edge weight)."""
        next_hop: Dict[str, Dict[str, str]] = {}
        for source_name in self.nodes:
            table: Dict[str, str] = {}
            visited = {source_name}
            queue = deque([source_name])
            first_hop: Dict[str, str] = {}
            while queue:
                current = queue.popleft()
                for link in self._adjacency[current]:
                    neighbor = link.other_end(self.nodes[current]).name
                    if neighbor in visited:
                        continue
                    visited.add(neighbor)
                    first_hop[neighbor] = (
                        neighbor if current == source_name else first_hop[current]
                    )
                    table[neighbor] = first_hop[neighbor]
                    queue.append(neighbor)
            next_hop[source_name] = table
        return next_hop

    # -- path analysis (the tiered-fidelity boundary) ------------------------

    def path_nodes(self, src_name: str, dst_name: str) -> List[str]:
        """Node names along the routed path, endpoints included."""
        if self._routes_dirty:
            self._build_routes()
        path = [src_name]
        current = src_name
        while current != dst_name:
            hop = self._next_hop[current].get(dst_name)
            if hop is None:
                raise ValueError(f"no route from {src_name} to {dst_name}")
            path.append(hop)
            current = hop
        return path

    def path_crosses_tap(self, src_name: str, dst_name: str) -> bool:
        """Does the routed path cross any node carrying a tap?

        This is the fidelity decision for population traffic: flows on
        tap-free paths advance as aggregate events; flows that would be
        observed must be expanded to byte-accurate packets.  Results are
        cached per (src, dst) pair; the cache is dropped whenever routes
        are rebuilt or a tap is attached, so the answer is always current.
        """
        if self._routes_dirty:
            self._build_routes()
        key = (src_name, dst_name)
        try:
            return self._tap_path_cache[key]
        except KeyError:
            pass
        crosses = any(
            self.nodes[name].taps for name in self.path_nodes(src_name, dst_name)
        )
        self._tap_path_cache[key] = crosses
        return crosses

    def _invalidate_tap_paths(self) -> None:
        """Called by ``Node.add_tap``: tap placement changed underneath us."""
        self._tap_path_cache.clear()

    # -- forwarding ----------------------------------------------------------

    def originate(self, packet: IPPacket, at: Node, delay: float = 0.0) -> None:
        """Introduce a packet into the network at ``at``.

        Used both by hosts sending traffic and by taps injecting packets
        mid-path (censor RSTs, poisoned DNS answers).
        """
        if self._routes_dirty:
            self._build_routes()
        self.sim.at_uncancellable(delay, lambda: self._forward_from(packet, at))

    def _forward_from(
        self, packet: IPPacket, node: Node, size: Optional[int] = None
    ) -> None:
        """Send ``packet`` one hop from ``node`` toward its destination.

        ``size`` is the packet's wire length when the caller already knows
        it (carried from the previous hop); ``None`` recomputes it.
        """
        if self._routes_dirty:
            # A connect()/add() since this packet was sent: forward it
            # over the rebuilt tables, never through a stale hop.
            self._build_routes()
        owner = self._ip_owner.get(packet.dst) or self.owner_of(packet.dst)
        if owner is None:
            self.dropped_no_route += 1
            return
        if owner is node:
            owner.deliver(packet)
            return
        hop = node._hops.get(owner.name)
        if hop is None:
            hop = self._resolve_hop(node, owner.name)
            if hop is None:
                self.dropped_no_route += 1
                return
        link, direction, next_node = hop
        if size is None:
            size = packet.wire_length()
        # Called through the class attribute at call time (never a bound
        # method cached in the hop), so wrappers installed on
        # ``Link.transmit`` see every hop.
        delays = link.transmit(size, self.sim.now, direction).delays
        if not delays:
            return
        latency = link.latency
        # Hop events are fire-and-forget (nothing ever cancels an in-flight
        # packet), so the uncancellable fast path skips Timer allocation.
        self.sim.at_uncancellable(
            latency + delays[0], lambda: self._arrive(packet, next_node, size)
        )
        for extra in delays[1:]:
            # Duplicate copies get their own packet object: downstream
            # routers mutate TTL in place, so copies must not share state.
            duplicate = packet.copy()
            duplicate.metadata.update(packet.metadata)
            self.sim.at_uncancellable(
                latency + extra,
                lambda p=duplicate: self._arrive(p, next_node, size),
            )

    def _resolve_hop(
        self, node: Node, owner_name: str
    ) -> Optional[Tuple[Link, str, Node]]:
        """Fill ``node``'s hop-cache entry toward ``owner_name`` (None: no route)."""
        hop_name = self._next_hop[node.name].get(owner_name)
        if hop_name is None:
            return None
        link = self._find_link(node.name, hop_name)
        hop = (link, link.direction_from(node), self.nodes[hop_name])
        node._hops[owner_name] = hop
        return hop

    def _find_link(self, a_name: str, b_name: str) -> Link:
        for link in self._adjacency[a_name]:
            if link.other_end(self.nodes[a_name]).name == b_name:
                return link
        raise RuntimeError(f"no link between {a_name} and {b_name}")

    def _arrive(self, packet: IPPacket, node: Node, size: Optional[int] = None) -> None:
        """Process a packet arriving at ``node`` and keep forwarding it."""
        node.packets_seen += 1
        if node.is_host:
            node.deliver(packet)
            return

        # Routers: source-address validation, then TTL handling.
        if node.decrements_ttl:
            if not node.sav_permits(packet):  # type: ignore[attr-defined]
                node.sav_drops += 1  # type: ignore[attr-defined]
                node.packets_dropped += 1
                return
            packet.ttl -= 1
            if packet.ttl <= 0:
                node.ttl_drops += 1  # type: ignore[attr-defined]
                node.packets_dropped += 1
                if getattr(node, "send_time_exceeded", False):
                    self._emit_time_exceeded(packet, node)
                return

        # Taps, in attachment order (censor before/after MVR is topology
        # configuration, matching the paper's two Snort instances).
        taps = node.taps
        if taps:
            ctx = TapContext(self, node, self.sim.now)
            for tap in taps:
                if (
                    packet.metadata.get("injected_by") == getattr(tap, "name", None)
                    and not tap.sees_own_injections()
                ):
                    continue
                action = tap.process(packet, ctx)
                if action is Action.DROP:
                    node.packets_dropped += 1
                    return
            size = None  # a tap may have rewritten the packet

        self._forward_from(packet, node, size)

    def _emit_time_exceeded(self, packet: IPPacket, node: Node) -> None:
        from ..packets import ICMPMessage

        # Routers have no address of their own in this model; the error is
        # attributed to the router by name in metadata for diagnostics.
        reply = IPPacket(
            src=packet.dst,  # stand-in: model lacks router interface IPs
            dst=packet.src,
            payload=ICMPMessage.time_exceeded(packet.to_bytes()),
        )
        reply.metadata["time_exceeded_at"] = node.name
        reply.metadata["injected_by"] = f"router:{node.name}"
        self.originate(reply, node)

    # -- introspection --------------------------------------------------------

    def total_bytes_carried(self) -> int:
        return sum(link.bytes_carried for link in self.links)

    def total_packets_carried(self) -> int:
        return sum(link.packets_carried for link in self.links)
