"""Per-host protocol stack: TCP state machine, UDP sockets, ICMP behaviour.

Faithfulness notes, because several paper techniques rely on real stack
behaviour:

- A TCP packet to a port with no listener or connection elicits a RST
  (closed-port behaviour).  This is what makes nmap-style SYN scans
  (Method #1) meaningful, and it is exactly the "replay" complication of
  Section 4.1: a spoofed client that receives a SYN/ACK for a connection it
  never opened answers with a RST.
- A UDP datagram to a closed port elicits ICMP port-unreachable.
- ICMP echo requests are answered, so TTL estimation via ping works.
- TCP retransmits: SYNs, data, and FINs that go unacknowledged are resent
  with exponential backoff (go-back-N, single timer per connection, a
  SYN-retry cap in ``NetworkStack.syn_retries``).  On a lossy or
  reordering link the stream still delivers exactly once and in order;
  only when retries exhaust does the application see ``timeout`` — which
  is what lets measurement code distinguish "the path is lossy" from
  "something is eating my packets".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..obs.metrics import active_or_none
from ..obs.trace import active_tracer
from ..packets import (
    ACK,
    FIN,
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    ICMPMessage,
    IPPacket,
    PSH,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator
    from .node import Host

__all__ = ["NetworkStack", "TCPConnection"]

EPHEMERAL_BASE = 32768
DEFAULT_CONNECT_TIMEOUT = 3.0

#: Retransmission defaults (simulated seconds).  RTTs in the reference
#: topologies are single-digit milliseconds, so a conservative fixed RTO
#: converges fast without per-connection RTT estimation.
DEFAULT_RTO_INITIAL = 0.5
DEFAULT_RTO_MAX = 4.0
DEFAULT_MAX_RETRANSMITS = 6
DEFAULT_SYN_RETRIES = 4

# TCP connection states (simplified RFC 793 machine; retransmission with
# go-back-N recovery covers loss and reordering introduced by impairments).
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"
RESET = "RESET"

EventHandler = Callable[[str, bytes], None]


def _detached(event: str, data: bytes) -> None:
    """The handler of a finished connection: its application's handler
    usually closes over the connection, so holding it would keep that
    pair in a reference cycle."""


class _UnackedSegment:
    """One retransmittable segment awaiting acknowledgement."""

    __slots__ = ("seq", "seq_end", "flags", "payload")

    def __init__(self, seq: int, seq_end: int, flags: int, payload: bytes) -> None:
        self.seq = seq
        self.seq_end = seq_end
        self.flags = flags
        self.payload = payload


class TCPConnection:
    """One endpoint of a simulated TCP connection.

    The application receives events through ``handler(event, data)``:
    ``connected``, ``data``, ``fin``, ``closed``, ``reset``, ``timeout``,
    ``icmp_error``.
    """

    def __init__(
        self,
        stack: "NetworkStack",
        local_port: int,
        remote_ip: str,
        remote_port: int,
        handler: EventHandler,
        ttl: int = 64,
    ) -> None:
        self.stack = stack
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.handler = handler
        self.ttl = ttl
        self.state = CLOSED
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self._pending_sends: List[bytes] = []
        self._connect_timer = None
        self.bytes_received = 0
        self.bytes_sent = 0
        # Retransmission machinery: unacked segments, one timer, backoff.
        self._unacked: List[_UnackedSegment] = []
        self._rtx_timer = None
        self._rtx_deadline = 0.0
        self._rto = stack.rto_initial
        self._rtx_count = 0
        self.retransmissions = 0
        #: Gate for the whole retransmission machinery; disabling it
        #: models a legacy stack where every loss surfaces as a timeout.
        self.retransmit_enabled = True
        #: Open trace span covering this flow (None when tracing is off).
        self._span = None

    def _begin_span(self, role: str) -> None:
        trace = self.stack._trace
        if trace is not None:
            self._span = trace.begin(
                f"{self.stack.host.name}:{self.local_port}"
                f"->{self.remote_ip}:{self.remote_port}",
                "tcp",
                track="tcp",
                role=role,
                host=self.stack.host.name,
            )

    # -- public API -----------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Send application data (buffered until the handshake completes)."""
        if self.state == ESTABLISHED:
            self._send_segment(PSH | ACK, payload=data)
            self.snd_nxt += len(data)
            self.bytes_sent += len(data)
        elif self.state in (SYN_SENT, SYN_RCVD):
            self._pending_sends.append(data)
        else:
            raise RuntimeError(f"cannot send in state {self.state}")

    def close(self) -> None:
        """Orderly close (FIN)."""
        if self.state == ESTABLISHED:
            self._send_segment(FIN | ACK)
            self.snd_nxt += 1
            self.state = FIN_WAIT
        elif self.state == CLOSE_WAIT:
            self._send_segment(FIN | ACK)
            self.snd_nxt += 1
            self.state = LAST_ACK
        elif self.state in (SYN_SENT, SYN_RCVD):
            self.abort()

    def abort(self) -> None:
        """Abortive close (RST)."""
        if self.state not in (CLOSED, RESET):
            self._send_segment(RST | ACK)
            self._finish(CLOSED, notify=None)

    # -- internals --------------------------------------------------------------

    def _send_segment(
        self,
        flags: int,
        payload: bytes = b"",
        seq: Optional[int] = None,
        register: bool = True,
    ) -> None:
        seq = self.snd_nxt if seq is None else seq
        segment = TCPSegment(
            sport=self.local_port,
            dport=self.remote_port,
            seq=seq,
            ack=self.rcv_nxt,
            flags=flags,
            payload=payload,
        )
        packet = IPPacket(
            src=self.stack.host.ip, dst=self.remote_ip, payload=segment, ttl=self.ttl
        )
        self.stack.host.send_ip(packet)
        # Anything that consumes sequence space (SYN, FIN, data) must be
        # retransmitted until acknowledged; pure ACKs and RSTs are not.
        seq_span = len(payload) + (1 if flags & (SYN | FIN) else 0)
        if register and seq_span and self.retransmit_enabled:
            self._unacked.append(
                _UnackedSegment(seq, seq + seq_span, flags, payload)
            )
            self._arm_rtx()

    def _start_connect(self, timeout: float) -> None:
        self._begin_span("client")
        self.snd_nxt = self.stack.sim.rng.randrange(1, 2**31)
        self.state = SYN_SENT
        self._send_segment(SYN)
        self.snd_nxt += 1
        self._connect_timer = self.stack.sim.at(timeout, self._connect_timed_out)

    def _connect_timed_out(self) -> None:
        if self.state in (SYN_SENT, SYN_RCVD):
            self._finish(CLOSED, notify="timeout")

    def _cancel_connect_timer(self) -> None:
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None

    # -- retransmission -------------------------------------------------------

    def _arm_rtx(self) -> None:
        """Ensure the (single) retransmission timer is running."""
        self._rtx_deadline = self.stack.sim.now + self._rto
        if self._rtx_timer is None:
            self._rtx_timer = self.stack.sim.at(self._rto, self._on_rtx_timer)

    def _on_rtx_timer(self) -> None:
        self._rtx_timer = None
        if not self._unacked:
            return
        now = self.stack.sim.now
        if now < self._rtx_deadline - 1e-12:
            # An ACK pushed the deadline forward since the timer was set.
            self._rtx_timer = self.stack.sim.at(
                self._rtx_deadline - now, self._on_rtx_timer
            )
            return
        limit = (
            self.stack.syn_retries
            if self.state in (SYN_SENT, SYN_RCVD)
            else self.stack.max_retransmits
        )
        if self._rtx_count >= limit:
            self.stack.retransmit_exhausted += 1
            if self.stack._obs is not None:
                kind = "syn" if self.state in (SYN_SENT, SYN_RCVD) else "data"
                self.stack._m_exhausted.inc((self.stack.host.name, kind))
            self._finish(CLOSED, notify="timeout")
            return
        self._rtx_count += 1
        resent = 0
        for entry in list(self._unacked):
            # Go-back-N: resend everything outstanding, oldest first.
            self.retransmissions += 1
            self.stack.retransmitted_segments += 1
            resent += 1
            self._send_segment(
                entry.flags, entry.payload, seq=entry.seq, register=False
            )
        if self.stack._obs is not None:
            self.stack._m_rtx.inc((self.stack.host.name,), resent)
            self.stack._m_backoff.inc((self.stack.host.name,))
        self._rto = min(self._rto * 2.0, self.stack.rto_max)
        self._rtx_deadline = now + self._rto
        self._rtx_timer = self.stack.sim.at(self._rto, self._on_rtx_timer)

    def _process_ack(self, ack: int) -> None:
        """Retire acknowledged segments; reset backoff on forward progress."""
        if not self._unacked:
            return
        remaining = [entry for entry in self._unacked if entry.seq_end > ack]
        if len(remaining) != len(self._unacked):
            self._unacked = remaining
            self._rtx_count = 0
            self._rto = self.stack.rto_initial
            if remaining:
                self._rtx_deadline = self.stack.sim.now + self._rto
            # An empty queue leaves the timer to expire as a no-op.

    def _finish(self, state: str, notify: Optional[str]) -> None:
        self._cancel_connect_timer()
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None
        self._unacked.clear()
        self.state = state
        if self._span is not None:
            self._span.end(
                state=state,
                outcome=notify or "aborted",
                retransmissions=self.retransmissions,
                bytes_sent=self.bytes_sent,
                bytes_received=self.bytes_received,
            )
            self._span = None
        self.stack._forget(self)
        handler, self.handler = self.handler, _detached
        if notify is not None:
            handler(notify, b"")

    def _flush_pending(self) -> None:
        pending, self._pending_sends = self._pending_sends, []
        for data in pending:
            self.send(data)

    def on_segment(self, packet: IPPacket, segment: TCPSegment) -> None:
        """Advance the state machine on an arriving segment.

        Arrival order is no longer guaranteed: impaired links delay,
        duplicate, and reorder.  Cumulative-ACK processing plus the
        duplicate checks below keep the machine correct regardless.
        """
        if segment.is_rst:
            if self.state not in (CLOSED, RESET):
                self._finish(RESET, notify="reset")
            return
        if segment.has(ACK):
            self._process_ack(segment.ack)

        if self.state == SYN_SENT:
            if segment.is_synack:
                self.rcv_nxt = segment.seq + 1
                self._cancel_connect_timer()
                self.state = ESTABLISHED
                self._send_segment(ACK)
                self.handler("connected", b"")
                self._flush_pending()
            return

        if self.state == SYN_RCVD:
            if segment.is_syn and not segment.has(ACK):
                # Retransmitted SYN: our SYN/ACK was lost on the way back.
                # Passive opens answer on demand instead of running a timer,
                # so a half-open connection (raw-socket client, spoofed
                # handshake) can sit indefinitely — as before impairments.
                self._send_segment(SYN | ACK, seq=self.snd_nxt - 1, register=False)
                return
            if segment.has(ACK) and not segment.has(SYN):
                self._cancel_connect_timer()
                self.state = ESTABLISHED
                self.stack._accept(self)
                self._flush_pending()
                # The ACK completing the handshake may carry data.
                if segment.payload:
                    self._receive_data(segment)
            return

        if self.state in (ESTABLISHED, FIN_WAIT, CLOSE_WAIT):
            if segment.has(SYN):
                # A retransmitted SYN/ACK means our handshake ACK was lost;
                # answering it re-synchronizes the peer.
                self._send_segment(ACK)
                return
            if segment.payload:
                self._receive_data(segment)
            if segment.is_fin and segment.seq <= self.rcv_nxt:
                already_closing = self.state == CLOSE_WAIT
                self.rcv_nxt = max(
                    self.rcv_nxt, segment.seq + len(segment.payload) + 1
                )
                self._send_segment(ACK)
                if self.state == FIN_WAIT:
                    self._finish(CLOSED, notify="closed")
                elif not already_closing:  # duplicate FINs notify once
                    self.state = CLOSE_WAIT
                    self.handler("fin", b"")
            return

        if self.state == LAST_ACK:
            if segment.has(ACK):
                self._finish(CLOSED, notify="closed")
            return

    def _receive_data(self, segment: TCPSegment) -> None:
        if segment.seq != self.rcv_nxt:
            # A duplicate (retransmission, link duplication) or a segment
            # that overtook its predecessors on a reordering link — or an
            # injected segment (e.g. a censor RST race lost).  Re-ACK with
            # the cumulative position; go-back-N recovery fills any gap.
            self._send_segment(ACK)
            return
        self.rcv_nxt += len(segment.payload)
        self.bytes_received += len(segment.payload)
        self._send_segment(ACK)
        self.handler("data", segment.payload)


class _PendingUDP:
    """Bookkeeping for an in-flight UDP request awaiting a reply."""

    __slots__ = ("on_reply", "on_timeout", "timer", "remote")

    def __init__(self, on_reply, on_timeout, timer, remote) -> None:
        self.on_reply = on_reply
        self.on_timeout = on_timeout
        self.timer = timer
        self.remote = remote


class NetworkStack:
    """The per-host stack: owns sockets, connections, and sniffers."""

    def __init__(self, host: "Host", sim: "Simulator") -> None:
        self.host = host
        self.sim = sim
        self._sniffers: List[Callable[[IPPacket], None]] = []
        self._udp_listeners: Dict[int, Callable] = {}
        self._udp_pending: Dict[int, _PendingUDP] = {}
        self._tcp_listeners: Dict[int, Callable[[TCPConnection], None]] = {}
        self._tcp_conns: Dict[Tuple[int, str, int], TCPConnection] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        #: Retransmission knobs shared by all connections on this host.
        self.rto_initial = DEFAULT_RTO_INITIAL
        self.rto_max = DEFAULT_RTO_MAX
        self.max_retransmits = DEFAULT_MAX_RETRANSMITS
        self.syn_retries = DEFAULT_SYN_RETRIES
        #: Aggregate retransmission accounting (per host).
        self.retransmitted_segments = 0
        self.retransmit_exhausted = 0
        # Observability, resolved once: hot paths check ``is not None``.
        obs = active_or_none()
        self._obs = obs
        if obs is not None:
            self._m_rtx = obs.counter(
                "tcp_retransmitted_segments_total",
                "Segments re-sent by the go-back-N machinery",
                ("host",),
            )
            self._m_backoff = obs.counter(
                "tcp_rto_backoffs_total",
                "RTO timer expiries that doubled the backoff",
                ("host",),
            )
            self._m_exhausted = obs.counter(
                "tcp_retransmit_exhausted_total",
                "Connections abandoned after the retry cap "
                "(kind: syn for handshakes, data after establishment)",
                ("host", "kind"),
            )
        tracer = active_tracer()
        self._trace = (
            tracer if tracer is not None and tracer.enabled_for("tcp") else None
        )
        self.respond_to_ping = True
        #: When False the host silently ignores unsolicited TCP (a firewalled
        #: host); default True models a normal end host.
        self.closed_port_rst = True
        #: Optional hook(local_port, remote_ip, remote_port) -> ISN for
        #: server-side connections.  A cooperative measurement server uses a
        #: keyed deterministic ISN so a client spoofing third-party sources
        #: can ACK a SYN/ACK it never sees (stateful mimicry, paper §4.1).
        self.isn_hook: Optional[Callable[[int, str, int], int]] = None
        from ..packets.fragment import FragmentReassembler

        self._fragments = FragmentReassembler()

    # -- port allocation -------------------------------------------------------

    def ephemeral_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 60999:
            self._next_ephemeral = EPHEMERAL_BASE
        return port

    # -- sniffing ----------------------------------------------------------------

    def add_sniffer(self, callback: Callable[[IPPacket], None]) -> None:
        """Observe every packet delivered to this host (libpcap-style)."""
        self._sniffers.append(callback)

    # -- UDP ------------------------------------------------------------------------

    def udp_listen(self, port: int, handler: Callable) -> None:
        """Serve UDP on ``port``; handler(payload, src_ip, src_port, reply_fn)."""
        if port in self._udp_listeners:
            raise ValueError(f"UDP port {port} already bound on {self.host.name}")
        self._udp_listeners[port] = handler

    def udp_request(
        self,
        dst: str,
        dport: int,
        payload: bytes,
        on_reply: Callable[[bytes, IPPacket], None],
        on_timeout: Optional[Callable[[], None]] = None,
        timeout: float = 2.0,
        sport: Optional[int] = None,
        ttl: int = 64,
    ) -> int:
        """Send a datagram and await the first reply to the chosen sport."""
        sport = sport if sport is not None else self.ephemeral_port()
        timer = self.sim.at(timeout, lambda: self._udp_timeout(sport))
        self._udp_pending[sport] = _PendingUDP(on_reply, on_timeout, timer, (dst, dport))
        packet = IPPacket(
            src=self.host.ip,
            dst=dst,
            payload=UDPDatagram(sport=sport, dport=dport, payload=payload),
            ttl=ttl,
        )
        self.host.send_ip(packet)
        return sport

    def udp_send(self, dst: str, dport: int, payload: bytes, sport: int = 0, ttl: int = 64) -> None:
        """Fire-and-forget datagram."""
        packet = IPPacket(
            src=self.host.ip,
            dst=dst,
            payload=UDPDatagram(sport=sport or self.ephemeral_port(), dport=dport, payload=payload),
            ttl=ttl,
        )
        self.host.send_ip(packet)

    def _udp_timeout(self, sport: int) -> None:
        pending = self._udp_pending.pop(sport, None)
        if pending is not None and pending.on_timeout is not None:
            pending.on_timeout()

    # -- TCP ---------------------------------------------------------------------------

    def tcp_listen(
        self,
        port: int,
        acceptor: Callable[[TCPConnection], None],
        reply_ttl: Optional[int] = None,
    ) -> None:
        """Accept connections on ``port``.

        ``acceptor(conn)`` fires when the handshake completes and must assign
        ``conn.handler`` to receive subsequent events.  ``reply_ttl`` limits
        the TTL of everything the server sends on such connections —
        including the SYN/ACK — which is how the stateful-mimicry measurement
        server makes its replies die inside the client AS (paper Figure 3b).
        """
        if port in self._tcp_listeners:
            raise ValueError(f"TCP port {port} already bound on {self.host.name}")
        self._tcp_listeners[port] = (acceptor, reply_ttl)

    def tcp_connect(
        self,
        dst: str,
        dport: int,
        handler: EventHandler,
        timeout: float = DEFAULT_CONNECT_TIMEOUT,
        sport: Optional[int] = None,
        ttl: int = 64,
        retransmit: bool = True,
    ) -> TCPConnection:
        """Open a connection; events arrive via ``handler``.

        ``retransmit=False`` disables the retransmission machinery for
        this connection, restoring the one-loss-equals-one-timeout
        behaviour lossy-path experiments rely on.
        """
        sport = sport if sport is not None else self.ephemeral_port()
        conn = TCPConnection(self, sport, dst, dport, handler, ttl=ttl)
        conn.retransmit_enabled = retransmit
        self._tcp_conns[(sport, dst, dport)] = conn
        conn._start_connect(timeout)
        return conn

    def _accept(self, conn: TCPConnection) -> None:
        entry = self._tcp_listeners.get(conn.local_port)
        if entry is not None:
            acceptor, _reply_ttl = entry
            acceptor(conn)

    def teardown(self) -> None:
        """Drop a finished world's open connections: each one and its
        application's handler point at one another (see ``_detached``)."""
        for conn in self._tcp_conns.values():
            conn.handler = _detached
        self._tcp_conns.clear()

    def _forget(self, conn: TCPConnection) -> None:
        self._tcp_conns.pop((conn.local_port, conn.remote_ip, conn.remote_port), None)

    # -- dispatch ---------------------------------------------------------------------

    def handle(self, packet: IPPacket) -> None:
        """Entry point for every packet delivered to this host."""
        if self._sniffers:
            for sniffer in list(self._sniffers):
                sniffer(packet)
        if packet.dst != self.host.ip:
            return  # promiscuously sniffed but not ours
        if packet.frag_offset > 0 or packet.flags & 0x1:
            rebuilt = self._fragments.feed(packet, self.sim.now)
            if rebuilt is None:
                return  # waiting for the rest of the group
            packet = rebuilt
        if packet.tcp is not None:
            self._handle_tcp(packet, packet.tcp)
        elif packet.udp is not None:
            self._handle_udp(packet, packet.udp)
        elif packet.icmp is not None:
            self._handle_icmp(packet, packet.icmp)

    def _handle_tcp(self, packet: IPPacket, segment: TCPSegment) -> None:
        key = (segment.dport, packet.src, segment.sport)
        conn = self._tcp_conns.get(key)
        if conn is not None:
            conn.on_segment(packet, segment)
            return
        if segment.is_syn and segment.dport in self._tcp_listeners:
            _acceptor, reply_ttl = self._tcp_listeners[segment.dport]
            server_conn = TCPConnection(
                self,
                segment.dport,
                packet.src,
                segment.sport,
                handler=lambda event, data: None,  # replaced by acceptor
                ttl=reply_ttl if reply_ttl is not None else 64,
            )
            server_conn.state = SYN_RCVD
            server_conn._begin_span("server")
            server_conn.rcv_nxt = segment.seq + 1
            if self.isn_hook is not None:
                server_conn.snd_nxt = self.isn_hook(
                    segment.dport, packet.src, segment.sport
                )
            else:
                server_conn.snd_nxt = self.sim.rng.randrange(1, 2**31)
            self._tcp_conns[key] = server_conn
            # register=False: passive opens re-send the SYN/ACK when the
            # client retransmits its SYN (see SYN_RCVD in on_segment) rather
            # than on a timer, so half-open connections stay half-open.
            server_conn._send_segment(SYN | ACK, register=False)
            server_conn.snd_nxt += 1
            return
        if segment.is_rst:
            return  # never respond to a RST with a RST
        self._send_closed_port_rst(packet, segment)

    def _send_closed_port_rst(self, packet: IPPacket, segment: TCPSegment) -> None:
        """RFC 793 closed-port behaviour (also: spoofed-client replay RSTs)."""
        if not self.closed_port_rst:
            return
        if segment.has(ACK):
            reply = TCPSegment(
                sport=segment.dport,
                dport=segment.sport,
                seq=segment.ack,
                flags=RST,
            )
        else:
            reply = TCPSegment(
                sport=segment.dport,
                dport=segment.sport,
                seq=0,
                ack=segment.seq + len(segment.payload) + (1 if segment.is_syn else 0),
                flags=RST | ACK,
            )
        self.host.send_ip(IPPacket(src=self.host.ip, dst=packet.src, payload=reply))

    def _handle_udp(self, packet: IPPacket, datagram: UDPDatagram) -> None:
        listener = self._udp_listeners.get(datagram.dport)
        if listener is not None:
            def reply_fn(payload: bytes, ttl: int = 64) -> None:
                response = IPPacket(
                    src=self.host.ip,
                    dst=packet.src,
                    payload=UDPDatagram(
                        sport=datagram.dport, dport=datagram.sport, payload=payload
                    ),
                    ttl=ttl,
                )
                self.host.send_ip(response)

            listener(datagram.payload, packet.src, datagram.sport, reply_fn)
            return
        pending = self._udp_pending.pop(datagram.dport, None)
        if pending is not None:
            pending.timer.cancel()
            pending.on_reply(datagram.payload, packet)
            return
        # Closed UDP port: ICMP port unreachable (code 3).
        self.host.send_ip(self.host.icmp_unreachable(packet, code=3))

    def _handle_icmp(self, packet: IPPacket, message: ICMPMessage) -> None:
        if message.icmp_type == ICMP_ECHO_REQUEST and self.respond_to_ping:
            reply = IPPacket(
                src=self.host.ip, dst=packet.src, payload=ICMPMessage.echo_reply(message)
            )
            self.host.send_ip(reply)
            return
        if message.icmp_type in (ICMP_DEST_UNREACH, ICMP_TIME_EXCEEDED):
            self._dispatch_icmp_error(message)

    def _dispatch_icmp_error(self, message: ICMPMessage) -> None:
        """Route an ICMP error to the connection/query it quotes.

        The quote is only the IP header plus 8 transport bytes (RFC 792),
        so ports are extracted by hand rather than via full packet parsing.
        """
        import struct

        from ..packets import PROTO_TCP, PROTO_UDP
        from ..packets.addressing import int_to_ip

        quote = message.payload
        if len(quote) < 28:
            return
        protocol = quote[9]
        dst = int_to_ip(struct.unpack("!I", quote[16:20])[0])
        ihl = (quote[0] & 0xF) * 4
        sport, dport = struct.unpack("!HH", quote[ihl : ihl + 4])
        if protocol == PROTO_UDP:
            pending = self._udp_pending.pop(sport, None)
            if pending is not None:
                pending.timer.cancel()
                if pending.on_timeout is not None:
                    pending.on_timeout()
        elif protocol == PROTO_TCP:
            conn = self._tcp_conns.get((sport, dst, dport))
            if conn is not None:
                conn.handler("icmp_error", message.to_bytes())
