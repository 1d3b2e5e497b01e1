"""DNS zone data, authoritative server, and client resolver helpers.

The spam measurement (paper Method #2) performs an MX lookup and then an A
lookup of the exchange; the GFC censor injects forged A answers for both A
and MX queries of blocked names (validated in the paper against
twitter.com / youtube.com from a PlanetLab node in China).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..packets import (
    DNSMessage,
    DNSRecord,
    QTYPE_A,
    QTYPE_CNAME,
    QTYPE_MX,
    RCODE_NXDOMAIN,
    RCODE_OK,
)
from .node import Host

__all__ = ["Zone", "DNSServer", "DNSResult", "resolve"]

DNS_PORT = 53


class Zone:
    """An in-memory zone: (name, qtype) -> records."""

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, int], List[DNSRecord]] = {}
        #: every name with a record at any type (``knows`` runs on each
        #: query that misses, so it must not scan the records)
        self._names: Set[str] = set()

    @staticmethod
    def _key(name: str, qtype: int) -> Tuple[str, int]:
        return name.rstrip(".").lower(), qtype

    def add(self, record: DNSRecord) -> "Zone":
        key = self._key(record.name, record.rtype)
        self._records.setdefault(key, []).append(record)
        self._names.add(key[0])
        return self

    def add_a(self, name: str, address: str, ttl: int = 300) -> "Zone":
        return self.add(DNSRecord(name=name, rtype=QTYPE_A, data=address, ttl=ttl))

    def add_mx(self, name: str, exchange: str, preference: int = 10, ttl: int = 300) -> "Zone":
        return self.add(
            DNSRecord(name=name, rtype=QTYPE_MX, data=(preference, exchange), ttl=ttl)
        )

    def add_cname(self, name: str, target: str, ttl: int = 300) -> "Zone":
        return self.add(DNSRecord(name=name, rtype=QTYPE_CNAME, data=target, ttl=ttl))

    def lookup(self, name: str, qtype: int) -> List[DNSRecord]:
        """Records for the query, following one level of CNAME for A queries."""
        direct = self._records.get(self._key(name, qtype), [])
        if direct or qtype == QTYPE_CNAME:
            return list(direct)
        cname = self._records.get(self._key(name, QTYPE_CNAME), [])
        if cname:
            target = str(cname[0].data)
            return list(cname) + self._records.get(self._key(target, qtype), [])
        return []

    def knows(self, name: str) -> bool:
        """Whether any record exists for ``name`` at any type."""
        return name.rstrip(".").lower() in self._names

    def names(self) -> List[str]:
        return sorted(self._names)


class DNSServer:
    """An authoritative (or resolver-like) DNS server over simulated UDP."""

    def __init__(self, host: Host, zone: Optional[Zone] = None) -> None:
        self.host = host
        self.zone = zone if zone is not None else Zone()
        self.queries_served = 0
        assert host.stack is not None, "host must be attached to a network"
        host.stack.udp_listen(DNS_PORT, self._on_query)

    def _on_query(self, payload: bytes, src_ip: str, src_port: int, reply_fn) -> None:
        try:
            query = DNSMessage.from_bytes(payload)
        except (ValueError, IndexError):
            return
        question = query.question
        if question is None or query.is_response:
            return
        self.queries_served += 1
        answers = self.zone.lookup(question.name, question.qtype)
        if answers:
            response = query.reply(answers=answers, rcode=RCODE_OK)
        elif self.zone.knows(question.name):
            response = query.reply(answers=[], rcode=RCODE_OK)  # NODATA
        else:
            response = query.reply(answers=[], rcode=RCODE_NXDOMAIN)
        reply_fn(response.to_bytes())


@dataclass
class DNSResult:
    """Outcome of one client resolution."""

    status: str  # "ok" | "nxdomain" | "nodata" | "servfail" | "timeout" | "error"
    name: str
    qtype: int
    message: Optional[DNSMessage] = None
    addresses: List[str] = field(default_factory=list)
    mx: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def resolve(
    client: Host,
    server_ip: str,
    name: str,
    qtype: int = QTYPE_A,
    callback: Optional[Callable[[DNSResult], None]] = None,
    timeout: float = 2.0,
    retries: int = 2,
) -> None:
    """Issue a query from ``client`` and deliver a :class:`DNSResult`.

    The first response matching the transaction wins — which is precisely
    the race an off-path DNS injector (the GFC model) exploits.

    Like any real stub resolver, a query that draws no response is
    retransmitted (same transaction id, fresh source port) up to
    ``retries`` times before the lookup reports ``timeout``; the
    ``timeout`` budget covers the whole lookup, split evenly across the
    tries, so the worst-case latency is unchanged by retries.  Without
    this, one lost datagram on an impaired path would count as a full
    lookup failure — UDP has no transport-layer recovery to lean on.
    """
    assert client.stack is not None
    txid = client.stack.sim.rng.randrange(0, 0x10000)
    query = DNSMessage.query(name, qtype=qtype, txid=txid)
    wire = query.to_bytes()
    tries_total = max(1, retries + 1)
    _Lookup(client, server_ip, name, qtype, callback, txid, wire,
            timeout / tries_total, tries_total).send_try()


class _Lookup:
    """One stub-resolver lookup in flight.  Its bound methods are the UDP
    callbacks and nothing it holds refers back to it, so a finished or
    abandoned lookup is freed by refcounting instead of keeping its
    client's world in a reference cycle."""

    __slots__ = ("client", "server_ip", "name", "qtype", "callback", "txid",
                 "wire", "try_timeout", "tries_left", "answered")

    def __init__(self, client, server_ip, name, qtype, callback, txid, wire,
                 try_timeout, tries_left) -> None:
        self.client = client
        self.server_ip = server_ip
        self.name = name
        self.qtype = qtype
        self.callback = callback
        self.txid = txid
        self.wire = wire
        self.try_timeout = try_timeout
        self.tries_left = tries_left
        self.answered = False

    def send_try(self) -> None:
        self.tries_left -= 1
        self.client.stack.udp_request(
            dst=self.server_ip,
            dport=DNS_PORT,
            payload=self.wire,
            on_reply=self.on_reply,
            on_timeout=self.on_timeout,
            timeout=self.try_timeout,
        )

    def on_reply(self, payload: bytes, _packet) -> None:
        callback, name, qtype = self.callback, self.name, self.qtype
        if callback is None or self.answered:
            return
        self.answered = True
        try:
            message = DNSMessage.from_bytes(payload)
        except (ValueError, IndexError):
            callback(DNSResult(status="error", name=name, qtype=qtype))
            return
        if message.txid != self.txid:
            callback(DNSResult(status="error", name=name, qtype=qtype))
            return
        if message.rcode == RCODE_NXDOMAIN:
            callback(DNSResult(status="nxdomain", name=name, qtype=qtype, message=message))
        elif message.rcode != RCODE_OK:
            callback(DNSResult(status="servfail", name=name, qtype=qtype, message=message))
        elif not message.answers:
            callback(DNSResult(status="nodata", name=name, qtype=qtype, message=message))
        else:
            callback(
                DNSResult(
                    status="ok",
                    name=name,
                    qtype=qtype,
                    message=message,
                    addresses=message.a_records(),
                    mx=message.mx_records(),
                )
            )

    def on_timeout(self) -> None:
        if self.answered:
            return
        if self.tries_left > 0:
            self.send_try()
            return
        if self.callback is not None:
            self.callback(DNSResult(status="timeout", name=self.name, qtype=self.qtype))
