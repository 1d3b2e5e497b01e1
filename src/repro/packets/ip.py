"""IPv4 packet model.

``IPPacket`` is the unit that traverses the simulated network.  Its payload
is a transport-layer object (``TCPSegment``, ``UDPDatagram``,
``ICMPMessage``) or raw bytes; ``to_bytes``/``from_bytes`` round-trip the
real wire format so rule engines can match on bytes when they want to.

The wire path is zero-recompute (docs/ARCHITECTURE.md, "Wire-cache
invariants"):

- ``to_bytes()`` memoizes the full wire image; any field write invalidates
  it (dirty tracking in ``__setattr__``).
- The packet's cache is tied to the transport's by *object identity*: the
  memoized image is reused only while the transport returns the exact
  ``bytes`` object that was embedded in it, so mutating the transport (which
  invalidates the transport's own cache) transparently invalidates the
  packet's image too.
- ``from_bytes()`` seeds both layers with the parsed source bytes, so a
  parse→forward→capture round-trip serializes zero times.  Seeds are
  promoted to the cache lazily, on first ``to_bytes()``, after verifying
  the source checksum matches what serialization would emit — corrupted
  input parses fine but never masquerades as our own serialization.
- ``copy()`` is a structural copy that shares the cached wire image
  (immutable ``bytes``), instead of the old ``to_bytes``/``from_bytes``
  round-trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Union

from .addressing import int_to_ip_cached, ip_to_int_cached
from .checksum import checksum_from_sum, fold_sum, raw_sum
from .icmp import ICMPMessage
from .tcp import TCPSegment
from .udp import UDPDatagram

__all__ = ["IPPacket", "PROTO_ICMP", "PROTO_TCP", "PROTO_UDP", "IP_HEADER_LEN"]

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

IP_HEADER_LEN = 20
DEFAULT_TTL = 64

_oset = object.__setattr__


@dataclass(init=False, slots=True)
class IPPacket:
    """An IPv4 packet with a typed transport payload.

    The payload may be a transport object or raw ``bytes``.  When the payload
    is an object, ``protocol`` is derived from its class unless explicitly
    set; when it is bytes, ``protocol`` must be given.
    """

    src: str
    dst: str
    payload: Union["object", bytes] = b""
    ttl: int = DEFAULT_TTL
    protocol: Optional[int] = None
    ident: int = 0
    tos: int = 0
    flags: int = 2  # DF set, like most modern stacks
    frag_offset: int = 0
    metadata: dict = field(default_factory=dict, repr=False, compare=False)
    #: Validated full wire image, valid while the transport still serializes
    #: to the exact ``_wire_body`` object it was built from.
    _wire: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    _wire_body: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Parse-seeded wire candidate (header checksum validated lazily).
    _seed: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    _seed_body: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Union["object", bytes] = b"",
        ttl: int = DEFAULT_TTL,
        protocol: Optional[int] = None,
        ident: int = 0,
        tos: int = 0,
        flags: int = 2,
        frag_offset: int = 0,
        metadata: Optional[dict] = None,
    ) -> None:
        _oset(self, "src", src)
        _oset(self, "dst", dst)
        _oset(self, "payload", payload)
        _oset(self, "ttl", ttl)
        _oset(self, "ident", ident)
        _oset(self, "tos", tos)
        _oset(self, "flags", flags)
        _oset(self, "frag_offset", frag_offset)
        _oset(self, "metadata", {} if metadata is None else metadata)
        if protocol is None:
            protocol = self._infer_protocol()
        _oset(self, "protocol", protocol)
        _oset(self, "_wire", None)
        _oset(self, "_wire_body", None)
        _oset(self, "_seed", None)
        _oset(self, "_seed_body", None)

    def __setattr__(self, name, value) -> None:
        # Dirty tracking: any field write invalidates the memoized wire
        # image and any parse-seeded candidate.  (Transport mutation is
        # covered separately, by the body identity check in ``to_bytes``.)
        _oset(self, name, value)
        _oset(self, "_wire", None)
        _oset(self, "_seed", None)

    def _infer_protocol(self) -> int:
        if isinstance(self.payload, TCPSegment):
            return PROTO_TCP
        if isinstance(self.payload, UDPDatagram):
            return PROTO_UDP
        if isinstance(self.payload, ICMPMessage):
            return PROTO_ICMP
        if isinstance(self.payload, (bytes, bytearray)):
            raise ValueError("protocol must be set when payload is raw bytes")
        raise TypeError(f"unsupported payload type: {type(self.payload)!r}")

    # -- wire format -------------------------------------------------------

    def payload_bytes(self) -> bytes:
        """Serialize the payload, computing transport checksums.

        Raw ``bytes`` payloads are returned as-is (they are immutable), so
        repeated calls yield the identical object — the property the wire
        cache's identity check relies on.
        """
        payload = self.payload
        if type(payload) is bytes:
            return payload
        if isinstance(payload, bytearray):
            return bytes(payload)
        return payload.to_bytes(self.src, self.dst)

    def wire_length(self) -> int:
        """Length of ``to_bytes()`` without materializing (or checksumming)
        the wire bytes — the cheap path for byte-budget accounting."""
        if isinstance(self.payload, (bytes, bytearray)):
            return IP_HEADER_LEN + len(self.payload)
        return IP_HEADER_LEN + self.payload.wire_length()

    def to_bytes(self) -> bytes:
        """Serialize to the IPv4 wire format with a valid header checksum.

        Memoized: the first call pays for serialization, later calls return
        the cached image until a field write (here or in the transport)
        invalidates it.
        """
        body = self.payload_bytes()
        wire = self._wire
        if wire is not None and body is self._wire_body:
            return wire
        seed = self._seed
        if seed is not None:
            _oset(self, "_seed", None)
            if body is self._seed_body and self._seed_checksum_ok(seed):
                _oset(self, "_wire", seed)
                _oset(self, "_wire_body", body)
                return seed
        total_len = IP_HEADER_LEN + len(body)
        header = bytearray(IP_HEADER_LEN)
        struct.pack_into(
            "!BBHHHBBHII",
            header,
            0,
            (4 << 4) | (IP_HEADER_LEN // 4),
            self.tos,
            total_len,
            self.ident,
            (self.flags << 13) | self.frag_offset,
            self.ttl,
            self.protocol,
            0,
            ip_to_int_cached(self.src),
            ip_to_int_cached(self.dst),
        )
        struct.pack_into("!H", header, 10, checksum_from_sum(raw_sum(header)))
        wire = bytes(header) + body
        _oset(self, "_wire", wire)
        _oset(self, "_wire_body", body)
        return wire

    def _seed_checksum_ok(self, seed: bytes) -> bool:
        # Fast path as in TCPSegment._seed_checksum_ok; 0x0000/0xFFFF stored
        # values are congruent and need the exact skip-the-field check.
        stored = seed[10] << 8 | seed[11]
        mv = memoryview(seed)
        if stored != 0 and stored != 0xFFFF:
            return fold_sum(raw_sum(mv[:IP_HEADER_LEN])) == 0xFFFF
        computed = checksum_from_sum(raw_sum(mv[:10]) + raw_sum(mv[12:IP_HEADER_LEN]))
        return computed == stored

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPPacket":
        """Parse wire bytes into an ``IPPacket`` with a typed payload.

        When the source bytes are byte-faithfully re-serializable (20-byte
        header, consistent lengths), they seed the wire caches of both the
        packet and its transport payload, so the parsed packet serializes
        zero times until mutated.
        """
        if len(data) < IP_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (
            ver_ihl,
            tos,
            total_len,
            ident,
            flags_frag,
            ttl,
            protocol,
            _cksum,
            src_i,
            dst_i,
        ) = struct.unpack_from("!BBHHHBBHII", data)
        if ver_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        ihl = (ver_ihl & 0xF) * 4
        body = data[ihl:total_len]
        payload: Union[object, bytes]
        if protocol == PROTO_TCP:
            payload = TCPSegment.from_bytes(body)
        elif protocol == PROTO_UDP:
            payload = UDPDatagram.from_bytes(body)
        elif protocol == PROTO_ICMP:
            payload = ICMPMessage.from_bytes(body)
        else:
            payload = body
        src = int_to_ip_cached(src_i)
        dst = int_to_ip_cached(dst_i)
        # object.__new__ fast path; see TCPSegment.from_bytes.
        packet = object.__new__(cls)
        _oset(packet, "src", src)
        _oset(packet, "dst", dst)
        _oset(packet, "payload", payload)
        _oset(packet, "ttl", ttl)
        _oset(packet, "protocol", protocol)
        _oset(packet, "ident", ident)
        _oset(packet, "tos", tos)
        _oset(packet, "flags", flags_frag >> 13)
        _oset(packet, "frag_offset", flags_frag & 0x1FFF)
        _oset(packet, "metadata", {})
        _oset(packet, "_wire", None)
        _oset(packet, "_wire_body", None)
        _oset(packet, "_seed", None)
        _oset(packet, "_seed_body", None)
        # Seed the wire caches with the source image (validated lazily).
        if (
            ihl == IP_HEADER_LEN
            and IP_HEADER_LEN <= total_len <= len(data)
            and isinstance(body, bytes)
        ):
            if payload is body:
                seedable = True  # raw payload is emitted verbatim
            elif payload._seedable(body):
                seedable = True
                _oset(payload, "_seed", body)
                if protocol != PROTO_ICMP:
                    _oset(payload, "_seed_key", (src, dst))
            else:
                seedable = False
            if seedable:
                if total_len == len(data) and type(data) is bytes:
                    wire = data  # the common case: no trailing slack to trim
                else:
                    wire = bytes(data[:total_len])
                _oset(packet, "_seed", wire)
                _oset(packet, "_seed_body", body)
        return packet

    # -- convenience -------------------------------------------------------

    # The transport classes have no subclasses, so an exact type test is
    # equivalent to isinstance and cheaper on the per-packet dispatch.

    @property
    def tcp(self):
        """The TCP payload, or None."""
        payload = self.payload
        return payload if type(payload) is TCPSegment else None

    @property
    def udp(self):
        """The UDP payload, or None."""
        payload = self.payload
        return payload if type(payload) is UDPDatagram else None

    @property
    def icmp(self):
        """The ICMP payload, or None."""
        payload = self.payload
        return payload if type(payload) is ICMPMessage else None

    def copy(self) -> "IPPacket":
        """Structural copy sharing the cached wire image.

        Transport payloads are copied as objects (so in-place mutation of
        the copy — TTL decrements, header rewrites — never leaks into the
        original), but the immutable cached ``bytes`` are shared, so copies
        serialize for free.  Matching the old parse-based copy, ``metadata``
        starts fresh on both the packet and its transport.
        """
        payload = self.payload
        if not isinstance(payload, (bytes, bytearray)):
            payload = payload._copy_shared()
        elif isinstance(payload, bytearray):
            payload = bytes(payload)
        new = object.__new__(IPPacket)
        _oset(new, "src", self.src)
        _oset(new, "dst", self.dst)
        _oset(new, "payload", payload)
        _oset(new, "ttl", self.ttl)
        _oset(new, "protocol", self.protocol)
        _oset(new, "ident", self.ident)
        _oset(new, "tos", self.tos)
        _oset(new, "flags", self.flags)
        _oset(new, "frag_offset", self.frag_offset)
        _oset(new, "metadata", {})
        _oset(new, "_wire", self._wire)
        _oset(new, "_wire_body", self._wire_body)
        _oset(new, "_seed", self._seed)
        _oset(new, "_seed_body", self._seed_body)
        return new

    def summary(self) -> str:
        """One-line human-readable description, for logs and debugging."""
        proto = {PROTO_TCP: "TCP", PROTO_UDP: "UDP", PROTO_ICMP: "ICMP"}.get(
            self.protocol, str(self.protocol)
        )
        detail = ""
        if self.tcp is not None:
            detail = f" {self.tcp.sport}->{self.tcp.dport} [{self.tcp.flag_names()}]"
        elif self.udp is not None:
            detail = f" {self.udp.sport}->{self.udp.dport}"
        return f"IP {self.src} -> {self.dst} {proto}{detail} ttl={self.ttl}"
