"""Header and payload matchers for the Snort-subset rule language.

Address/port specifications support the forms the stock Snort rulesets use:
``any``, single values, CIDR blocks, ranges, bracketed lists, ``$VAR``
references, and ``!`` negation.  Payload matchers implement ``content``
(with ``nocase``/``offset``/``depth``), ``pcre``, ``flags``, ``dsize``,
``itype``/``icode``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..packets import compile_network, ip_to_int_cached, is_valid_ip

__all__ = [
    "AddressSpec",
    "PortSpec",
    "ContentOption",
    "PcreOption",
    "FlagsOption",
    "DsizeOption",
    "RuleParseError",
]


class RuleParseError(ValueError):
    """Raised when rule text cannot be parsed."""


def _resolve_var(token: str, variables: Dict[str, str]) -> str:
    while token.startswith("$"):
        name = token[1:]
        if name not in variables:
            raise RuleParseError(f"undefined rule variable: ${name}")
        token = variables[name]
    return token


@dataclass
class AddressSpec:
    """A source or destination address constraint."""

    negated: bool = False
    any: bool = False
    entries: List[str] = field(default_factory=list)  # IPs or CIDRs
    #: compiled ``(network_int, mask)`` pairs, built lazily from ``entries``
    _networks: Optional[List[Tuple[int, int]]] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def parse(cls, token: str, variables: Optional[Dict[str, str]] = None) -> "AddressSpec":
        token = _resolve_var(token.strip(), variables or {})
        negated = token.startswith("!")
        if negated:
            token = token[1:]
            token = _resolve_var(token, variables or {})
        if token.lower() == "any":
            if negated:
                raise RuleParseError("!any matches nothing")
            return cls(any=True)
        if token.startswith("[") and token.endswith("]"):
            entries = [part.strip() for part in token[1:-1].split(",") if part.strip()]
        else:
            entries = [token]
        for entry in entries:
            base = entry.split("/")[0]
            if not is_valid_ip(base):
                raise RuleParseError(f"invalid address entry: {entry!r}")
        spec = cls(negated=negated, entries=entries)
        spec.compiled()  # a bad prefix length fails here, not mid-match
        return spec

    def compiled(self) -> List[Tuple[int, int]]:
        """The ``(network_int, mask)`` pairs this spec tests against."""
        if self._networks is None:
            self._networks = [compile_network(entry) for entry in self.entries]
        return self._networks

    def matches(self, ip: str) -> bool:
        if self.any:
            return True
        return self.matches_int(ip_to_int_cached(ip))

    def matches_int(self, ip_int: int) -> bool:
        """Match a pre-converted 32-bit address (the per-packet fast path)."""
        if self.any:
            return True
        networks = self._networks
        if networks is None:
            networks = self.compiled()
        hit = False
        for network, mask in networks:
            if ip_int & mask == network:
                hit = True
                break
        return hit != self.negated


@dataclass
class PortSpec:
    """A source or destination port constraint."""

    negated: bool = False
    any: bool = False
    ranges: List[tuple] = field(default_factory=list)  # inclusive (lo, hi)

    @classmethod
    def parse(cls, token: str, variables: Optional[Dict[str, str]] = None) -> "PortSpec":
        token = _resolve_var(token.strip(), variables or {})
        negated = token.startswith("!")
        if negated:
            token = token[1:]
        if token.lower() == "any":
            if negated:
                raise RuleParseError("!any matches nothing")
            return cls(any=True)
        if token.startswith("[") and token.endswith("]"):
            parts = [part.strip() for part in token[1:-1].split(",") if part.strip()]
        else:
            parts = [token]
        ranges = []
        for part in parts:
            if ":" in part:
                lo_text, hi_text = part.split(":", 1)
                lo = int(lo_text) if lo_text else 0
                hi = int(hi_text) if hi_text else 65535
            else:
                lo = hi = int(part)
            if not (0 <= lo <= hi <= 65535):
                raise RuleParseError(f"invalid port range: {part!r}")
            ranges.append((lo, hi))
        return cls(negated=negated, ranges=ranges)

    def matches(self, port: int) -> bool:
        if self.any:
            return True
        hit = False
        for lo, hi in self.ranges:
            if lo <= port <= hi:
                hit = True
                break
        return hit != self.negated


# -- payload options -----------------------------------------------------------


@dataclass
class ContentOption:
    """Snort ``content`` with ``nocase``/``offset``/``depth`` modifiers.

    Pipe-hex notation (``|0D 0A|``) is supported, as real rules mix text
    and hex freely.
    """

    pattern: bytes
    nocase: bool = False
    offset: int = 0
    depth: Optional[int] = None
    negated: bool = False
    #: lazily cached ``pattern.lower()`` so nocase matches never re-fold
    _lower_pattern: Optional[bytes] = field(default=None, repr=False, compare=False)

    @classmethod
    def parse_pattern(cls, text: str) -> bytes:
        out = bytearray()
        pos = 0
        while pos < len(text):
            pipe = text.find("|", pos)
            if pipe == -1:
                out += text[pos:].encode("latin-1")
                break
            out += text[pos:pipe].encode("latin-1")
            end = text.find("|", pipe + 1)
            if end == -1:
                raise RuleParseError(f"unterminated hex block in content: {text!r}")
            hex_body = text[pipe + 1 : end].replace(" ", "")
            out += bytes.fromhex(hex_body)
            pos = end + 1
        return bytes(out)

    def needle(self) -> bytes:
        """The compiled search needle (lowered once if ``nocase``)."""
        if not self.nocase:
            return self.pattern
        if self._lower_pattern is None:
            self._lower_pattern = self.pattern.lower()
        return self._lower_pattern

    def matches(self, data: bytes) -> bool:
        if self.nocase:
            data = data.lower()
        return self.search_in(data)

    def search_in(self, haystack: bytes) -> bool:
        """Match against a haystack already case-folded when ``nocase``.

        The rule engine calls this with a per-packet shared haystack (and a
        shared lowercased copy) so each packet is folded at most once rather
        than once per ``content`` option.
        """
        needle = self.needle()
        if self.offset or self.depth is not None:
            window = haystack[self.offset :]
            if self.depth is not None:
                # Snort semantics: the match must lie entirely within the
                # first ``depth`` bytes after ``offset``.
                window = window[: self.depth]
        else:
            window = haystack
        found = needle in window
        return found != self.negated


#: bytes that make a pcre body more than a literal alternation
_PCRE_META = frozenset(b"\\.^$*+?{}[]()")
#: modifiers a literal alternation may carry: ``s`` and ``m`` change
#: nothing without ``.``/``^``/``$``, and R/U/P are ignored anyway
_GATE_MODIFIERS = frozenset("ismRUP")


def literal_alternation(body: bytes, modifiers: str) -> Optional[Tuple[bytes, ...]]:
    """The alternatives of ``/body/modifiers`` if it is a pure literal
    alternation, else None.

    Pure means: split on ``|``, every alternative is non-empty and holds
    no regex metacharacter, and every modifier is one of ``ismRUP``.
    Such a regex matches a haystack iff one alternative occurs in it,
    ASCII case-folded under ``i``: bytes ``re.IGNORECASE`` and
    ``bytes.lower()`` both fold ASCII only, so the two tests agree.
    """
    if not set(modifiers) <= _GATE_MODIFIERS:
        return None
    alternatives = tuple(body.split(b"|"))
    for alternative in alternatives:
        if not alternative or not _PCRE_META.isdisjoint(alternative):
            return None
    return alternatives


@dataclass
class PcreOption:
    """Snort ``pcre:"/regex/flags"`` matched with Python ``re``."""

    regex: "re.Pattern"
    negated: bool = False
    #: ``(needle, nocase)`` per alternative when the regex is a pure
    #: literal alternation (see :func:`literal_alternation`) and not
    #: negated: it can match only where one of these literals occurs, so
    #: the indexed engine skips it when none was seen.  None otherwise.
    gate: Optional[Tuple[Tuple[bytes, bool], ...]] = None

    @classmethod
    def parse(cls, text: str) -> "PcreOption":
        negated = text.startswith("!")
        if negated:
            text = text[1:]
        if not text.startswith("/"):
            raise RuleParseError(f"pcre must start with '/': {text!r}")
        end = text.rfind("/")
        if end == 0:
            raise RuleParseError(f"unterminated pcre: {text!r}")
        body, modifiers = text[1:end], text[end + 1 :]
        flags = 0
        for modifier in modifiers:
            if modifier == "i":
                flags |= re.IGNORECASE
            elif modifier == "s":
                flags |= re.DOTALL
            elif modifier == "m":
                flags |= re.MULTILINE
            # Snort's R/U/P HTTP modifiers are accepted but ignored.
        pattern = body.encode("latin-1")
        alternatives = None if negated else literal_alternation(pattern, modifiers)
        gate = None
        if alternatives is not None:
            nocase = bool(flags & re.IGNORECASE)
            gate = tuple(
                (alternative.lower() if nocase else alternative, nocase)
                for alternative in alternatives
            )
        return cls(regex=re.compile(pattern, flags), negated=negated, gate=gate)

    def matches(self, data: bytes) -> bool:
        return (self.regex.search(data) is not None) != self.negated


_FLAG_BITS = {"F": 0x01, "S": 0x02, "R": 0x04, "P": 0x08, "A": 0x10, "U": 0x20}


@dataclass
class FlagsOption:
    """Snort ``flags`` (e.g. ``S`` exact SYN, ``SA+`` SYN+ACK plus any)."""

    mask: int
    mode: str  # "exact" | "plus" | "any" | "not"

    @classmethod
    def parse(cls, text: str) -> "FlagsOption":
        text = text.strip()
        mode = "exact"
        if text.endswith("+"):
            mode, text = "plus", text[:-1]
        elif text.startswith("*"):
            mode, text = "any", text[1:]
        elif text.startswith("!"):
            mode, text = "not", text[1:]
        mask = 0
        for char in text:
            if char in ("0",):  # no flags set
                continue
            if char not in _FLAG_BITS:
                raise RuleParseError(f"unknown TCP flag {char!r}")
            mask |= _FLAG_BITS[char]
        return cls(mask=mask, mode=mode)

    def matches(self, flags: int) -> bool:
        relevant = flags & 0x3F
        if self.mode == "exact":
            return relevant == self.mask
        if self.mode == "plus":
            return relevant & self.mask == self.mask
        if self.mode == "any":
            return bool(relevant & self.mask)
        return relevant & self.mask != self.mask  # "not"


@dataclass
class DsizeOption:
    """Snort ``dsize`` payload-size test (``>N``, ``<N``, ``N``, ``N<>M``)."""

    low: int
    high: int

    @classmethod
    def parse(cls, text: str) -> "DsizeOption":
        text = text.strip()
        if "<>" in text:
            lo_text, hi_text = text.split("<>")
            return cls(low=int(lo_text) + 1, high=int(hi_text) - 1)
        if text.startswith(">"):
            return cls(low=int(text[1:]) + 1, high=1 << 30)
        if text.startswith("<"):
            return cls(low=0, high=int(text[1:]) - 1)
        value = int(text)
        return cls(low=value, high=value)

    def matches(self, size: int) -> bool:
        return self.low <= size <= self.high
