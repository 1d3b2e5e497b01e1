"""Parser for the Snort-subset rule language.

Grammar (one rule per line; ``#`` comments and blank lines ignored)::

    action proto src_addr src_port -> dst_addr dst_port ( options )
    action proto src_addr src_port <> dst_addr dst_port ( options )

Actions: ``alert``, ``log``, ``pass``, ``drop``, ``reject``.
Protocols: ``tcp``, ``udp``, ``icmp``, ``ip``.

Supported options: ``msg``, ``sid``, ``rev``, ``classtype``, ``priority``,
``reference``, ``content`` (+``nocase``/``offset``/``depth``), ``pcre``,
``flags``, ``dsize``, ``itype``, ``icode``, ``flow``, ``threshold`` /
``detection_filter``.  This covers the rule shapes the paper's evaluation
needs: GFC keyword-reset rules, ET-style scan/spam/DDoS detections, and
policy rules for censored-content access.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .matcher import (
    AddressSpec,
    ContentOption,
    DsizeOption,
    FlagsOption,
    PcreOption,
    PortSpec,
    RuleParseError,
)

__all__ = ["Rule", "ThresholdSpec", "parse_rule", "parse_ruleset", "RuleParseError"]

ACTIONS = ("alert", "log", "pass", "drop", "reject")
PROTOCOLS = ("tcp", "udp", "icmp", "ip")


@dataclass
class ThresholdSpec:
    """``threshold``/``detection_filter`` semantics.

    - ``limit``: alert on the first ``count`` events per window, then mute.
    - ``threshold``: alert on every ``count``-th event within the window.
    - ``both``: alert once per window, only after ``count`` events.
    """

    kind: str  # "limit" | "threshold" | "both"
    track: str  # "by_src" | "by_dst"
    count: int
    seconds: float

    @classmethod
    def parse(cls, text: str) -> "ThresholdSpec":
        fields: Dict[str, str] = {}
        for chunk in text.split(","):
            parts = chunk.strip().split()
            if len(parts) != 2:
                raise RuleParseError(f"bad threshold chunk: {chunk!r}")
            fields[parts[0]] = parts[1]
        try:
            return cls(
                kind=fields.get("type", "both"),
                track=fields["track"],
                count=int(fields["count"]),
                seconds=float(fields["seconds"]),
            )
        except KeyError as missing:
            raise RuleParseError(f"threshold missing field {missing}") from None


@dataclass
class Rule:
    """One parsed rule."""

    action: str
    protocol: str
    src: AddressSpec
    sport: PortSpec
    dst: AddressSpec
    dport: PortSpec
    bidirectional: bool = False
    msg: str = ""
    sid: int = 0
    rev: int = 1
    classtype: str = ""
    priority: int = 3
    references: List[str] = field(default_factory=list)
    contents: List[ContentOption] = field(default_factory=list)
    pcres: List[PcreOption] = field(default_factory=list)
    flags: Optional[FlagsOption] = None
    dsize: Optional[DsizeOption] = None
    itype: Optional[int] = None
    icode: Optional[int] = None
    flow: List[str] = field(default_factory=list)
    threshold: Optional[ThresholdSpec] = None
    raw: str = ""

    def needs_payload(self) -> bool:
        return bool(self.contents or self.pcres)

    def __str__(self) -> str:
        return f"[{self.sid}:{self.rev}] {self.action} {self.msg!r}"


_OPTION_RE = re.compile(
    r"""
    \s*(?P<key>[A-Za-z_]+)              # option keyword
    (?:\s*:\s*
        (?:"(?P<quoted>(?:[^"\\]|\\.)*)"   # quoted value
        |(?P<bare>[^;]*)                   # bare value
        )
    )?
    \s*;
    """,
    re.VERBOSE,
)


def _split_header_options(text: str) -> tuple[str, str]:
    open_paren = text.find("(")
    if open_paren == -1 or not text.rstrip().endswith(")"):
        raise RuleParseError(f"rule missing option block: {text!r}")
    return text[:open_paren].strip(), text.rstrip()[open_paren + 1 : -1]


def _unescape(value: str) -> str:
    # Snort escapes ";", ":", "\\" and '"' inside quoted option values;
    # other backslashes (e.g. pcre classes like \d) pass through untouched.
    return re.sub(r'\\([";:\\])', r"\1", value)


def parse_rule(text: str, variables: Optional[Dict[str, str]] = None) -> Rule:
    """Parse a single rule line into a :class:`Rule`."""
    variables = variables or {}
    header, option_text = _split_header_options(text.strip())
    fields = header.split()
    if len(fields) != 7:
        raise RuleParseError(f"bad rule header ({len(fields)} fields): {header!r}")
    action, protocol, src, sport, direction, dst, dport = fields
    if action not in ACTIONS:
        raise RuleParseError(f"unknown action: {action!r}")
    if protocol not in PROTOCOLS:
        raise RuleParseError(f"unknown protocol: {protocol!r}")
    if direction not in ("->", "<>"):
        raise RuleParseError(f"bad direction token: {direction!r}")

    rule = Rule(
        action=action,
        protocol=protocol,
        src=AddressSpec.parse(src, variables),
        sport=PortSpec.parse(sport, variables),
        dst=AddressSpec.parse(dst, variables),
        dport=PortSpec.parse(dport, variables),
        bidirectional=direction == "<>",
        raw=text.strip(),
    )

    pending_content: Optional[ContentOption] = None
    for match in _OPTION_RE.finditer(option_text):
        key = match.group("key").lower()
        value = match.group("quoted")
        if value is not None:
            value = _unescape(value)
        else:
            value = (match.group("bare") or "").strip()

        if key == "msg":
            rule.msg = value
        elif key == "sid":
            rule.sid = int(value)
        elif key == "rev":
            rule.rev = int(value)
        elif key == "classtype":
            rule.classtype = value
        elif key == "priority":
            rule.priority = int(value)
        elif key == "reference":
            rule.references.append(value)
        elif key == "content":
            negated = value.startswith("!")
            body = value[1:].strip('"') if negated else value
            pending_content = ContentOption(
                pattern=ContentOption.parse_pattern(body), negated=negated
            )
            rule.contents.append(pending_content)
        elif key == "nocase":
            if pending_content is None:
                raise RuleParseError("nocase without preceding content")
            pending_content.nocase = True
        elif key == "offset":
            if pending_content is None:
                raise RuleParseError("offset without preceding content")
            pending_content.offset = int(value)
        elif key == "depth":
            if pending_content is None:
                raise RuleParseError("depth without preceding content")
            pending_content.depth = int(value)
        elif key == "pcre":
            rule.pcres.append(PcreOption.parse(value))
        elif key == "flags":
            rule.flags = FlagsOption.parse(value)
        elif key == "dsize":
            rule.dsize = DsizeOption.parse(value)
        elif key == "itype":
            rule.itype = int(value)
        elif key == "icode":
            rule.icode = int(value)
        elif key == "flow":
            rule.flow = [part.strip() for part in value.split(",")]
        elif key in ("threshold", "detection_filter"):
            rule.threshold = ThresholdSpec.parse(value)
        else:
            raise RuleParseError(f"unsupported rule option: {key!r}")

    if rule.sid == 0:
        raise RuleParseError(f"rule missing sid: {text!r}")
    return rule


def parse_ruleset(text: str, variables: Optional[Dict[str, str]] = None) -> List[Rule]:
    """Parse a multi-line ruleset, skipping comments and blank lines."""
    rules: List[Rule] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rules.append(parse_rule(stripped, variables))
        except RuleParseError as error:
            raise RuleParseError(f"line {line_number}: {error}") from None
    seen: Dict[int, str] = {}
    for rule in rules:
        if rule.sid in seen:
            raise RuleParseError(f"duplicate sid {rule.sid}")
        seen[rule.sid] = rule.msg
    return rules
