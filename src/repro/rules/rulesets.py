"""Stock rulesets for the reference censorship and surveillance systems.

The paper argues that a surveillance operator would most likely run a
*subscribed* commercial ruleset rather than bespoke rules ("most
organizations just subscribe to rulesets rather than writing their own",
Section 3.2.1).  The detection rules here mirror the Emerging-Threats rule
shapes an off-the-shelf subscription provides (scan / DDoS / spam / p2p
detections), and the censor rules mirror published GFC behaviours (keyword
reset on sensitive terms, HTTP Host blocking).

DNS poisoning and IP/port null-routing are *actions*, not signatures, so
they live in :mod:`repro.censor` components configured from the same
blocklists exported here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = [
    "GFC_KEYWORDS",
    "BLOCKED_DOMAINS",
    "censor_ruleset_text",
    "mvr_detection_ruleset_text",
    "surveillance_interest_ruleset_text",
    "DEFAULT_VARIABLES",
    "DISCARD_CLASSTYPES",
    "RETAIN_CLASSTYPES",
]

#: Keywords published GFC studies report triggering RST injection.
GFC_KEYWORDS: List[str] = [
    "falun",
    "ultrasurf",
    "tiananmen",
    "freegate",
    "hrichina",
    "dalailama",
]

#: Domains the censor blocks at the DNS and HTTP layers (paper Section 3.2.3
#: validated twitter.com and youtube.com against the real GFC; the rest are
#: other well-documented GFC DNS-poisoning targets).
BLOCKED_DOMAINS: List[str] = [
    "twitter.com",
    "youtube.com",
    "facebook.com",
    "falundafa.org",
    "bbc.com",
    "nytimes.com",
    "bloomberg.com",
    "dropbox.com",
    "vimeo.com",
    "instagram.com",
]

DEFAULT_VARIABLES: Dict[str, str] = {
    "HOME_NET": "10.1.0.0/16",
    "EXTERNAL_NET": "any",
}

#: Alert classes the MVR treats as commodity noise and discards (paper
#: Section 3: malware-like traffic has no intelligence value per-user).
DISCARD_CLASSTYPES = frozenset(
    {"attempted-recon", "denial-of-service", "spam", "p2p", "misc-activity"}
)

#: Alert classes the MVR retains and attributes to users.
RETAIN_CLASSTYPES = frozenset(
    {"policy-violation", "targeted-attack", "trojan-activity", "censorship-interest"}
)

#: Classes that mark a source as malware-infected for alert suppression.
#: P2P is deliberately excluded: it is discarded for *volume* reasons, but
#: running BitTorrent does not make a user's direct censored-content access
#: look like bot behaviour.
BOT_CLASSTYPES = frozenset({"attempted-recon", "denial-of-service", "spam"})


def censor_ruleset_text(
    keywords: Iterable[str] = tuple(GFC_KEYWORDS),
    blocked_domains: Iterable[str] = tuple(BLOCKED_DOMAINS),
) -> str:
    """GFC-style reject rules: keyword reset + HTTP Host blocking.

    ``reject`` means the middlebox injects RSTs at both endpoints, the
    published GFC behaviour the paper's reference censor emulates with a
    Snort rule (Section 3.2.1).
    """
    lines = ["# --- reference censorship system (GFC model) ---"]
    sid = 1_000_001
    for keyword in keywords:
        lines.append(
            f'reject tcp any any <> any any (msg:"CENSOR keyword {keyword}"; '
            f'content:"{keyword}"; nocase; flow:established; '
            f"classtype:censorship; sid:{sid}; rev:1;)"
        )
        sid += 1
    for domain in blocked_domains:
        lines.append(
            f'reject tcp any any -> any [80,8080] (msg:"CENSOR blocked host {domain}"; '
            f'content:"Host: {domain}"; nocase; flow:to_server,established; '
            f"classtype:censorship; sid:{sid}; rev:1;)"
        )
        sid += 1
    # SNI filtering: the ClientHello carries the server name in plaintext,
    # so a plain content match on port 443 implements modern HTTPS
    # censorship (the dominant GFC mechanism for TLS traffic).
    for domain in blocked_domains:
        lines.append(
            f'reject tcp any any -> any 443 (msg:"CENSOR SNI {domain}"; '
            f'content:"{domain}"; flow:to_server,established; '
            f"classtype:censorship; sid:{sid}; rev:1;)"
        )
        sid += 1
    return "\n".join(lines)


def mvr_detection_ruleset_text() -> str:
    """Commodity IDS detections: what a subscribed ruleset recognizes.

    These are the rules the paper's stealthy measurements *intentionally
    trigger*: traffic classified as scanning, DDoS, spam, or p2p is exactly
    what Massive Volume Reduction throws away.
    """
    return """
# --- commodity detections (Emerging-Threats shapes) ---
alert tcp $EXTERNAL_NET any -> any any (msg:"ET SCAN Possible Nmap SYN scan"; flags:S; threshold: type both, track by_src, count 30, seconds 10; classtype:attempted-recon; sid:2000001; rev:1;)
alert tcp $HOME_NET any -> $EXTERNAL_NET any (msg:"ET SCAN Outbound SYN scan"; flags:S; threshold: type both, track by_src, count 30, seconds 10; classtype:attempted-recon; sid:2000002; rev:1;)
alert tcp any any -> any [80,8080] (msg:"ET DOS HTTP GET flood"; content:"GET "; depth:4; flow:to_server,established; threshold: type both, track by_src, count 20, seconds 5; classtype:denial-of-service; sid:2000010; rev:1;)
alert tcp any any -> any 25 (msg:"ET SPAM bulk SMTP MAIL FROM"; content:"MAIL FROM"; nocase; flow:to_server,established; threshold: type both, track by_src, count 5, seconds 60; classtype:spam; sid:2000020; rev:1;)
alert udp $HOME_NET any -> any 53 (msg:"ET SPAM excessive MX queries"; content:"|00 0f 00 01|"; threshold: type both, track by_src, count 8, seconds 60; classtype:spam; sid:2000021; rev:1;)
alert tcp any any -> any 25 (msg:"ET SPAM known spam content"; pcre:"/viagra|WINNER|cheap meds|wire transfer|casino|100% guaranteed/i"; flow:to_server,established; classtype:spam; sid:2000022; rev:1;)
alert tcp any any -> any any (msg:"ET P2P BitTorrent handshake"; content:"|13|BitTorrent protocol"; classtype:p2p; sid:2000030; rev:1;)
alert udp any any -> any [6881:6999] (msg:"ET P2P BitTorrent DHT ping"; content:"d1|3a|ad2|3a|id"; classtype:p2p; sid:2000031; rev:1;)
""".strip()


def surveillance_interest_ruleset_text(
    keywords: Iterable[str] = tuple(GFC_KEYWORDS),
    blocked_domains: Iterable[str] = tuple(BLOCKED_DOMAINS),
) -> str:
    """User-focused rules: accesses worth retaining and attributing.

    An overt censorship measurement (the OONI-style baseline) requests
    censored content directly from a user-attributable address, which is
    precisely what these rules flag.
    """
    lines = ["# --- surveillance interest (user-attributable) ---"]
    sid = 3_000_001
    for keyword in keywords:
        lines.append(
            f'alert tcp $HOME_NET any -> $EXTERNAL_NET any (msg:"SURV censored keyword {keyword}"; '
            f'content:"{keyword}"; nocase; flow:to_server,established; '
            f"classtype:censorship-interest; sid:{sid}; rev:1;)"
        )
        sid += 1
    for domain in blocked_domains:
        lines.append(
            f'alert tcp $HOME_NET any -> $EXTERNAL_NET [80,8080] (msg:"SURV blocked host {domain}"; '
            f'content:"Host: {domain}"; nocase; flow:to_server,established; '
            f"classtype:censorship-interest; sid:{sid}; rev:1;)"
        )
        sid += 1
    # NOTE deliberately absent: per-lookup alerts on DNS queries for blocked
    # names.  The Syria analysis (paper Section 2.2 / experiment E5) shows
    # 1.57 % of the population touches censored names, far too many users to
    # retain per-query alerts for.  What *is* measurement-like is bulk
    # resolution of many censored names from one source in a short window:
    if blocked_domains:
        pattern = "|".join(
            domain.split(".")[0] for domain in blocked_domains
        )
        lines.append(
            f'alert udp $HOME_NET any -> $EXTERNAL_NET 53 (msg:"SURV bulk censored-domain resolution"; '
            f'pcre:"/{pattern}/i"; threshold: type both, track by_src, count 8, seconds 60; '
            f"classtype:censorship-interest; sid:3000900; rev:1;)"
        )
    lines.append(
        'alert tcp $HOME_NET any -> $EXTERNAL_NET any (msg:"SURV circumvention tool signature"; '
        'content:"obfs4-bridge"; classtype:censorship-interest; sid:3000999; rev:1;)'
    )
    return "\n".join(lines)
