"""Point-to-point links: latency, per-direction impairments, accounting.

A link carries packets in both directions, but real paths are rarely
symmetric — loss, queueing, and jitter differ per direction.  Each
direction therefore owns its own impairment pipeline (seeded RNG stream
included) and its own statistics, so analyses can report uplink and
downlink loss separately and tests can assert packet conservation
(offered = delivered − duplicated-extra + lost) per direction.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple, Union

from ..obs.metrics import MetricsRegistry, TallyFold, active_or_none
from .impairment import (
    DELIVER_CLEAN,
    DROPPED,
    ImpairedPath,
    ImpairmentModel,
    PacketFate,
    mix_seed,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

__all__ = ["Link", "DirectionStats"]

#: Direction labels: "ab" is a->b (from ``Link.a`` toward ``Link.b``).
DIRECTIONS = ("ab", "ba")


class DirectionStats:
    """Per-direction packet/byte accounting: the link's ledger.

    ``packets_offered`` counts transmission attempts entering the link;
    ``packets_carried`` counts delivered copies (duplicates included);
    ``packets_duplicated`` counts the *extra* copies only; ``drops``
    counts lost packets per reason (the impairment model's class name, or
    ``legacy_loss`` for the flat loss knob), and ``packets_lost`` is their
    sum.  Conservation: ``offered == carried - duplicated + lost``.
    """

    __slots__ = (
        "packets_offered",
        "packets_carried",
        "drops",
        "packets_duplicated",
        "bytes_carried",
    )

    def __init__(self) -> None:
        self.packets_offered = 0
        self.packets_carried = 0
        self.drops: Dict[str, int] = {}
        self.packets_duplicated = 0
        self.bytes_carried = 0

    @property
    def packets_lost(self) -> int:
        return sum(self.drops.values())

    def drop(self, reason: str) -> None:
        """Book one lost packet under ``reason``."""
        drops = self.drops
        drops[reason] = drops.get(reason, 0) + 1

    @property
    def conserved(self) -> bool:
        return self.packets_offered == (
            self.packets_carried - self.packets_duplicated + self.packets_lost
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "packets_offered": self.packets_offered,
            "packets_carried": self.packets_carried,
            "packets_lost": self.packets_lost,
            "packets_duplicated": self.packets_duplicated,
            "bytes_carried": self.bytes_carried,
        }

    def __repr__(self) -> str:
        return (
            f"DirectionStats(offered={self.packets_offered}, "
            f"carried={self.packets_carried}, lost={self.packets_lost}, "
            f"dup={self.packets_duplicated})"
        )


#: (DirectionStats field, registry counter, help text) for every
#: per-direction ``link_*`` counter folded from the ledger.
_FOLDED_COUNTERS = (
    ("packets_offered", "link_packets_offered_total",
     "Transmission attempts entering a link direction"),
    ("packets_carried", "link_packets_carried_total",
     "Delivered copies (duplicates included) per link direction"),
    ("packets_duplicated", "link_packets_duplicated_total",
     "Extra delivered copies per link direction"),
    ("bytes_carried", "link_bytes_carried_total",
     "Bytes delivered per link direction (duplicates included)"),
)


def _fold_ledger(obs: MetricsRegistry, name: str,
                 ledger: Dict[str, DirectionStats]) -> None:
    """Register a :class:`TallyFold` of one link's ledger into the
    ``link_*`` counters.  Its callables read the ledger, not the link,
    so a link collected before the read still reports and no simulation
    is kept alive."""

    def field_items(field: str):
        return lambda: [
            ((name, direction), getattr(stats, field))
            for direction, stats in ledger.items()
        ]

    def drop_items():
        return [
            ((name, direction, reason), count)
            for direction, stats in ledger.items()
            for reason, count in stats.drops.items()
        ]

    TallyFold(obs, [
        (obs.counter(metric, help_text, ("link", "direction")), field_items(field))
        for field, metric, help_text in _FOLDED_COUNTERS
    ] + [(obs.counter(
        "link_packets_dropped_total",
        "Drops per link direction, labeled by the impairment that "
        "dropped (or legacy_loss for the flat loss knob)",
        ("link", "direction", "reason"),
    ), drop_items)])


class _DirectionRngs(dict):
    """direction -> its RNG stream, seeded from the link seed on the
    direction's first draw: most directions of a topology never draw,
    and seeding one costs more than building the link."""

    __slots__ = ("seed",)

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def __missing__(self, direction: str) -> random.Random:
        rng = self[direction] = random.Random(
            mix_seed(self.seed, DIRECTIONS.index(direction))
        )
        return rng


class Link:
    """A bidirectional link between two nodes.

    Without impairments, delivery is FIFO per direction (the event queue
    breaks ties in scheduling order).  Impairment pipelines may drop,
    delay (reordering), or duplicate packets per direction; the TCP
    stack's retransmission and in-order delivery logic covers the rest.

    Forwarding updates only the per-direction ledger (:attr:`stats`);
    when a metrics registry is installed at construction, the
    ``link_*_total`` counters are folded from that ledger whenever the
    registry is read.
    """

    def __init__(
        self,
        a: "Node",
        b: "Node",
        latency: float = 0.001,
        loss: float = 0.0,
        seed: int = 0,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        self.a = a
        self.b = b
        self.latency = latency
        #: Independent per-packet drop probability, applied before any
        #: impairment pipeline — the simple knob for "this path is dirty".
        #: Loss surfaces as timeouts unless the stack retransmits, exactly
        #: the confound that makes single-shot probes unreliable and
        #: repeated sampling worthwhile (paper Method #3).
        self.loss = loss
        self.seed = seed
        self.stats: Dict[str, DirectionStats] = {
            direction: DirectionStats() for direction in DIRECTIONS
        }
        #: direction -> its RNG stream, shared by the flat loss knob and
        #: the impairment pipeline
        self._rng: Dict[str, random.Random] = _DirectionRngs(seed)
        #: direction -> None (clean), its pipeline, or the tuple of models
        #: ``impair`` installed, until the direction first carries a packet
        self._paths: Dict[
            str, Union[None, ImpairedPath, Tuple[ImpairmentModel, ...]]
        ] = {direction: None for direction in DIRECTIONS}
        obs = active_or_none()
        if obs is not None:
            _fold_ledger(obs, f"{a.name}<->{b.name}", self.stats)

    # -- impairment configuration -------------------------------------------

    def impair(
        self,
        models: Sequence[ImpairmentModel],
        direction: str = "both",
    ) -> "Link":
        """Install an impairment pipeline (cloned per direction).

        ``direction`` is ``"ab"``, ``"ba"``, or ``"both"``.  Models are
        cloned so each direction gets pristine state, and each pipeline
        draws from its own deterministic RNG stream.  A direction builds
        its pipeline when it first carries a packet (or is inspected):
        clones start from reset state and model configuration is
        immutable, so when the clone is made does not change any fate.
        """
        models = tuple(models)
        for d in self._directions(direction):
            self._paths[d] = models
        return self

    def clear_impairment(self, direction: str = "both") -> None:
        for d in self._directions(direction):
            self._paths[d] = None

    def impairment(self, direction: str) -> Optional[ImpairedPath]:
        path = self._paths[direction]
        if path.__class__ is tuple:
            path = self._build_path(direction)
        return path

    def _build_path(self, direction: str) -> ImpairedPath:
        """Turn ``direction``'s installed models into its pipeline."""
        path = self._paths[direction] = ImpairedPath(
            [model.clone() for model in self._paths[direction]],
            rng=self._rng[direction],
        )
        return path

    @staticmethod
    def _directions(direction: str) -> Iterable[str]:
        if direction == "both":
            return DIRECTIONS
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be 'ab', 'ba', or 'both', not {direction!r}")
        return (direction,)

    # -- topology helpers ----------------------------------------------------

    def other_end(self, node: "Node") -> "Node":
        """The node on the far side of ``node``."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not attached to this link")

    def direction_from(self, node: "Node") -> str:
        """The direction label for traffic sent by ``node``."""
        if node is self.a:
            return "ab"
        if node is self.b:
            return "ba"
        raise ValueError(f"{node!r} is not attached to this link")

    def connects(self, a: "Node", b: "Node") -> bool:
        return {self.a, self.b} == {a, b}

    # -- transmission ---------------------------------------------------------

    def transmit(self, size: int, now: float, direction: str) -> PacketFate:
        """Rule on one packet entering the link; update the ledger.

        Returns the packet's fate: empty delays = dropped, otherwise one
        extra delay per delivered copy (on top of ``latency``).
        """
        stats = self.stats[direction]
        stats.packets_offered += 1
        if self.loss and self._rng[direction].random() < self.loss:
            stats.drop("legacy_loss")
            return DROPPED
        path = self._paths[direction]
        if path is None:
            stats.packets_carried += 1
            stats.bytes_carried += size
            return DELIVER_CLEAN
        if path.__class__ is tuple:
            path = self._build_path(direction)
        fate = path.traverse(size, now)
        copies = len(fate.delays)
        if not copies:
            stats.drop(path.last_drop_reason or "impairment")
            return fate
        stats.packets_carried += copies
        stats.bytes_carried += size * copies
        if copies > 1:
            stats.packets_duplicated += copies - 1
        return fate

    def account_flow(self, packets: int, size: int, direction: str) -> None:
        """Record an aggregate flow's traversal: ``packets`` packets and
        ``size`` total wire bytes cross this direction in one ledger entry.

        The flow-level fast path for population traffic far from any tap:
        no per-packet events, no impairment pipeline (aggregate flows are
        by definition unobserved, so their loss cannot change any tap
        observable), but the :class:`DirectionStats` conservation
        invariant still holds — everything offered is carried.
        """
        stats = self.stats[direction]
        stats.packets_offered += packets
        stats.packets_carried += packets
        stats.bytes_carried += size

    # -- aggregate accounting (both directions) ------------------------------

    @property
    def bytes_carried(self) -> int:
        return sum(stats.bytes_carried for stats in self.stats.values())

    @property
    def packets_carried(self) -> int:
        return sum(stats.packets_carried for stats in self.stats.values())

    @property
    def packets_lost(self) -> int:
        return sum(stats.packets_lost for stats in self.stats.values())

    @property
    def packets_offered(self) -> int:
        return sum(stats.packets_offered for stats in self.stats.values())

    @property
    def packets_duplicated(self) -> int:
        return sum(stats.packets_duplicated for stats in self.stats.values())

    def __repr__(self) -> str:
        return f"Link({self.a.name} <-> {self.b.name}, {self.latency * 1000:.1f}ms)"
