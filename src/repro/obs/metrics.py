"""Simulation-native metrics: labelled counters folded on read.

The paper's argument is about *where* packets go — which MVR stage
discards them, which link direction loses them, which rule fired.  This
registry gives every layer a shared, cheap place to record those counts
so a run can answer them without ad-hoc prints or re-deriving them from
capture dumps.  It records counters only; :class:`Histogram` is a
standalone quantile structure for the analysis layer, not a registry
instrument.

Design constraints, in order:

1. **Zero overhead when off.**  Instrumented constructors resolve their
   registry once via :func:`active_or_none`; ``None`` is the one "off"
   value, so every hot path pays at most one ``is not None`` check.
   Components with a hot path (links, rule engines, the surveillance
   tap, the flow tier) keep plain running tallies and never touch the
   registry while simulating: a :class:`TallyFold` registered at
   construction folds the tallies into their counters whenever the
   registry is read.
2. **Determinism.**  Snapshots order instruments and label tuples by
   sorted name, never by hash or insertion accident, so two same-seed
   runs produce byte-identical exports (the property the trace/metrics
   determinism tests assert).  A fold holds only the tallies it reads,
   and the registry holds the fold, so what a component counted is
   reported whether or not the component has been collected.
3. **No dependencies.**  Plain dicts keyed by label-value tuples.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TallyFold",
    "active_or_none",
    "set_registry",
    "use_registry",
]

LabelTuple = Tuple[str, ...]


class _Instrument:
    """Shared shape: a name, label names, and a values table."""

    kind = "untyped"
    __slots__ = ("name", "help", "label_names", "_values")

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.label_names: LabelTuple = tuple(label_names)
        self._values: Dict[LabelTuple, object] = {}

    def _check(self, labels: LabelTuple) -> None:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label value(s) "
                f"{self.label_names}, got {labels!r}"
            )

    def labelled(self) -> List[Tuple[LabelTuple, object]]:
        """(labels, value) pairs in sorted label order (deterministic)."""
        return sorted(self._values.items())

    def clear(self) -> None:
        self._values.clear()


class Counter(_Instrument):
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"
    __slots__ = ()

    def inc(self, labels: LabelTuple = (), amount: float = 1) -> None:
        self._check(labels)
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (amount={amount})")
        self._values[labels] = self._values.get(labels, 0) + amount

    def value(self, labels: LabelTuple = ()) -> float:
        return self._values.get(labels, 0)

    def total(self) -> float:
        """Sum across all label combinations."""
        return sum(self._values.values())


class Histogram(_Instrument):
    """Fixed-bucket histogram storing *per-bucket* counts plus sum/count.

    Buckets are upper bounds; an observation lands in the first bucket
    whose bound is >= the value (``inf`` is appended when the last bound
    is finite), and each bucket's stored count is the number of
    observations that landed in exactly that bucket — not a running
    total.  The record analysis keeps its verdict latencies here and
    reports :meth:`quantile` estimates from them.
    """

    __slots__ = ("buckets",)

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(buckets)
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"{name}: bucket bounds must be sorted")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds

    def series(self, labels: LabelTuple = ()) -> Dict[str, object]:
        """One label row's mutable state, created empty on first use:
        ``{"counts": [per-bucket counts], "sum": float, "count": int}``.

        For a caller that folds a stream of observations into the same
        row and keeps a reference instead of a lookup per observation;
        it must update the row exactly as :meth:`observe` does.
        """
        self._check(labels)
        state = self._values.get(labels)
        if state is None:
            state = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._values[labels] = state
        return state

    def observe(self, labels: LabelTuple = (), value: float = 0) -> None:
        state = self.series(labels)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                state["counts"][index] += 1
                break
        state["sum"] += value
        state["count"] += 1

    def count(self, labels: LabelTuple = ()) -> int:
        state = self._values.get(labels)
        return 0 if state is None else state["count"]

    def bucket_counts(self, labels: LabelTuple = ()) -> List[int]:
        """Per-bucket counts (one int per bound, non-cumulative)."""
        state = self._values.get(labels)
        if state is None:
            return [0] * len(self.buckets)
        return list(state["counts"])

    def quantile(self, p: float, labels: LabelTuple = ()) -> Optional[float]:
        """Estimate the ``p``-quantile from the fixed cumulative buckets.

        Monotone linear interpolation inside the bucket the target rank
        lands in: the estimate is exact at bucket boundaries and off by
        at most one bucket width inside a bucket (observations are
        assumed uniform within it) — a documented ±bucket-width error,
        which is the price of storing counts instead of samples.  Two
        clamps keep the estimate finite and monotone: the first bucket
        interpolates from 0 (or from a negative observation's own value
        there is no record of, so 0 is the floor), and a rank landing in
        the unbounded ``+Inf`` bucket returns the last finite bound —
        the largest value the histogram can still vouch for.

        Returns ``None`` when no observations were recorded for the
        label row (an empty histogram has no quantiles); raises on ``p``
        outside [0, 1].
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{self.name}: quantile p must be in [0, 1] (got {p})")
        state = self._values.get(labels)
        if state is None or state["count"] == 0:
            return None
        target = p * state["count"]
        running = 0
        lower = 0.0
        for bound, count in zip(self.buckets, state["counts"]):
            before = running
            running += count
            if running >= target and count:
                if bound == float("inf"):
                    return lower
                return lower + (bound - lower) * ((target - before) / count)
            if bound != float("inf"):
                lower = bound
        return lower


class MetricsRegistry:
    """A home for counters; get-or-create by name.

    Counters are created once and shared: asking for an existing name
    with matching labels returns the same object, so independent
    subsystems can feed one counter (e.g. every ``Link`` feeding
    ``link_packets_dropped_total``).
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._instruments: Dict[str, Counter] = {}
        #: hooks that fold running tallies in before any read, in
        #: registration order (each one a :class:`TallyFold`)
        self._flush_hooks: List[Callable[[], None]] = []
        self._flushing = False

    # -- fold-on-read hooks ----------------------------------------------------

    def on_flush(self, hook: Callable[[], None]) -> None:
        """Hold ``hook`` (strongly) and run it before every read.

        :meth:`flush_pending` runs at the top of :meth:`get`,
        :meth:`snapshot`, :meth:`merge` (on the registry merged in) and
        :meth:`clear`, so every observable value is exact at read time.
        Hooks run in registration order (deterministic).  The hook must
        not hold its producer: :class:`TallyFold` holds only the tallies
        it folds, so they are still reported after their producer has
        been garbage-collected.
        """
        self._flush_hooks.append(hook)

    def flush_pending(self) -> None:
        """Run every flush hook once (reentrancy-safe)."""
        if not self._flush_hooks or self._flushing:
            return
        self._flushing = True
        try:
            for hook in self._flush_hooks:
                hook()
        finally:
            self._flushing = False

    # -- counters ---------------------------------------------------------------

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        counter = self._instruments.get(name)
        if counter is None:
            counter = self._instruments[name] = Counter(name, help, labels)
        elif counter.label_names != tuple(labels):
            raise ValueError(
                f"{name} already registered with labels "
                f"{counter.label_names}, requested {tuple(labels)}"
            )
        return counter

    # -- introspection --------------------------------------------------------

    def get(self, name: str) -> Optional[Counter]:
        self.flush_pending()
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def clear(self) -> None:
        """Zero every counter (the counters themselves survive).

        Tallies are folded in first, so what they gained before the clear
        does not reappear on the next read.
        """
        self.flush_pending()
        for instrument in self._instruments.values():
            instrument.clear()

    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-ready dump of every counter.

        Counters sort by name and label rows by label values, so two
        identical runs snapshot byte-identically once serialized with
        sorted keys; the snapshot round-trips through
        :meth:`from_snapshot`.
        """
        self.flush_pending()
        out: Dict[str, object] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            out[name] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.label_names),
                "values": [
                    [list(labels), value] for labels, value in instrument.labelled()
                ],
            }
        return {"namespace": self.namespace, "instruments": out}

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        The workhorse of cross-process metric folding: sweep workers ship
        JSON-ready snapshots back to the parent, which reconstructs and
        :meth:`merge`\\ s them.  ``reg.from_snapshot(reg.snapshot())``
        snapshots byte-identically to ``reg`` — and because snapshots are
        plain JSON scalars, the identity survives a serialize/parse round
        trip through the campaign journal, which is what lets a resumed
        sweep merge checkpointed snapshots with freshly computed ones
        into byte-identical reports.  Malformed input (a row whose label
        arity does not match, or an instrument that is not a counter —
        e.g. a journal edited by hand) raises rather than reconstructing
        a registry that would corrupt a merge.
        """
        registry = cls(namespace=snapshot.get("namespace", "repro"))
        for name, entry in snapshot.get("instruments", {}).items():
            kind = entry["kind"]
            if kind != "counter":
                raise ValueError(
                    f"{name}: instrument kind {kind!r} is not recorded "
                    "(the registry holds counters only)"
                )
            counter = registry.counter(name, entry.get("help", ""), entry["labels"])
            for row_labels, value in entry["values"]:
                row = tuple(row_labels)
                counter._check(row)
                counter._values[row] = value
        return registry

    def merge(self, other) -> "MetricsRegistry":
        """Fold another registry (or snapshot dict) into this one, in place.

        Counters sum per label row, so N per-worker registries fold into
        exactly what one shared registry would have recorded (integer
        counts are exact; float counts match up to addition order).
        Folding the *same* parts in the *same* order is always
        bit-reproducible, which is the invariant sweep reports rely on.
        A name registered with different labels on the two sides raises
        instead of silently corrupting the fold.  Returns ``self`` so
        merges chain.
        """
        if isinstance(other, dict):
            other = MetricsRegistry.from_snapshot(other)
        else:
            other.flush_pending()
        for name in sorted(other._instruments):
            theirs = other._instruments[name]
            mine = self.counter(name, theirs.help, theirs.label_names)._values
            for labels, value in theirs._values.items():
                mine[labels] = mine.get(labels, 0) + value
        return self


class TallyFold:
    """Folds running tallies into counters whenever the registry is read.

    The one way a component records a metric: on its hot path it keeps
    plain running totals — a ``{labels: total}`` dict, or any ledger it
    keeps anyway — instead of calling :meth:`Counter.inc`.  Each pair is
    ``(counter, items)``, where ``items`` is a zero-argument callable
    returning ``(labels, running total)`` pairs (a dict tally passes its
    ``.items``).  On every read this flush hook adds to each counter what
    each total gained since the last fold, so repeated reads never
    double-count, and a total that never moved creates no label row.
    Labels that are not a tuple are the value of a single label.  The
    registry holds the fold strongly; ``items`` must read only the
    tallies, never their producer, so what a producer counted is still
    reported after it has been collected and no simulation is kept alive.
    """

    __slots__ = ("_folds",)

    def __init__(
        self,
        registry: MetricsRegistry,
        pairs: Sequence[Tuple[Counter, Callable[[], Iterable[Tuple[object, float]]]]],
    ) -> None:
        #: (counter, items, each total as last folded)
        self._folds = tuple((counter, items, {}) for counter, items in pairs)
        registry.on_flush(self)

    def __call__(self) -> None:
        for counter, items, folded in self._folds:
            for key, value in items():
                delta = value - folded.get(key, 0)
                if delta:
                    counter.inc(key if type(key) is tuple else (key,), delta)
                    folded[key] = value


# -- process-wide installation --------------------------------------------------

_state = threading.local()


def active_or_none() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` when instrumentation is off.

    The construction-time resolver for instrumented components: storing
    the result lets them guard recording with a single ``is not None``
    check.
    """
    return getattr(_state, "registry", None)


def set_registry(registry: Optional[MetricsRegistry]):
    """Install ``registry`` process-wide; returns the previous one (or None)."""
    previous = getattr(_state, "registry", None)
    _state.registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped installation: components built inside the block record here."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
