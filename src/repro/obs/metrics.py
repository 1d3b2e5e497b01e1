"""Simulation-native metrics: labeled counters, gauges, and histograms.

The paper's argument is about *where* packets go — which MVR stage
discards them, which link direction loses them, how many retries a
verdict consumed.  This registry gives every layer a shared, cheap place
to record those numbers so a run can answer them without ad-hoc prints
or re-deriving them from capture dumps.

Design constraints, in order:

1. **Zero overhead when off.**  Instrumented constructors resolve their
   recorder once via :func:`active_or_none`; when no registry is
   installed they store ``None`` and every hot path pays exactly one
   ``if self._obs is not None`` check; components that already keep a
   ledger (links, the surveillance tap, the flow tier) pay nothing even
   when on, because a flush hook (:class:`TallyFold` for plain tallies)
   folds the ledger into the registry at read time.  :class:`NullRecorder`
   exists for call sites that want unconditional instrument handles —
   all of its instruments are shared no-op singletons, and the recorder
   itself is falsy.
2. **Determinism.**  Snapshots order instruments and label tuples by
   sorted name, never by hash or insertion accident, so two same-seed
   runs produce byte-identical exports (the property the trace/metrics
   determinism tests assert).
3. **No dependencies.**  Plain dicts keyed by label-value tuples; the
   text rendering is Prometheus-flavoured for familiarity, not for
   scrape compatibility.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "NULL",
    "TallyFold",
    "DEFAULT_LATENCY_BUCKETS",
    "active_or_none",
    "current_registry",
    "set_registry",
    "use_registry",
]

LabelTuple = Tuple[str, ...]

#: Fixed buckets for simulated-seconds latency histograms (RTTs in the
#: reference topologies are milliseconds; retries stretch to seconds).
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, float("inf")
)


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

    def _merge_compatible(self, other: "_Instrument") -> None:
        """Raise unless ``other`` can be folded into this instrument."""
        if type(other) is not type(self):
            raise TypeError(
                f"{self.name}: cannot merge {other.kind} into {self.kind}"
            )
        if other.label_names != self.label_names:
            raise ValueError(
                f"{self.name}: cannot merge labels {other.label_names} "
                f"into {self.label_names}"
            )


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

    def merge_from(self, other: "Counter") -> None:
        """Fold ``other`` into this counter: per-label sums."""
        self._merge_compatible(other)
        for labels, value in other._values.items():
            self._values[labels] = self._values.get(labels, 0) + value


class Gauge(_Instrument):
    """A value that can go anywhere; also tracks via :meth:`track_max`."""

    kind = "gauge"
    __slots__ = ()

    def set(self, labels: LabelTuple = (), value: float = 0) -> None:
        self._check(labels)
        self._values[labels] = value

    def track_max(self, labels: LabelTuple = (), value: float = 0) -> None:
        """Keep the high-water mark (used for queue depths)."""
        self._check(labels)
        current = self._values.get(labels)
        if current is None or value > current:
            self._values[labels] = value

    def value(self, labels: LabelTuple = ()) -> float:
        return self._values.get(labels, 0)

    def merge_from(self, other: "Gauge") -> None:
        """Fold ``other`` into this gauge: per-label max.

        Cross-worker ``set()`` order is undefined, so the only merge that
        is independent of execution interleaving is the high-water mark —
        which is also exactly right for the ``track_max`` gauges the
        codebase uses (queue depths, high-water counters).
        """
        self._merge_compatible(other)
        for labels, value in other._values.items():
            current = self._values.get(labels)
            if current is None or value > current:
                self._values[labels] = value


class Histogram(_Instrument):
    """Fixed-bucket histogram storing *per-bucket* counts plus sum/count.

    Buckets are upper bounds; an observation lands in the first bucket
    whose bound is >= the value (the last bound should be ``inf``), and
    each bucket's stored count is the number of observations that landed
    in exactly that bucket — not a running total.  The exporters derive
    the Prometheus-style *cumulative* view (``_bucket{le="..."}`` lines,
    :meth:`cumulative_counts`) from this storage on demand.
    """

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
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

    def cumulative_counts(self, labels: LabelTuple = ()) -> List[int]:
        """Prometheus-style cumulative counts: entry i is observations <= bound i."""
        running = 0
        out = []
        for count in self.bucket_counts(labels):
            running += count
            out.append(running)
        return out

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

    def merge_from(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram: elementwise bucket adds."""
        self._merge_compatible(other)
        if other.buckets != self.buckets:
            raise ValueError(
                f"{self.name}: cannot merge bucket bounds {other.buckets} "
                f"into {self.buckets}"
            )
        for labels, state in other._values.items():
            mine = self._values.get(labels)
            if mine is None:
                mine = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
                self._values[labels] = mine
            for index, count in enumerate(state["counts"]):
                mine["counts"][index] += count
            mine["sum"] += state["sum"]
            mine["count"] += state["count"]


class MetricsRegistry:
    """A process-wide home for instruments; get-or-create by name.

    Instruments are created once and shared: asking for an existing name
    with matching kind/labels returns the same object, so independent
    subsystems can feed one counter (e.g. every ``Link`` feeding
    ``link_packets_dropped_total``).
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._instruments: Dict[str, _Instrument] = {}
        #: refs (weak, or strong for ``weak=False``) to hooks that fold
        #: batched deltas in before any read (components that batch
        #: hot-path increments register here so reported values stay exact)
        self._flush_hooks: List[Callable[[], Optional[Callable[[], None]]]] = []
        self._flushing = False

    def __bool__(self) -> bool:  # a real registry is truthy; NULL is not
        return True

    # -- batched-instrumentation flush hooks ----------------------------------

    def on_flush(self, hook, weak: bool = True) -> None:
        """Register a hook to run before reads.

        Components that accumulate hot-path deltas locally (the rule
        engine, the surveillance tap, link ledgers) register their fold-in
        here; :meth:`flush_pending` runs at the top of :meth:`get`,
        :meth:`snapshot`, :meth:`render_text`, and :meth:`clear`, so every
        observable value is exact at read time no matter where a batch
        boundary fell.  Hooks run in registration order (deterministic).

        By default ``hook`` is a bound method held weakly: it dies with
        its owner — no unregistration needed.  ``weak=False`` holds any
        callable strongly, for a small folder that owns only the numbers
        it folds, so those numbers are still reported after their
        producer has been garbage-collected.
        """
        self._flush_hooks.append(
            weakref.WeakMethod(hook) if weak else (lambda: hook)
        )

    def flush_pending(self) -> None:
        """Run every live flush hook once (reentrancy-safe)."""
        if not self._flush_hooks or self._flushing:
            return
        self._flushing = True
        try:
            dead = False
            for ref in self._flush_hooks:
                hook = ref()
                if hook is None:
                    dead = True
                else:
                    hook()
            if dead:
                self._flush_hooks = [
                    ref for ref in self._flush_hooks if ref() is not None
                ]
        finally:
            self._flushing = False

    # -- instrument factories -------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise TypeError(
                    f"{name} already registered as {instrument.kind}, "
                    f"requested {cls.kind}"
                )
            if instrument.label_names != tuple(labels):
                raise ValueError(
                    f"{name} already registered with labels "
                    f"{instrument.label_names}, requested {tuple(labels)}"
                )
            return instrument
        instrument = cls(name, help, labels, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- introspection --------------------------------------------------------

    def get(self, name: str) -> Optional[_Instrument]:
        self.flush_pending()
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def clear(self) -> None:
        """Zero every instrument (the instruments themselves survive).

        Pending batched deltas are folded in first so they don't leak
        into the cleared registry on the next read.
        """
        self.flush_pending()
        for instrument in self._instruments.values():
            instrument.clear()

    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-ready dump of every instrument.

        Instruments sort by name and label rows by label values, so two
        identical runs snapshot byte-identically once serialized with
        sorted keys.  Histogram rows carry the full per-bucket ``counts``
        list (copied, so later observations never mutate an exported
        snapshot) alongside ``sum``/``count``; the snapshot round-trips
        through :meth:`from_snapshot`.
        """
        self.flush_pending()
        out: Dict[str, object] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            values: List[object] = []
            for labels, value in instrument.labelled():
                if isinstance(instrument, Histogram):
                    value = {
                        "counts": list(value["counts"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                values.append([list(labels), value])
            entry: Dict[str, object] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.label_names),
                "values": values,
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = [
                    "inf" if bound == float("inf") else bound
                    for bound in instrument.buckets
                ]
            out[name] = entry
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
        into byte-identical reports.  Malformed rows (label arity or
        bucket-count mismatches — e.g. a journal edited by hand) raise
        rather than reconstructing a registry that would corrupt a merge.
        """
        registry = cls(namespace=snapshot.get("namespace", "repro"))
        for name, entry in snapshot.get("instruments", {}).items():
            kind = entry["kind"]
            labels = tuple(entry["labels"])
            if kind == "counter":
                instrument = registry.counter(name, entry.get("help", ""), labels)
                for row_labels, value in entry["values"]:
                    row = tuple(row_labels)
                    instrument._check(row)
                    instrument._values[row] = value
            elif kind == "gauge":
                instrument = registry.gauge(name, entry.get("help", ""), labels)
                for row_labels, value in entry["values"]:
                    row = tuple(row_labels)
                    instrument._check(row)
                    instrument._values[row] = value
            elif kind == "histogram":
                buckets = tuple(
                    float("inf") if bound == "inf" else bound
                    for bound in entry["buckets"]
                )
                instrument = registry.histogram(
                    name, entry.get("help", ""), labels, buckets=buckets
                )
                for row_labels, state in entry["values"]:
                    row = tuple(row_labels)
                    instrument._check(row)
                    if len(state["counts"]) != len(instrument.buckets):
                        raise ValueError(
                            f"{name}: snapshot row has "
                            f"{len(state['counts'])} bucket counts for "
                            f"{len(instrument.buckets)} bounds"
                        )
                    instrument._values[row] = {
                        "counts": list(state["counts"]),
                        "sum": state["sum"],
                        "count": state["count"],
                    }
            else:
                raise ValueError(f"{name}: unknown instrument kind {kind!r}")
        return registry

    def merge(self, other) -> "MetricsRegistry":
        """Fold another registry (or snapshot dict) into this one, in place.

        Merge semantics are chosen so that N per-worker registries fold
        into what one shared registry would have recorded: counters sum
        per label row, gauges take the per-label max (the ``track_max``
        high-water semantics — see :meth:`Gauge.merge_from`), and
        histograms add bucket counts elementwise.  All integer quantities
        are exact; histogram float ``sum``\\ s match the shared registry
        up to addition reordering.  Folding the *same* parts in the
        *same* order is always bit-reproducible, which is the invariant
        sweep reports rely on.  A name registered
        with a different kind, label set, or bucket bounds on the two
        sides raises instead of silently corrupting the fold.  Returns
        ``self`` so merges chain.
        """
        if isinstance(other, dict):
            other = MetricsRegistry.from_snapshot(other)
        else:
            other.flush_pending()
        for name in sorted(other._instruments):
            theirs = other._instruments[name]
            mine = self._instruments.get(name)
            if mine is None:
                kwargs = {"buckets": theirs.buckets} if isinstance(theirs, Histogram) else {}
                mine = self._get_or_create(
                    type(theirs), name, theirs.help, theirs.label_names, **kwargs
                )
            mine.merge_from(theirs)
        return self

    def render_text(self) -> str:
        """A Prometheus-flavoured text rendering for eyeballs and logs."""
        self.flush_pending()
        lines: List[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            full = f"{self.namespace}_{name}"
            if instrument.help:
                lines.append(f"# HELP {full} {instrument.help}")
            lines.append(f"# TYPE {full} {instrument.kind}")
            for labels, value in instrument.labelled():
                pairs = [
                    f'{key}="{val}"'
                    for key, val in zip(instrument.label_names, labels)
                ]
                label_text = "{" + ",".join(pairs) + "}" if pairs else ""
                if isinstance(instrument, Histogram):
                    # Prometheus-style cumulative bucket lines: each
                    # ``le`` bound counts every observation at or below it.
                    running = 0
                    for bound, count in zip(instrument.buckets, value["counts"]):
                        running += count
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        bucket_pairs = pairs + [f'le="{le}"']
                        lines.append(
                            f"{full}_bucket{{{','.join(bucket_pairs)}}} {running}"
                        )
                    lines.append(f"{full}_sum{label_text} {value['sum']}")
                    lines.append(f"{full}_count{label_text} {value['count']}")
                else:
                    lines.append(f"{full}{label_text} {value}")
        return "\n".join(lines) + ("\n" if lines else "")


class TallyFold:
    """Folds plain running tallies into counters whenever the registry is
    read.

    A producer on a hot path keeps ``{labels: running total}`` dicts as
    its ledger instead of calling :meth:`Counter.inc`; this flush hook
    adds to each counter what each total gained since the last fold, so
    repeated reads never double-count, and a total that never moved
    creates no label row.  A key that is not a tuple is the value of a
    single label.  The registry holds the fold strongly: it owns only the
    tallies, so they are still reported after their producer has been
    collected, and it keeps no producer alive.
    """

    __slots__ = ("_folds",)

    def __init__(
        self, registry: "MetricsRegistry", pairs: Sequence[Tuple[Counter, dict]]
    ) -> None:
        #: (counter, tally, the tally as last folded)
        self._folds = tuple((counter, tally, {}) for counter, tally in pairs)
        registry.on_flush(self, weak=False)

    def __call__(self) -> None:
        for counter, tally, folded in self._folds:
            for key, value in tally.items():
                delta = value - folded.get(key, 0)
                if delta:
                    counter.inc(key if type(key) is tuple else (key,), delta)
                    folded[key] = value


class _NullInstrument:
    """Accepts any recording call and does nothing (shared singleton)."""

    __slots__ = ()
    kind = "null"
    name = "null"
    label_names: LabelTuple = ()

    def inc(self, labels: LabelTuple = (), amount: float = 1) -> None:
        pass

    def set(self, labels: LabelTuple = (), value: float = 0) -> None:
        pass

    def track_max(self, labels: LabelTuple = (), value: float = 0) -> None:
        pass

    def observe(self, labels: LabelTuple = (), value: float = 0) -> None:
        pass

    def value(self, labels: LabelTuple = ()) -> float:
        return 0

    def total(self) -> float:
        return 0

    def count(self, labels: LabelTuple = ()) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRecorder:
    """A falsy stand-in registry whose instruments are all no-ops.

    Code that wants an unconditional handle (``self.m = obs.counter(...)``)
    works against it unchanged; code on a hot path should instead test
    the recorder once (``if obs:``/``active_or_none()``) and skip the
    call entirely.
    """

    namespace = "null"

    def __bool__(self) -> bool:
        return False

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def on_flush(self, hook, weak: bool = True) -> None:
        pass

    def flush_pending(self) -> None:
        pass

    def names(self) -> List[str]:
        return []

    def clear(self) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"namespace": "null", "instruments": {}}

    def render_text(self) -> str:
        return ""


NULL = NullRecorder()

# -- process-wide installation --------------------------------------------------

_state = threading.local()


def current_registry():
    """The installed registry, or the shared :data:`NULL` recorder."""
    return getattr(_state, "registry", None) or NULL


def active_or_none() -> Optional[MetricsRegistry]:
    """The installed *real* registry, or ``None`` when instrumentation is off.

    The construction-time resolver for hot-path components: storing the
    result lets them guard recording with a single ``is not None`` check.
    """
    registry = getattr(_state, "registry", None)
    return registry if registry else None


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
