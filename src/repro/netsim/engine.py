"""Deterministic discrete-event simulation engine.

Replaces the paper's Mininet testbed with a reproducible event queue: every
packet delivery, timer, and application callback is an event with a
simulated timestamp.  Runs are deterministic for a given seed, which is what
lets the benchmark harness make exact claims about evasion and accuracy.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Optional

__all__ = ["Simulator", "Timer"]


class Timer:
    """A cancellable handle for a scheduled event."""

    __slots__ = ("cancelled", "when", "_fired", "_sim")

    def __init__(self, when: float, sim: "Optional[Simulator]" = None) -> None:
        self.when = when
        self.cancelled = False
        self._fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()


class Simulator:
    """An event loop over simulated time.

    Events fire in (time, sequence) order; ties break by scheduling order so
    runs are fully deterministic.  ``rng`` is the single source of randomness
    for everything built on top (ISNs, DNS txids, workload generators).
    """

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        #: The construction seed, kept so subsystems (per-link impairment
        #: pipelines, workload generators) can derive independent
        #: deterministic RNG streams without consuming ``rng`` itself.
        self.seed = seed
        self.rng = random.Random(seed)
        self._queue: list[tuple[float, int, Timer, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._events_processed = 0
        #: cancelled entries still sitting in the heap (popped lazily)
        self._dead = 0
        self._cancelled_total = 0
        self._compactions = 0
        self._queue_hwm = 0

    def substream(self, *labels: int) -> random.Random:
        """A deterministic RNG stream derived from the seed and ``labels``.

        Independent of ``rng``'s draw sequence, so creating a substream
        never perturbs existing randomness — the property the
        seed-determinism regression tests rely on.
        """
        from .impairment import mix_seed

        return random.Random(mix_seed(self.seed, *labels))

    def at(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        timer = Timer(self.now + delay, sim=self)
        heapq.heappush(self._queue, (timer.when, next(self._counter), timer, callback))
        if len(self._queue) > self._queue_hwm:
            self._queue_hwm = len(self._queue)
        return timer

    def at_uncancellable(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule an event that can never be cancelled — no Timer handle.

        The population fast path schedules millions of fire-and-forget
        events (packet hops, aggregate flow advances) whose handles are
        always discarded; skipping the Timer allocation and the
        cancellation bookkeeping makes this the cheapest way onto the
        heap.  Ordering semantics are identical to :meth:`at` — the
        (when, seq) key is shared — so mixing both kinds never reorders
        events.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._queue, (self.now + delay, next(self._counter), None, callback))
        if len(self._queue) > self._queue_hwm:
            self._queue_hwm = len(self._queue)

    def _note_cancelled(self) -> None:
        """Called by ``Timer.cancel``; compacts the heap when cancellation-
        heavy workloads leave it mostly dead entries."""
        self._dead += 1
        self._cancelled_total += 1
        if self._dead > len(self._queue) // 2 and self._dead >= 64:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (order-preserving:
        the (when, seq) keys are untouched)."""
        self._queue = [
            entry for entry in self._queue
            if entry[2] is None or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._dead = 0
        self._compactions += 1

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the number of events processed by this call.
        """
        processed = 0
        while self._queue:
            when, _seq, timer, callback = self._queue[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._queue)
            if timer is not None:
                if timer.cancelled:
                    self._dead -= 1
                    continue
                timer._fired = True
            self.now = when
            callback()
            processed += 1
            if processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely a packet loop"
                )
        if until is not None and self.now < until:
            self.now = until
        self._events_processed += processed
        return processed

    def teardown(self) -> None:
        """Drop every pending event.  Their callbacks close over the world
        that scheduled them, so a finished run's queue keeps that world in
        a reference cycle; see :meth:`Network.teardown`."""
        self._queue.clear()
        self._dead = 0

    def run_for(self, duration: float) -> int:
        """Advance simulated time by ``duration`` seconds."""
        return self.run(until=self.now + duration)

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._dead

    @property
    def events_processed(self) -> int:
        """Total events processed across all ``run`` calls."""
        return self._events_processed

    def stats(self) -> dict:
        """Event-loop health counters, cheap enough to keep always-on.

        The observability layer folds these into run reports
        (``analysis.metrics.run_report``); keeping them as plain ints on
        the simulator means the event loop itself never touches the
        metrics registry.
        """
        return {
            "events_fired": self._events_processed,
            "timers_cancelled": self._cancelled_total,
            "heap_compactions": self._compactions,
            "queue_depth_high_water": self._queue_hwm,
            "pending": self.pending,
            "now": self.now,
        }
