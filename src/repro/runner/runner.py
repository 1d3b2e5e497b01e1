"""Resumable campaign execution with a deterministic merge.

``SweepRunner`` expands a :class:`~repro.runner.spec.SweepSpec` into its
grid, executes the points — serially or through a work-stealing pool —
and folds the per-point records into one report whose bytes depend only
on the spec, never on the worker count, scheduling order, wall clock,
or how many crash/resume cycles the campaign took.  That invariant is
what the serial vs ``--workers 4`` vs kill-then-resume byte-identity
tests (and the CI smoke jobs) pin down, and it falls out of four rules:

1. every point runs in a fresh simulator + metrics registry seeded from
   the point parameters alone (see :mod:`.worker`);
2. the report lists points in grid order and contains no execution
   metadata (wall time, worker counts, and resume provenance are
   printed or journaled, never reported);
3. worker metrics merge through :meth:`MetricsRegistry.merge` — in grid
   order, never completion order — whose counter-sum / gauge-max /
   histogram-elementwise semantics make the fold equal to a shared
   serial registry;
4. journaled records are canonical JSON, which round-trips the record
   (and its metrics snapshot) byte-exactly, so a record read back from
   a checkpoint merges identically to the in-memory record it saved.

**Campaign service**: give the runner a :class:`~.store.CampaignStore`
and every finished point is journaled the moment its record arrives (in
completion order — the journal is an execution artifact, so order there
is free).  A later run with ``resume=True`` loads the journal, executes
only missing or previously-failed points, and merges journaled snapshots
with fresh ones into the same bytes an uninterrupted run produces.  A
``partial_path`` makes the in-flight campaign inspectable: the runner
atomically rewrites a small progress document every ``partial_every``
completions.

**Dispatch**: a pool run submits each point as its own pool task, so
idle workers pull the next point off the shared queue the moment they
finish (work stealing) — point costs vary wildly across loss rates and
retry policies, and static shards would strand cheap points behind a
shard-mate whale.

Crash isolation: exceptions inside a point are contained (and retried)
by the worker itself, and unpicklable results become failed records
naming the point (see :func:`.worker.run_shard`); a worker *process*
death breaks the whole pool, so the runner falls back to a salvage pass
that re-runs the affected points one per fresh single-worker pool — a
point that keeps killing its process exhausts its retry budget and is
recorded as failed, and the sweep still completes.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterator, List, Optional

from ..analysis.metrics import run_report
from ..obs import MetricsRegistry
from ..obs.export import write_json
from ..results.analyze import RecordAnalysis
from ..results.record import summarize_rows, write_records
from .shard import QueuePlanner
from .spec import SweepPoint, SweepSpec
from .store import CampaignStore
from .worker import run_shard

__all__ = ["SweepRunner", "analyze_spec"]


class SweepRunner:
    """Executes a sweep spec — possibly across several process lifetimes —
    and assembles the merged report."""

    def __init__(
        self,
        spec: SweepSpec,
        workers: int = 1,
        serial: bool = False,
        max_point_retries: int = 1,
        store: Optional[CampaignStore] = None,
        partial_path: Optional[str] = None,
        partial_every: int = 1,
        record_path: Optional[str] = None,
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        if max_point_retries < 0:
            raise ValueError(
                f"max_point_retries must be >= 0 (got {max_point_retries})"
            )
        if partial_every < 1:
            raise ValueError(f"partial_every must be >= 1 (got {partial_every})")
        self.spec = spec
        self.workers = workers
        self.serial = serial or workers == 1
        self.max_point_retries = max_point_retries
        self.store = store
        self.partial_path = partial_path
        self.partial_every = partial_every
        #: where to render the measurement-record file (None = no sink;
        #: the report's ``records`` summary is computed either way, so
        #: enabling the sink never changes report bytes).
        self.record_path = record_path
        #: called with a small progress event after every finished point;
        #: an execution-side channel (like the journal), never reported.
        self.progress = progress
        #: merged registry from the last :meth:`run`, for render_text etc.
        self.merged_registry: Optional[MetricsRegistry] = None
        #: grid indexes restored from the journal on the last run.
        self.resumed_indexes: List[int] = []
        #: grid indexes actually executed on the last run.
        self.executed_indexes: List[int] = []
        self._since_partial = 0
        self._progress_failed = 0
        self._progress_sim = 0.0

    # -- execution paths ------------------------------------------------------

    def _execute_serial(self, pending: List[SweepPoint], outcomes: Dict[int, dict]) -> None:
        # One run_shard call per point (not one for the whole list) so the
        # journal advances point by point, same as the pool path.
        for point in pending:
            record = run_shard(
                [point.as_dict()], self.max_point_retries, in_process=True,
            )[0]
            self._record(outcomes, record)

    def _execute_stealing(self, pending: List[SweepPoint], outcomes: Dict[int, dict]) -> None:
        """Shared-queue dispatch: one pool task per point.

        The pool's task queue *is* the steal target: workers pull the
        next point the moment they finish, so a pathologically slow
        point occupies one worker while the rest drain the remainder of
        the grid.  The queue is seeded most-expensive-first
        (:class:`QueuePlanner`) to keep the tail short.
        """
        order = QueuePlanner().order(pending)
        quarantined: List[SweepPoint] = []
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(run_shard, [point.as_dict()], self.max_point_retries): point
                for point in order
            }
            for future in as_completed(futures):
                point = futures[future]
                try:
                    self._record(outcomes, future.result()[0])
                except BrokenProcessPool:
                    # One dead process breaks the pool; every unfinished
                    # point lands here and is salvaged below.
                    quarantined.append(point)
                except BaseException:
                    # The task itself raised (per-point dispatch, so the
                    # culprit is known).  run_shard contains point
                    # exceptions and pickling poison, so this is an
                    # exotic failure — record it against the point.
                    self._record(outcomes, {
                        "index": point.index,
                        "params": point.as_dict(),
                        "status": "failed",
                        "attempts_used": 1,
                        "error": traceback.format_exc(limit=8),
                    })
        for point in sorted(quarantined, key=lambda p: p.index):
            self._record(outcomes, self._run_point_quarantined(point))

    def _run_point_quarantined(self, point: SweepPoint) -> dict:
        """Re-run one point of a crashed pool, one fresh pool per attempt.

        Isolating each attempt in its own single-worker pool means a
        point that hard-kills its process (``os._exit``, OOM) costs one
        pool, not the sweep; after the retry budget it is recorded as
        failed.  A quarantined point that *raises* instead of dying gets
        its actual traceback recorded against its index — a process
        death and a reproducible error must not be conflated.
        """
        attempts_allowed = 1 + self.max_point_retries
        for attempt in range(1, attempts_allowed + 1):
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    records = pool.submit(run_shard, [point.as_dict()], 0).result()
                records[0]["attempts_used"] = attempt
                return records[0]
            except BrokenProcessPool:
                continue
            except BaseException:
                return {
                    "index": point.index,
                    "params": point.as_dict(),
                    "status": "failed",
                    "attempts_used": attempt,
                    "error": traceback.format_exc(limit=8),
                }
        return {
            "index": point.index,
            "params": point.as_dict(),
            "status": "failed",
            "attempts_used": attempts_allowed,
            "error": "worker process died while running this point",
        }

    # -- journal + streaming merge --------------------------------------------

    def _record(self, outcomes: Dict[int, dict], record: dict) -> None:
        """Accept one finished record: journal it, refresh the partial."""
        outcomes[record["index"]] = record
        self.executed_indexes.append(record["index"])
        if self.store is not None:
            self.store.append(record)
        self._emit_progress(outcomes, record)
        if self.partial_path is not None:
            self._since_partial += 1
            if self._since_partial >= self.partial_every:
                self._since_partial = 0
                self._write_partial(outcomes)

    def _emit_progress(self, outcomes: Dict[int, dict], record: dict) -> None:
        """Feed the live progress channel, if one is attached.

        Execution-side only (like the journal): nothing here may leak
        into the report, so byte-identity across quiet and chatty runs
        is trivially preserved.
        """
        if record.get("status") != "ok":
            self._progress_failed += 1
        else:
            self._progress_sim += record["params"]["duration"]
        if self.progress is None:
            return
        self.progress({
            "index": record["index"],
            "status": record.get("status", "?"),
            "done": len(outcomes),
            "total": len(self.spec),
            "failed": self._progress_failed,
            "sim_cost": self._progress_sim,
        })

    def _write_partial(self, outcomes: Dict[int, dict]) -> None:
        """Atomically rewrite the in-flight progress document.

        Small on purpose: spec identity, per-point status, and the
        incrementally merged metrics — enough to watch a campaign
        converge (or a point fail) without touching the journal.  The
        write-to-temp-then-rename keeps the file parseable at every
        instant; it never holds a torn JSON document.
        """
        total = len(self.spec)
        statuses = {
            str(index): outcomes[index].get("status", "?")
            for index in sorted(outcomes)
        }
        merged = MetricsRegistry()
        for index in sorted(outcomes):
            record = outcomes[index]
            if record.get("status") == "ok":
                merged.merge(record["report"]["metrics"])
        document = {
            "spec": self.spec.as_dict(),
            "spec_hash": self.spec.content_hash(),
            "points_total": total,
            "points_done": len(outcomes),
            "statuses": statuses,
            "merged_metrics": merged.snapshot(),
        }
        temp = f"{self.partial_path}.tmp"
        write_json(temp, document)
        os.replace(temp, self.partial_path)

    # -- merge ---------------------------------------------------------------

    def run(self) -> Dict[str, object]:
        """Execute (or finish) the grid and return the merged report."""
        points = self.spec.points()
        outcomes: Dict[int, dict] = {}
        self.resumed_indexes = []
        self.executed_indexes = []
        self._since_partial = 0
        self._progress_failed = 0
        self._progress_sim = 0.0

        if self.store is not None and self.store.records:
            done = self.store.done()
            for index in sorted(done):
                record = self.store.records[index]
                outcomes[index] = record
                # Seed the progress counters so a resumed campaign's live
                # line starts from where the journal left off.
                if record.get("status") != "ok":
                    self._progress_failed += 1
                else:
                    self._progress_sim += record["params"]["duration"]
            self.resumed_indexes = sorted(done)
        pending = [p for p in points if p.index not in outcomes]

        if self.serial:
            self._execute_serial(pending, outcomes)
        else:
            self._execute_stealing(pending, outcomes)

        records = [outcomes[index] for index in sorted(outcomes)]
        merged = MetricsRegistry()
        verdicts: Dict[str, int] = {}
        failed = []
        for record in records:
            if record["status"] != "ok":
                failed.append(record["index"])
                continue
            merged.merge(record["report"]["metrics"])
            for verdict, count in record.get("verdicts", {}).items():
                verdicts[verdict] = verdicts.get(verdict, 0) + count
        self.merged_registry = merged

        sink = self._render_records(records, merged, verdicts)

        # The campaign is complete: the partial progress document has
        # served its purpose (the report supersedes it).
        if self.partial_path is not None and os.path.exists(self.partial_path):
            os.remove(self.partial_path)

        return {
            "spec": self.spec.as_dict(),
            "points": records,
            "merged": run_report(registry=merged),
            "summary": {
                "points": len(points),
                "ok": len(records) - len(failed),
                "failed": len(failed),
                "failed_points": failed,
                "records": sink,
                "verdicts": dict(sorted(verdicts.items())),
            },
        }

    def _iter_record_rows(self, records: List[dict]) -> Iterator[dict]:
        """Stream every measurement-record row in grid order.

        ``records`` is already sorted by grid index and each point's rows
        carry their in-point ``seq``, so the concatenation is the one
        canonical row order — the same regardless of worker count,
        scheduling order, or how many crash/resume cycles produced the
        point records.
        """
        for record in records:
            if record.get("status") != "ok":
                continue
            for row in record.get("records", ()):
                yield row

    def _render_records(
        self,
        records: List[dict],
        merged: MetricsRegistry,
        verdicts: Dict[str, int],
    ) -> Dict[str, object]:
        """Write the record file (if a sink is attached) and cross-check.

        The summary is computed whether or not a sink path is set, so the
        report's bytes never depend on the flag.  ``conserved`` is the
        observability cross-check: the sink's row count must equal the
        merged ``measurement_rows_total`` counter (each row was counted
        exactly once, in the worker where it was born), and the sink's
        per-verdict histogram must equal the report's verdict summary
        (every verdict became exactly one row).
        """
        rows = self._iter_record_rows(records)
        if self.record_path is not None:
            sink = write_records(
                self.record_path, self.spec.content_hash(), rows
            )
        else:
            sink = summarize_rows(rows)
        counted = merged.counter(
            "measurement_rows_total",
            "measurement-record rows produced",
            ("technique", "verdict"),
        ).total()
        sink["conserved"] = (
            counted == sink["rows"]
            and sink["by_verdict"] == dict(sorted(verdicts.items()))
        )
        return sink


def analyze_spec(spec: SweepSpec) -> Dict[str, object]:
    """Run ``spec`` serially in memory, writing no file, and score its
    record rows with the :class:`RecordAnalysis` ``repro report`` uses: the
    document equals ``repro sweep`` then ``repro report --json``.  Raises
    ``RuntimeError`` naming the failed points if any point failed."""
    runner = SweepRunner(spec, serial=True)
    report = runner.run()
    failed = report["summary"]["failed_points"]
    if failed:
        raise RuntimeError(f"sweep {spec.name!r}: points {failed} failed")
    rows = runner._iter_record_rows(report["points"])
    return RecordAnalysis().extend(rows).as_dict()
