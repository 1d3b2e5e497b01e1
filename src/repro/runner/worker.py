"""Sweep worker: executes grid points in an isolated simulator + registry.

``run_point`` is the whole unit of isolation: it builds a fresh
:class:`~repro.netsim.engine.Simulator` (seeded from the point alone), a
fresh :class:`~repro.obs.MetricsRegistry` installed only for the scope of
the run, executes the scenario, and returns a JSON-ready record — no
state leaks between points, so a point's record is identical whether it
runs in-process, in a pool worker, or on the third retry after a sibling
crashed.  ``run_shard`` wraps a worker's point list with per-point
exception containment and a bounded retry budget.

Both functions take and return plain dicts (not dataclasses) so they
cross the ``ProcessPoolExecutor`` pickle boundary without dragging
simulator objects along.
"""

from __future__ import annotations

import os
import pickle
import re
import time
import traceback
from typing import Dict, List, Mapping, Optional

from ..analysis.metrics import run_report
from ..core.evaluation import build_environment, technique_factory
from ..core.measurement import MeasurementContext
from ..core.results import summarize
from ..core.risk import assess_risk
from ..core.scanning import ScanMeasurement, ScanTarget
from ..netsim import WebServer, build_three_node, burst_loss_profile
from ..obs import MetricsRegistry, use_registry
from ..results.record import rows_from_point
from .spec import SweepPoint

__all__ = ["run_point", "run_shard"]


def _impairment_profile(point: SweepPoint):
    return burst_loss_profile(
        marginal=point.loss, mean_burst_length=point.burst, jitter=0.001
    )


def _serialize_results(results) -> List[Dict[str, object]]:
    return [
        {
            "target": result.target,
            "verdict": result.verdict.value,
            "detail": result.detail,
            "time": result.time,
            "samples": result.samples,
            "attempts": result.attempts,
            "confidence": result.confidence,
        }
        for result in results
    ]


def _record_rows(
    point: SweepPoint,
    results: List[Dict[str, object]],
    registry: MetricsRegistry,
    censor: str,
    evaded: Optional[bool],
    background_bytes: int = 0,
) -> List[Dict[str, object]]:
    """Build the point's measurement-record rows and count them.

    Runs before the registry snapshot is taken, so the
    ``measurement_rows_total`` counter it bumps rides the merged metrics —
    that counter's total equaling the record sink's row count is the
    conservation cross-check the runner's report carries.
    """
    rows = rows_from_point(
        point.as_dict(), results, point.vantage_name(), censor, evaded,
        background_bytes=background_bytes,
    )
    counter = registry.counter(
        "measurement_rows_total",
        "measurement-record rows produced",
        ("technique", "verdict"),
    )
    for row in rows:
        counter.inc((row["technique"], row["verdict"]))
    return rows


def _run_three_node(point: SweepPoint, registry: MetricsRegistry) -> Dict[str, object]:
    """The false-block-curve workload: scan a known-open server over an
    (optionally) impaired path with no censor anywhere."""
    topo = build_three_node(seed=point.sim_seed)
    WebServer(topo.server)
    if point.loss > 0.0:
        topo.network.impair_all_links(_impairment_profile(point))
    ctx = MeasurementContext(client=topo.client, retry_policy=point.retry_policy())
    technique = ScanMeasurement(
        ctx,
        [ScanTarget(topo.server.ip, [80], "server")],
        port_count=point.port_count,
        probe_interval=0.005,
        timeout=1.0,
    )
    technique.start()
    topo.sim.run(until=topo.sim.now + point.duration)
    results = _serialize_results(technique.results)
    # No censor and no MVR anywhere in this topology: censor="none",
    # evasion not applicable.
    rows = _record_rows(point, results, registry, censor="none", evaded=None)
    payload = {
        "results": results,
        "verdicts": summarize(technique.results),
        "technique_done": technique.done,
        "records": rows,
        "report": run_report(
            registry=registry, sim=topo.sim, links=topo.network.links
        ),
    }
    topo.network.teardown()
    return payload


def _run_censored_as(point: SweepPoint, registry: MetricsRegistry) -> Dict[str, object]:
    """The Figure-1 workload: one technique inside the full censored AS."""
    censored = point.effective_censored()
    env = build_environment(
        censored=censored,
        seed=point.sim_seed,
        censor=point.censor_name(),
        synthetic_users=point.population,
    )
    if point.loss > 0.0:
        env.topo.network.impair_all_links(_impairment_profile(point))
    env.ctx.retry_policy = point.retry_policy()
    technique = technique_factory(point.technique, point.cover)(env)
    if env.population is not None:
        # Background cover runs for the whole measurement window; hybrid
        # fidelity expands only the tap-crossing share to packets.
        env.population.start(point.duration)
    technique.start()
    env.run(duration=point.duration)
    results = _serialize_results(technique.results)
    # Point-level evasion verdict for the record rows: read-only
    # (run_analyst=False) so probing the risk model never perturbs the
    # surveillance summary the report already carries.
    risk = assess_risk(
        env.surveillance,
        technique=technique.name,
        measurer_user=env.topo.measurement_client.user or "measurer",
        measurer_ip=env.topo.measurement_client.ip,
        run_analyst=False,
    )
    # Record rows carry the enforcing model's family name; a clean
    # vantage has nothing enforcing (every family is inert under a
    # disabled policy), so its rows keep the legacy "none".
    rows = _record_rows(
        point, results, registry,
        censor=point.censor_name() if censored else "none",
        evaded=risk.evaded,
        background_bytes=(
            env.population.bytes_total() if env.population is not None else 0
        ),
    )
    payload = {
        "results": results,
        "verdicts": summarize(technique.results),
        "technique_done": technique.done,
        "censor_events": len(env.censor.events),
        "records": rows,
        "risk": {
            "attributed_alerts": risk.attributed_alerts,
            "attribution_confidence": risk.attribution_confidence,
            "evaded": risk.evaded,
        },
        "report": run_report(
            registry=registry,
            sim=env.sim,
            links=env.topo.network.links,
            surveillance=env.surveillance,
        ),
    }
    env.topo.network.teardown()
    return payload


def run_point(point_data: Mapping[str, object], in_process: bool = False) -> Dict[str, object]:
    """Execute one sweep point and return its JSON-ready record.

    ``in_process`` softens the ``fail="exit"`` injection into an
    exception: serial mode runs points in the parent process, where an
    ``os._exit`` would kill the sweep itself instead of a worker.
    """
    point = SweepPoint.from_dict(point_data)
    if point.delay:
        # inject_delays cost-skew hook: burn wall-clock without touching
        # the simulation, so dispatch order is the only thing that moves
        time.sleep(point.delay)
    if point.fail == "exit" and not in_process:
        os._exit(41)  # simulate a hard worker death (OOM-kill, segfault)
    if point.fail == "unpicklable":
        # A record whose payload cannot cross the pool's pickle boundary
        # (the shape of a metric/result object leaking a lock, a lambda,
        # a socket).  run_shard's picklability guard must turn this into
        # a failed record *naming this point* — the regression for
        # treating result-pickling errors as anonymous shard deaths.
        return {
            "index": point.index,
            "params": point.as_dict(),
            "status": "ok",
            "poison": lambda: None,
        }
    if point.fail:
        raise RuntimeError(f"injected failure at sweep point {point.index}")

    registry = MetricsRegistry()
    with use_registry(registry):
        if point.topology == "three-node":
            payload = _run_three_node(point, registry)
        else:
            payload = _run_censored_as(point, registry)
    record: Dict[str, object] = {
        "index": point.index,
        "params": point.as_dict(),
        "status": "ok",
    }
    record.update(payload)
    return record


def _unpicklable_error(record: Dict[str, object]) -> Optional[str]:
    """Return an error message if ``record`` cannot cross the pool boundary.

    A worker whose *result* fails to pickle used to surface as an
    anonymous executor exception — indistinguishable from the point
    itself failing, and naming no point at all.  Checking picklability
    where the record is born (the worker still knows which point it
    belongs to) turns that into an ordinary failed record.  Runs in
    serial mode too, so serial and pooled sweeps of the same spec stay
    byte-identical even for poisoned records.
    """
    try:
        pickle.dumps(record)
        return None
    except Exception as exc:
        # Scrub memory addresses from the message ("<function <lambda> at
        # 0x7f...>"): error records are part of the report, and reports
        # must stay byte-identical across runs and execution modes.
        detail = re.sub(r"0x[0-9a-fA-F]+", "0x..", str(exc))
        return (
            f"result for sweep point {record['index']} could not be "
            f"pickled and cannot cross the worker boundary: "
            f"{type(exc).__name__}: {detail}"
        )


def run_shard(
    shard_points: List[Mapping[str, object]],
    max_point_retries: int = 1,
    in_process: bool = False,
) -> List[Dict[str, object]]:
    """Run a worker's points with per-point containment.

    A point that raises is retried up to ``max_point_retries`` times and
    then recorded as ``status="failed"`` with the traceback — one broken
    scenario never takes down the rest of the shard.  A point whose
    *record* is unpicklable is failed immediately (no retries: the
    poison is deterministic) with an error naming the point.  (A point
    that kills the whole process is the parent's problem; see
    :meth:`SweepRunner._run_point_quarantined`.)
    """
    if max_point_retries < 0:
        raise ValueError(f"max_point_retries must be >= 0 (got {max_point_retries})")
    attempts_allowed = 1 + max_point_retries
    records = []
    for point_data in shard_points:
        for attempt in range(1, attempts_allowed + 1):
            try:
                record = run_point(point_data, in_process=in_process)
                record["attempts_used"] = attempt
                poison = _unpicklable_error(record)
                if poison is not None:
                    record = {
                        "index": point_data["index"],
                        "params": dict(point_data),
                        "status": "failed",
                        "attempts_used": attempt,
                        "error": poison,
                    }
                break
            except Exception:
                if attempt == attempts_allowed:
                    record = {
                        "index": point_data["index"],
                        "params": dict(point_data),
                        "status": "failed",
                        "attempts_used": attempt,
                        "error": traceback.format_exc(limit=8),
                    }
        records.append(record)
    return records
