"""Dispatch planning: the order sweep points enter the work-stealing queue.

Pure bookkeeping — no randomness, no load measurement — so the order is a
function of the point list alone.  :class:`QueuePlanner` orders points
for a shared queue that workers pull from as they finish.  Point costs
vary wildly across the grid (a lossy censored-as point with retries
simulates orders of magnitude more events than a clean three-node scan),
and a pull queue adapts to that skew without measuring anything.  The
planner's only job is the *initial* order: most expensive first
(longest-processing-time heuristic), so the grid's whales start
immediately instead of landing last on an otherwise-drained queue.

Because every point carries its own derived seed and workers rebuild
their simulators from the point parameters alone, *any* assignment of
points to workers — serial, stolen queue slots, a resume pass running
leftovers — produces identical per-point results; dispatch only decides
wall-clock balance, never outcomes.
"""

from __future__ import annotations

from typing import List, Sequence

from .spec import SweepPoint, parse_retry_policy

__all__ = ["QueuePlanner", "estimate_cost"]


def estimate_cost(point: SweepPoint) -> float:
    """A relative wall-clock cost estimate for one sweep point.

    Only the *ordering* this induces matters (the queue planner sorts by
    it); the scale is arbitrary.  The drivers, in observed order of
    impact: the censored-as topology simulates a whole AS rather than
    three hosts; loss multiplies event counts through retransmission and
    timer churn; extra measurement attempts replay the probe schedule;
    and ports × duration bound the raw probe volume.  A background
    population adds flow-arrival events proportional to users × duration
    (plus packet expansion for the tap-crossing share), easily dominating
    the measurement itself on large points — without this term the
    work-stealing queue would schedule population whales last and
    serialize the whole sweep behind them.
    """
    attempts = parse_retry_policy(point.retry).max_attempts
    base = 6.0 if point.topology == "censored-as" else 1.0
    loss_factor = 1.0 + 12.0 * point.loss
    retry_factor = 1.0 + 0.6 * (attempts - 1)
    cost = base * loss_factor * retry_factor * point.port_count * point.duration
    if point.population:
        cost += 2.0 * point.population * point.duration
    if point.delay:
        # injected wall-clock skew dwarfs simulated cost by construction;
        # weight it high enough that a delayed point always sorts first
        cost += 1e9 * point.delay
    return cost


class QueuePlanner:
    """Orders points for the shared work-stealing queue.

    Descending estimated cost, grid index as the deterministic
    tie-break.  The order affects only scheduling: results are merged by
    grid index regardless of completion order, so a wrong cost estimate
    costs wall-clock, never bytes.
    """

    def order(self, points: Sequence[SweepPoint]) -> List[SweepPoint]:
        return sorted(points, key=lambda p: (-estimate_cost(p), p.index))
