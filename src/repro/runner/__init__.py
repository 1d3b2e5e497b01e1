"""Scale-out scenario sweeps: declarative grids, resumable campaigns,
work-stealing execution, deterministic merge.

The campaign service the ROADMAP's resumable-sweep item asks for:
:class:`SweepSpec` declares a cartesian grid of scenario parameters
(and content-hashes it), :class:`CampaignStore` journals every finished
point to an append-only JSONL checkpoint, :class:`QueuePlanner` orders
the work-stealing queue, and :class:`SweepRunner` executes the grid —
serially or on a process pool, fresh or resumed from a journal — and
folds per-point metrics into one snapshot byte-identical to an
uninterrupted serial run.  See ``docs/ARCHITECTURE.md`` ("The sweep
runner" / "Resumable campaigns") for the design.
"""

from .runner import SweepRunner, analyze_spec
from .shard import QueuePlanner, estimate_cost
from .spec import E1_PACK, TOPOLOGIES, SweepPoint, SweepSpec, parse_retry_policy
from .store import CampaignStore
from .worker import run_point, run_shard

__all__ = [
    "CampaignStore",
    "E1_PACK",
    "QueuePlanner",
    "SweepPoint",
    "SweepSpec",
    "SweepRunner",
    "TOPOLOGIES",
    "analyze_spec",
    "estimate_cost",
    "parse_retry_policy",
    "run_point",
    "run_shard",
]
