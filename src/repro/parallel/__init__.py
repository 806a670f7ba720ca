"""Parallel checking: session workers → verdict-parity back-feed.

A :class:`ParallelCheckEngine` keeps a pool of spawn-mode session workers
(:mod:`repro.parallel.sessions`) that attach replicas of a live universe's
subject app once, then receive schema-journal deltas and post-build load
records (:class:`SessionDelta`) instead of rebuilding.  Each round
partitions one label's pending methods into cost-balanced shards
(:mod:`repro.parallel.planner`), checks each shard on a worker
(:mod:`repro.parallel.worker`) and adopts the picklable verdicts and their
dependency footprints back into the universe's incremental engine
(:mod:`repro.parallel.merge`), so the report is verdict-for-verdict
identical to a serial run.  Every worker speaks one protocol
(:mod:`repro.parallel.protocol`).

``CompRDL.check_all(label, workers=N)`` and ``CompRDL.recheck_dirty(
workers=N)`` are both such rounds — a cold check is an attach with an empty
delta — and several apps are one round per app.  Pass a primed engine to
``CompRDL.adopt_warm_engine`` to share one fleet across universes.
"""

from repro.parallel.engine import (
    ParallelCheckEngine,
    WarmSyncError,
    specs_for_labels,
)
from repro.parallel.merge import (
    ShardGapError,
    feed_incremental,
    merge_report,
)
from repro.parallel.planner import Shard, method_cost, plan_shards
from repro.parallel.protocol import (
    AttachAck,
    AttachUniverse,
    CheckRequest,
    DeltaAck,
    DetachSession,
    MethodSpec,
    MethodVerdict,
    SessionDelta,
    SessionError,
    ShardResult,
    Shutdown,
)
from repro.parallel.sessions import (
    SessionPool,
    SessionRequestFailed,
    WarmRun,
    WorkerLost,
)

__all__ = [
    "AttachAck",
    "AttachUniverse",
    "CheckRequest",
    "DeltaAck",
    "DetachSession",
    "MethodSpec",
    "MethodVerdict",
    "ParallelCheckEngine",
    "SessionDelta",
    "SessionError",
    "SessionPool",
    "SessionRequestFailed",
    "Shard",
    "ShardGapError",
    "ShardResult",
    "Shutdown",
    "WarmRun",
    "WarmSyncError",
    "WorkerLost",
    "feed_incremental",
    "merge_report",
    "method_cost",
    "plan_shards",
    "specs_for_labels",
]
