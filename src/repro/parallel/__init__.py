"""Parallel checking: session workers → verdict-parity back-feed.

A :class:`ParallelCheckEngine` runs its session on the process's pool of
session workers of its width, forked from a preloaded template
(:mod:`repro.parallel.sessions`, :mod:`repro.parallel.template`) and kept
up between rounds and between engines; the workers hold replicas of a live
universe's subject app, keyed by session.  Each round partitions one
label's pending methods into cost-balanced shards
(:mod:`repro.parallel.planner`) and sends each worker one
:class:`CheckRequest` (:mod:`repro.parallel.worker`): the session's attach
when the worker holds none of its replicas, the schema-journal events and
post-build load records it has not applied, and its shard.  The engine
adopts the picklable verdicts and their dependency footprints back
into the universe's incremental engine (:mod:`repro.parallel.merge`), so
the report is verdict-for-verdict identical to a serial run.  Every worker
speaks one protocol (:mod:`repro.parallel.protocol`).

``CompRDL.check_all(label, workers=N)`` and ``CompRDL.recheck_dirty(
workers=N)`` are both such rounds — a cold check is an attach with an empty
delta — and several apps are one round per app.  A universe with no engine
of that width checks through a fresh one that detaches when the round
ends, and the workers keep its still-pristine replicas for the next cold
check of that app; pass a primed engine to ``CompRDL.adopt_warm_engine`` to keep one
session across rounds.
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
    DetachSession,
    MethodSpec,
    MethodVerdict,
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
    "DetachSession",
    "MethodSpec",
    "MethodVerdict",
    "ParallelCheckEngine",
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
