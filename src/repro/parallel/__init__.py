"""Parallel sharded checking: planner → session workers → verdict-parity merge.

The fleet partitions the methods of one or more subject-app labels into
cost-balanced shards (:mod:`repro.parallel.planner`), checks each shard in a
spawn-mode session worker (:mod:`repro.parallel.worker`), and
deterministically folds the picklable verdicts back into a single report
that is verdict-for-verdict identical to a serial run, back-feeding
dependency footprints into the incremental engine
(:mod:`repro.parallel.merge`).

Every worker speaks one protocol (:mod:`repro.parallel.protocol`).  A cold
check of subject-app labels is a :class:`CheckRequest` with session id
``None``, which the worker serves from its catalog of pristine replicas
(built once per process).  A live universe is checked through **warm
sessions** (:mod:`repro.parallel.sessions`): session workers attach
replicas of its subject app once, then receive schema-journal deltas and
post-build load records (:class:`SessionDelta`) and check only pending
methods — no rebuilds between rounds.  ``CompRDL.check_all(labels,
workers=N)`` and ``CompRDL.recheck_dirty(workers=N)`` are both such rounds;
a cold check is an attach with an empty delta.

Use :class:`ParallelCheckEngine` for a persistent fleet,
:func:`check_fleet` for one-shot checks of subject-app labels, or the two
``CompRDL`` calls above for a live universe.
"""

from repro.parallel.engine import (
    ParallelCheckEngine,
    ParallelRun,
    WarmSyncError,
    check_fleet,
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
    "ParallelRun",
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
    "check_fleet",
    "feed_incremental",
    "merge_report",
    "method_cost",
    "plan_shards",
    "specs_for_labels",
]
