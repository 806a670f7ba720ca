"""Deterministic verdict merging and incremental back-feed.

Workers finish in whatever order the scheduler and the OS allow, so the
merge never trusts arrival order: the caller supplies the *serial order* —
the exact method sequence a one-process ``check_label`` walk would visit —
and verdicts are folded into the report in that order.  The resulting
:class:`TypeErrorReport` is verdict-for-verdict identical to a serial run:
same ``checked_methods`` sequence, same error order, same cast counters.

``feed_incremental`` then installs each verdict and its recorded dependency
footprint into a universe's scheduler and dependency tracker, so
``recheck_dirty()`` after a parallel cold check dirties exactly the same
methods a serially-checked universe would.
"""

from __future__ import annotations

from repro.incremental.scheduler import MethodResult
from repro.obs.state import PROVENANCE as _PROV_ON
from repro.parallel.protocol import MethodSpec, MethodVerdict, ShardResult
from repro.typecheck.errors import TypeErrorReport


class ShardGapError(RuntimeError):
    """A shard failed to produce verdicts the merge needed."""


def collect_verdicts(results: list[ShardResult]) -> dict[MethodSpec, MethodVerdict]:
    verdicts: dict[MethodSpec, MethodVerdict] = {}
    for result in results:
        for verdict in result.verdicts:
            verdicts[verdict.spec] = verdict
    return verdicts


def merge_report(serial_order: list[MethodSpec],
                 results: list[ShardResult]) -> TypeErrorReport:
    """Fold shard results into one report, in serial checking order."""
    verdicts = collect_verdicts(results)
    missing = [spec.desc for spec in serial_order if spec not in verdicts]
    if missing:
        raise ShardGapError(
            f"no verdict returned for {len(missing)} method(s): "
            f"{', '.join(missing[:5])}{'…' if len(missing) > 5 else ''}")
    report = TypeErrorReport()
    for spec in serial_order:
        verdict = verdicts[spec]
        report.checked_methods.append(verdict.desc)
        report.errors.extend(verdict.rebuild_errors())
        report.casts_used += verdict.casts_used
        report.oracle_casts += verdict.oracle_casts
    return report


def feed_incremental(scheduler, results: list[ShardResult],
                     generation: int, producer: dict) -> int:
    """Install worker verdicts into a universe's incremental engine.

    Each method gets a cached :class:`MethodResult` checked at
    ``generation`` plus its worker-recorded dependency footprint, its dirty
    flag is cleared, and its observed cost feeds the planner's cost model
    for the next round.  Returns the number of verdicts adopted.

    With provenance enabled, each adoption is also recorded in the
    scheduler's ledger: ``producer`` supplies the production kind (the
    engine passes ``{"kind": "warm", "session": id}``) and the worker's
    pid/shard plus the piggybacked comp-cache deltas are filled in per
    verdict.
    """
    tracker = scheduler.tracker
    stats = scheduler.stats
    prov_on = _PROV_ON[0]
    journal = getattr(scheduler.db, "journal", None)
    adopted = 0
    for result in results:
        for verdict in result.verdicts:
            key = verdict.spec.key()
            errors = verdict.rebuild_errors()
            scheduler.results[key] = MethodResult(
                key=key,
                desc=verdict.desc,
                errors=errors,
                casts_used=verdict.casts_used,
                oracle_casts=verdict.oracle_casts,
                generation=generation,
            )
            tracker.adopt(key, verdict.deps)
            scheduler.dirty.discard(key)
            if prov_on:
                who = dict(producer)
                who["pid"] = result.pid
                who["shard"] = result.shard_id
                comp_hits, comp_misses = verdict.prov or (0, 0)
                scheduler.provenance.record(
                    key, verdict.desc, errors, generation,
                    deps=verdict.deps,
                    producer=who,
                    comp_hits=comp_hits,
                    comp_misses=comp_misses,
                    wall_s=verdict.cost_s,
                    journal=journal,
                )
            # adopted verdicts count as *parallel* work only: methods_checked
            # tracks in-process checks, and a later resolve() pass over these
            # keys must see genuine reuse, not double-counted checks
            stats.methods_checked_parallel += 1
            stats.observe_cost(verdict.desc, verdict.cost_s)
            adopted += 1
        stats.parallel_shards += 1
    return adopted
