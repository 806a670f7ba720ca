"""The per-layer ledger: self time per layer from a traced run.

Spans come from two places.  ``repro.obs`` already records spans inside the
program (``parse.program``, ``universe.build``/``load``, ``comp.eval``,
``check.method``, ``incremental.resolve``, ``db.sqlite.*``, ``db.replay``,
``warm.round``, ``session.*``, ``shard.run``).  Layers with no span of their
own are timed here, from outside, by wrapping their public entry points in
``bench.*`` spans (:func:`install_wrappers`).  Every timed operation of a
workload runs inside a ``bench.op`` span, so the part of an operation no
layer claims is the self time of ``bench.op``: the unattributed time.

A span's self time is its duration minus the time its direct children
cover, reconstructed from ``ts``/``dur`` containment per ``(pid, tid)``,
the same way Perfetto nests them.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from collections import defaultdict

from repro import obs

#: span name -> the layer metric its self time is charged to
SPAN_LAYERS = {
    "parse.program": "lang.parse_ms",
    "universe.build": "apps.build_ms",
    "universe.load": "apps.load_ms",
    "bench.annotations.install": "annotations.install_ms",
    "comp.eval": "comp.eval_miss_ms",
    "bench.comp.termination": "comp.termination_ms",
    "bench.sqltc.check": "sqltc.check_ms",
    "check.method": "typecheck.check_method_ms",
    "bench.runtime.run": "runtime.run_ms",
    "bench.db.migration": "db.migration_ms",
    "bench.db.row_write": "db.row_write_ms",
    "db.sqlite.introspect": "db.sqlite_introspect_ms",
    "db.sqlite.ddl": "db.sqlite_ddl_ms",
    "db.replay": "db.replay_ms",
    "incremental.resolve": "incremental.resolve_ms",
    "fleet.plan_shards": "parallel.plan_ms",
    "fleet.merge": "parallel.merge_ms",
    "bench.parallel.merge": "parallel.merge_ms",
    "session.sync": "parallel.sync_ms",
    # engine-side waiting on the fleet; split further by the workload
    "bench.parallel.fanout": "parallel.fanout_ms",
    "fleet.round": "parallel.fanout_ms",
    "warm.round": "parallel.warm_round_ms",
    # worker-side envelopes around the layers above
    "shard.run": "parallel.worker_ms",
    "session.attach": "parallel.worker_ms",
    "session.delta": "parallel.worker_ms",
    "session.check": "parallel.worker_ms",
    "bench.op": "unattributed_ms",
}

#: the per-layer metrics a traced run prints, with their units
PER_LAYER = {
    "annotations.install_ms": "ms", "lang.parse_ms": "ms",
    "lang.parse_calls": "count", "apps.build_ms": "ms", "apps.load_ms": "ms",
    "comp.eval_miss_ms": "ms", "comp.eval_misses": "count",
    "comp.eval_hits": "count", "comp.cache_hit_rate": "ratio",
    "comp.termination_ms": "ms", "rtypes.subtype_queries": "count",
    "rtypes.subtype_memo_hit_rate": "ratio", "sqltc.check_ms": "ms",
    "typecheck.check_method_ms": "ms", "typecheck.methods_checked": "count",
    "runtime.run_ms": "ms", "runtime.membership_evals": "count",
    "runtime.membership_ic_hit_rate": "ratio",
    "runtime.check_overhead_pct": "%", "db.migration_ms": "ms",
    "db.row_write_us": "us", "db.sqlite_introspect_ms": "ms",
    "db.sqlite_ddl_ms": "ms", "db.replay_ms": "ms",
    "incremental.resolve_ms": "ms", "incremental.reuse_rate": "ratio",
    "incremental.methods_rechecked_per_batch": "count",
    "parallel.spawn_ms": "ms", "parallel.plan_ms": "ms",
    "parallel.sync_ms": "ms", "parallel.merge_ms": "ms",
    "parallel.critical_path_ms": "ms", "parallel.ipc_wait_ms": "ms",
    "parallel.worker_ms": "ms", "parallel.remote_round_frac": "ratio",
    "parallel.retries": "count", "ledger.wall_ms": "ms",
    "unattributed_ms": "ms", "unattributed_pct": "%",
    "trace_overhead_pct": "%",
}

#: float slack (µs) when deciding whether one span contains another
_EPS_US = 0.01


def self_times(events, pid: int | None = None) -> dict:
    """``{span name: [total self µs, count]}`` over complete events.

    With ``pid`` given, only that process's spans are counted.
    """
    by_thread: dict = defaultdict(list)
    for record in events:
        if record.get("ph") != "X":
            continue
        if pid is not None and record.get("pid") != pid:
            continue
        by_thread[(record.get("pid"), record.get("tid"))].append(record)
    totals: dict = defaultdict(lambda: [0.0, 0])
    for records in by_thread.values():
        records.sort(key=lambda r: (r["ts"], -r["dur"]))
        stack: list = []   # [end_us, name, child_us, dur_us]
        for record in records:
            start, dur = record["ts"], record["dur"]
            while stack and stack[-1][0] <= start + _EPS_US:
                _close(stack.pop(), totals)
            if stack:
                stack[-1][2] += dur
            stack.append([start + dur, record["name"], 0.0, dur])
        while stack:
            _close(stack.pop(), totals)
    return dict(totals)


def _close(frame, totals) -> None:
    _end, name, child_us, dur = frame
    entry = totals[name]
    entry[0] += max(0.0, dur - child_us)
    entry[1] += 1


def spans_named(events, name: str) -> list:
    return [r for r in events if r.get("ph") == "X" and r["name"] == name]


class Ledger:
    """Per-layer self times summed over the traced cycles of one run."""

    def __init__(self):
        self.layers: dict = defaultdict(float)     # every process
        self.driving: dict = defaultdict(float)    # this process only
        self.counts: dict = defaultdict(int)
        self.unmapped: set = set()
        self.wall_ms = 0.0
        self.cycles = 0

    def fold(self, events) -> None:
        """Add one traced cycle's spans."""
        pid = os.getpid()
        for target, only in ((self.layers, None), (self.driving, pid)):
            for name, (self_us, count) in self_times(events, only).items():
                layer = SPAN_LAYERS.get(name)
                if layer is None:
                    self.unmapped.add(name)
                    layer = f"other.{name}"
                target[layer] += self_us / 1e3
                if only is None:
                    self.counts[name] += count
        for record in spans_named(events, "bench.op"):
            if record.get("pid") == pid:
                self.wall_ms += record["dur"] / 1e3
        self.cycles += 1


def per_layer_metrics(wl, book: Ledger, counters: dict) -> dict:
    """Every PER_LAYER metric for one run: self times per traced cycle, the
    counters the traced operations bumped, and the workload's own figures
    (0 where a layer does no work on this workload)."""
    wl.finish_ledger(book.layers)
    wl.finish_ledger(book.driving)
    n = max(1, book.cycles)

    def ratio(num, den):
        return num / den if den else 0.0

    hits = counters.get("counters.comp.eval.hits", 0)
    misses = book.counts["comp.eval"]
    queries = counters.get("counters.subtype.queries", 0)
    ic_hits = counters.get("membership.ic_hits", 0)
    ic_evals = ic_hits + counters.get("membership.ic_misses", 0)
    writes = book.counts["bench.db.row_write"]
    metrics = {name: book.layers.get(name, 0.0) / n
               for name, unit in PER_LAYER.items() if unit == "ms"}
    metrics.update({
        "lang.parse_calls": book.counts["parse.program"] / n,
        "comp.eval_misses": misses / n,
        "comp.eval_hits": hits / n,
        "comp.cache_hit_rate": ratio(hits, hits + misses),
        "rtypes.subtype_queries": queries / n,
        "rtypes.subtype_memo_hit_rate": ratio(
            counters.get("counters.subtype.memo_hits", 0), queries),
        "typecheck.methods_checked": book.counts["check.method"] / n,
        "runtime.membership_evals": ic_evals / n,
        "runtime.membership_ic_hit_rate": ratio(ic_hits, ic_evals),
        "runtime.check_overhead_pct": 0.0,
        "db.row_write_us": ratio(book.layers.get("db.row_write_ms", 0.0)
                                 * 1e3, writes),
        "incremental.reuse_rate": 0.0,
        "incremental.methods_rechecked_per_batch": 0.0,
        "parallel.remote_round_frac": 0.0,
        "parallel.retries": 0.0,
        "ledger.wall_ms": book.wall_ms / n,
        "unattributed_pct": ratio(book.driving.get("unattributed_ms", 0.0)
                                  * 100.0, book.wall_ms),
        "trace_overhead_pct": trace_overhead_pct(wl),
    })
    metrics["unattributed_ms"] = book.driving.get("unattributed_ms", 0.0) / n
    metrics.update(wl.layer_metrics())
    return {name: metrics[name] for name in PER_LAYER}


def trace_overhead_pct(wl) -> float:
    """Traced over untraced time of the ledger's ops, each op kind's median
    ratio weighted by its share of the untraced time."""
    total = sum(sum(wl.plain[kind]) for kind in ("verify", "step"))
    if not total:
        return 0.0
    ratio = 0.0
    for kind in ("verify", "step"):
        plain, traced = wl.plain.get(kind), wl.traced.get(kind)
        if plain and traced:
            weight = sum(plain) / total
            ratio += weight * statistics.median(traced) / statistics.median(plain)
    return (ratio - 1.0) * 100.0


# ---------------------------------------------------------------------------
# benchmark-side wrappers around the layers that record no span of their own
# ---------------------------------------------------------------------------

def _wrap(owner, attr: str, span_name: str, undo: list) -> None:
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        with obs.span(span_name):
            return original(*args, **kwargs)

    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)
    undo.append((owner, attr, original))


@contextlib.contextmanager
def install_wrappers():
    """Time the dark layers from outside for the duration of the block:
    library install, the termination check, raw-SQL fragment checks and
    the cold fleet's fan-out and merge steps (its planner already records
    ``fleet.plan_shards``)."""
    import repro.api
    import repro.parallel.engine as engine
    import repro.sqltc.checker as sqltc
    from repro.comp.termination import TerminationChecker

    undo: list = []
    _wrap(repro.api, "install_all", "bench.annotations.install", undo)
    _wrap(TerminationChecker, "check_comp_code", "bench.comp.termination", undo)
    _wrap(sqltc, "check_fragment", "bench.sqltc.check", undo)
    _wrap(engine, "merge_report", "bench.parallel.merge", undo)
    _wrap(engine, "feed_incremental", "bench.parallel.merge", undo)
    pool_class = engine.ProcessPoolExecutor

    class _TimedPool(pool_class):
        """The per-call worker pool, with its whole life (spawn, fan-out,
        shutdown) recorded as one ``bench.parallel.fanout`` span."""

        def __enter__(self):
            self._bench_span = obs.span("bench.parallel.fanout")
            self._bench_span.__enter__()
            return super().__enter__()

        def __exit__(self, *exc_info):
            try:
                return super().__exit__(*exc_info)
            finally:
                self._bench_span.__exit__(*exc_info)

    engine.ProcessPoolExecutor = _TimedPool
    undo.append((engine, "ProcessPoolExecutor", pool_class))
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
