"""``repro.obs`` — unified tracing and metrics for the whole checker stack.

One subsystem answers "where does a check round spend its time" across every
layer grown so far: parse/compile, universe construction, comp evaluation
(hit vs. miss), subtype queries, the shard planner, session-worker
attach/delta/check, and the storage backends.

Usage::

    import repro.obs as obs

    obs.enable()
    rdl = CompRDL(...); rdl.load(src); rdl.check_all()
    obs.export_chrome_trace("trace.json")     # load in Perfetto
    print(obs.render_summary())               # per-phase table
    print(obs.metrics_snapshot(rdl.incremental_stats))

or set ``REPRO_TRACE=1`` (record; export via API) / ``REPRO_TRACE=path.json``
(record and auto-export there at process exit).  Tracing defaults to *off*
and costs nothing when off — see :mod:`repro.obs.spans`.

Spans recorded inside worker processes are shipped back piggybacked on the
parallel protocol's replies and merged into the engine's buffer with their
own pid, so one exported trace shows the whole fleet on a shared
``perf_counter`` timeline.
"""

from __future__ import annotations

from repro.obs import faults, provenance
from repro.obs.export import (
    ExportPathError,
    chrome_trace,
    export_chrome_trace,
    open_export,
    phase_summary,
    render_summary,
)
from repro.obs.metrics import metrics_diff, metrics_snapshot
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    absorb,
    buffered,
    bump,
    counters,
    disable,
    drain,
    enable,
    enabled,
    event,
    events,
    mark,
    reset,
    set_enabled,
    span,
    traced,
)
from repro.obs.state import env_switch

__all__ = [
    "ExportPathError", "NULL_SPAN", "Span", "absorb", "buffered", "bump",
    "chrome_trace", "counters", "disable", "drain", "enable", "enabled",
    "event", "events",
    "export_chrome_trace", "faults", "mark", "metrics_diff",
    "metrics_snapshot",
    "open_export", "phase_summary", "provenance", "render_summary", "reset",
    "set_enabled", "span", "traced",
]


def _in_worker_process() -> bool:
    """Whether this is a child process started by :mod:`multiprocessing`
    (its records travel back on protocol replies, and an atexit export in
    each child would clobber the parent's file).  Session workers never
    get here: they fork from a template that imported this module with
    the switches removed from its environment."""
    import multiprocessing
    return multiprocessing.parent_process() is not None


def _bootstrap_from_env() -> None:
    """Honour ``REPRO_TRACE`` and ``REPRO_PROVENANCE`` at import: enable
    recording, and when a value names a path, export there at exit — but
    only from the *main* process."""
    on, path = env_switch("REPRO_TRACE")
    if on:
        enable()
        if path is not None and not _in_worker_process():
            import atexit

            def _export_trace(path=path):
                export_chrome_trace(path, metrics=metrics_snapshot())

            atexit.register(_export_trace)
    on, prov_path = env_switch("REPRO_PROVENANCE")
    if on:
        provenance.enable()
        if prov_path is not None and not _in_worker_process():
            import atexit

            def _export_provenance(path=prov_path):
                provenance.export_jsonl(path)

            atexit.register(_export_provenance)


_bootstrap_from_env()
