"""Table 1: library methods with comp type definitions.

Loads the annotation sets and counts, per library: comp type definitions,
lines of type-level code, and shared helper methods — side by side with the
paper's reported numbers.

Run with ``python -m repro.evaluation.table1``.  Pass ``--check-apps`` to
additionally cold-check every subject-app method those libraries serve,
one app at a time as the paper does (``--workers N`` makes each app's
check a ``check_all(label, workers=N)`` round on session workers, see
:mod:`repro.parallel`).
"""

from __future__ import annotations

from repro.api import CompRDL

PAPER_TABLE1 = {
    "Array": {"comp_defs": 114, "loc": 215, "helpers": 15},
    "Hash": {"comp_defs": 48, "loc": 247, "helpers": 15},
    "String": {"comp_defs": 114, "loc": 178, "helpers": 12},
    "Float": {"comp_defs": 98, "loc": 12, "helpers": 1},
    "Integer": {"comp_defs": 108, "loc": 12, "helpers": 1},
    "ActiveRecord": {"comp_defs": 77, "loc": 375, "helpers": 18},
    "Sequel": {"comp_defs": 27, "loc": 408, "helpers": 22},
}

_ORDER = ["Array", "Hash", "String", "Float", "Integer", "ActiveRecord", "Sequel"]


def table1_rows(rdl: CompRDL | None = None) -> dict:
    """Measured Table 1 numbers from a loaded CompRDL instance."""
    if rdl is None:
        rdl = CompRDL()
    stats = dict(rdl.library_stats)
    helpers = stats.pop("_helpers", {"count": 0})["count"]
    rows = {}
    for library in _ORDER:
        measured = stats.get(library, {"comp_defs": 0, "loc": 0})
        rows[library] = {
            "comp_defs": measured["comp_defs"],
            "loc": measured["loc"],
            "paper_comp_defs": PAPER_TABLE1[library]["comp_defs"],
            "paper_loc": PAPER_TABLE1[library]["loc"],
        }
    rows["_total"] = {
        "comp_defs": sum(rows[l]["comp_defs"] for l in _ORDER),
        "loc": sum(rows[l]["loc"] for l in _ORDER),
        "paper_comp_defs": 586,
        "paper_loc": 1447,
        "helpers": helpers,
        "paper_helpers": 83,
    }
    return rows


def render_table1(rows: dict | None = None) -> str:
    rows = rows or table1_rows()
    lines = [
        "Table 1: Library methods with comp type definitions",
        f"{'Library':<14}{'CompDefs':>10}{'(paper)':>9}{'Type LoC':>10}{'(paper)':>9}",
        "-" * 52,
    ]
    for library in _ORDER:
        row = rows[library]
        lines.append(
            f"{library:<14}{row['comp_defs']:>10}{row['paper_comp_defs']:>9}"
            f"{row['loc']:>10}{row['paper_loc']:>9}"
        )
    total = rows["_total"]
    lines.append("-" * 52)
    lines.append(
        f"{'Total':<14}{total['comp_defs']:>10}{total['paper_comp_defs']:>9}"
        f"{total['loc']:>10}{total['paper_loc']:>9}"
    )
    lines.append(
        f"Helper methods: {total['helpers']} (paper: {total['paper_helpers']})"
    )
    return "\n".join(lines)


def fleet_check_rows(workers: int = 1, backend: str | None = None) -> dict:
    """Cold-check every subject app's labelled methods, one app at a time.

    Each app is a fresh universe checked with ``check_all(label,
    workers=N)``: with ``workers > 1`` that is a session round on a fresh
    fleet, whose verdicts are identical to a serial walk either way.
    ``backend`` selects the storage backend every universe is built
    against (memory or sqlite) — verdicts are identical on both, which is
    the point.  Methods, errors, wall time and critical path are summed
    over the apps; an app checked in-process counts its wall time as its
    critical path.
    """
    import time

    from repro.apps import all_apps
    from repro.parallel import ParallelCheckEngine

    rows = {"methods": 0, "errors": [], "workers": workers,
            "backend": backend or "default", "wall_s": 0.0,
            "critical_path_s": 0.0}
    for app in all_apps():
        rdl = app.build(backend=backend)
        with ParallelCheckEngine(workers=workers, backend=backend) as engine:
            rdl.adopt_warm_engine(engine)
            start = time.perf_counter()
            report = rdl.check_all(app.label, workers=workers)
            wall = time.perf_counter() - start
            run = engine.last_warm_run
        rows["methods"] += len(report.checked_methods)
        rows["errors"].extend(str(e) for e in report.errors)
        rows["wall_s"] += wall
        rows["critical_path_s"] += (run.critical_path_s
                                    if run is not None and run.remote
                                    else wall)
    return rows


def warm_recheck_rows(workers: int = 2, backend: str | None = None) -> dict:
    """Demo the warm session lifecycle on every table-backed subject app.

    Each app is checked once, a probe column is added to its busiest table,
    and the dirty methods are re-verified through warm session workers
    (``recheck_dirty(workers=N)``) — live replicas receive the journal
    delta instead of rebuilding.  Rows report how much of the app a warm
    round actually re-checks and what it cost.
    """
    import time

    from repro.apps import all_apps

    workers = max(2, workers)  # warm sessions exist at workers > 1 only
    rows = {}
    for app in all_apps():
        rdl = app.build(backend=backend)
        rdl.check_all(app.label)
        tables = rdl.incremental.table_fanout()
        table = max(sorted(t for t in tables if t in rdl.db.tables),
                    key=lambda t: tables[t], default=None)
        if table is None:
            continue  # table-less API-client app: no migrations to replay
        rdl.db.add_column(table, "warm_probe", "string")
        start = time.perf_counter()
        report = rdl.recheck_dirty(workers=workers)
        wall = time.perf_counter() - start
        run = rdl.warm_engine.last_warm_run
        rows[app.label] = {
            "table": table,
            "methods": len(report.checked_methods),
            "rechecked": run.methods,
            "remote": run.remote,
            "fallback_reason": run.fallback_reason,
            "wall_s": wall,
            "errors": len(report.errors),
        }
        rdl.shutdown_warm()
    return rows


def render_warm_recheck(workers: int = 2, backend: str | None = None) -> str:
    rows = warm_recheck_rows(workers, backend=backend)
    lines = [
        "",
        f"Warm session recheck after a one-column migration "
        f"({workers} session worker(s)):",
        f"  {'app':<12}{'migrated table':<16}{'methods':>8}"
        f"{'re-checked':>11}{'mode':>8}{'wall (ms)':>11}",
    ]
    for label, row in rows.items():
        mode = "warm" if row["remote"] else "serial"
        lines.append(
            f"  {label:<12}{row['table']:<16}{row['methods']:>8}"
            f"{row['rechecked']:>11}{mode:>8}{row['wall_s'] * 1e3:>11.1f}"
        )
        if not row["remote"] and row["fallback_reason"]:
            lines.append(f"      fell back to serial: {row['fallback_reason']}")
    lines.append("  (warm rounds ship the re-checked dirty methods to live "
                 "replicas and serve the rest from cached verdicts; serial "
                 "rounds re-checked the dirty set in-process)")
    return "\n".join(lines)


def explain_verdict(target: str, backend: str | None = None) -> str:
    """Render the provenance tree for one subject-app method's verdict.

    ``target`` names the method RDL-style: ``Class#method`` for instance
    methods, ``Class.method`` for static ones.  The subject app that
    defines (or annotates) the method is located by registry lookup, its
    label is checked with the provenance ledger enabled, and the recorded
    entry is rendered as the ``explain()`` tree.
    """
    from repro import obs
    from repro.apps import all_apps
    from repro.typecheck.registry import MethodKey

    if "#" in target:
        class_name, _, method_name = target.partition("#")
        static = False
    elif "." in target:
        class_name, _, method_name = target.partition(".")
        static = True
    else:
        raise SystemExit(
            f"--explain target {target!r} must look like Class#method "
            f"(instance) or Class.method (static)")
    key = MethodKey(class_name, method_name, static)
    obs.provenance.enable()
    for app in all_apps():
        rdl = app.build(backend=backend)
        if (key not in rdl.registry.method_annotations
                and key not in rdl.registry.defined_methods):
            continue
        rdl.check_all(app.label)
        return (f"(subject app: {app.label})\n"
                + rdl.explain(class_name, method_name,
                              static=static, render=True))
    raise SystemExit(f"no subject app defines or annotates {target!r}")


def render_fleet_check(workers: int = 1, backend: str | None = None) -> str:
    rows = fleet_check_rows(workers, backend=backend)
    lines = [
        "",
        f"Subject-app cold check ({rows['workers']} worker(s) per app, "
        f"{rows['backend']} backend):",
        f"  methods checked: {rows['methods']}  "
        f"errors: {len(rows['errors'])}  "
        f"wall: {rows['wall_s']:.3f}s  "
        f"critical path: {rows['critical_path_s']:.3f}s",
    ]
    lines.extend(f"    - {e}" for e in rows["errors"])
    return "\n".join(lines)


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--check-apps", action="store_true",
                     help="also cold-check every subject-app method")
    cli.add_argument("--workers", type=int, default=1,
                     help="check each app across N session workers")
    cli.add_argument("--backend", default=None,
                     choices=["memory", "sqlite"],
                     help="storage backend for every universe "
                          "(default: REPRO_DB_BACKEND or memory)")
    cli.add_argument("--warm", action="store_true",
                     help="also demo warm session rechecks: migrate each "
                          "app's busiest table and re-verify only the "
                          "dirty methods on live worker replicas")
    cli.add_argument("--explain", metavar="CLASS#METHOD", default=None,
                     help="explain one subject-app method's verdict: check "
                          "its app with the provenance ledger enabled and "
                          "print why the verdict is what it is (use "
                          "Class#method for instance methods, Class.method "
                          "for static ones)")
    cli.add_argument("--trace", metavar="PATH", default=None,
                     help="record a repro.obs trace of everything this run "
                          "does (engine + workers) and export it as Chrome "
                          "trace_event JSON at PATH; also prints the "
                          "per-phase summary table")
    options = cli.parse_args()
    if options.explain:
        print(explain_verdict(options.explain, backend=options.backend))
        raise SystemExit(0)
    if options.trace:
        import repro.obs as obs

        obs.enable()
    print(render_table1())
    # --backend only affects the app universes, so it implies --check-apps
    if options.check_apps or options.workers > 1 or options.backend:
        print(render_fleet_check(max(1, options.workers),
                                 backend=options.backend))
    if options.warm:
        print(render_warm_recheck(max(2, options.workers),
                                  backend=options.backend))
    if options.trace:
        obs.export_chrome_trace(options.trace, metrics=obs.metrics_snapshot())
        print()
        print(obs.render_summary())
        print(f"\ntrace written to {options.trace} "
              f"(load it at https://ui.perfetto.dev)")
