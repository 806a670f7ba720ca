"""Table 2: type checking results over the six subject programs.

For each benchmark this harness reproduces every column of the paper's
Table 2:

* **Meths / LoC** — methods type checked and their source size;
* **Extra Annots** — annotations on variables and on called-but-unchecked
  methods;
* **Casts** — ``type_cast``\\ s needed with comp types;
* **Casts (RDL)** — casts a programmer needs with plain RDL (comp types
  disabled; measured by the oracle cast-repair mode);
* **Time (s)** — median ± SIQR of type checking over ``runs`` repetitions
  (11 in the paper);
* **Test Time No Chk / w/Chk** — the app test suite without and with the
  inserted dynamic checks;
* **Errs** — genuine type errors found (the paper found 3: one in
  Code.org, two in Journey).

Run with ``python -m repro.evaluation.table2``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from repro.apps import all_apps
from repro.apps.base import SubjectApp


@dataclass
class Table2Row:
    name: str
    methods: int = 0
    loc: int = 0
    extra_annots: int = 0
    casts: int = 0
    casts_rdl: int = 0
    check_median_s: float = 0.0
    check_siqr_s: float = 0.0
    test_no_chk_s: float = 0.0
    test_w_chk_s: float = 0.0
    errors: int = 0
    error_messages: list = field(default_factory=list)
    paper: dict = field(default_factory=dict)


def _median_siqr(samples: list[float]) -> tuple[float, float]:
    med = statistics.median(samples)
    ordered = sorted(samples)
    n = len(ordered)
    q1 = ordered[n // 4]
    q3 = ordered[(3 * n) // 4]
    return med, (q3 - q1) / 2


def measure_app(app: SubjectApp, runs: int = 11, test_reps: int = 20) -> Table2Row:
    """Measure one benchmark; mirrors §5.2's methodology."""
    row = Table2Row(name=app.name, paper=dict(app.paper))

    # -- comp-mode type checking (timed over `runs` repetitions) -----------
    samples = []
    report = None
    rdl = None
    for _ in range(runs):
        rdl = app.build()
        start = time.perf_counter()
        report = rdl.check(app.label)
        samples.append(time.perf_counter() - start)
    assert report is not None and rdl is not None
    row.check_median_s, row.check_siqr_s = _median_siqr(samples)
    row.methods = len(report.checked_methods)
    row.loc = app.source_loc()
    row.casts = report.casts_used
    row.errors = len(report.errors)
    row.error_messages = [str(e) for e in report.errors]
    # extra annotations: `type` directives in the app source without a
    # typecheck label, plus var_type annotations it registered
    row.extra_annots = _count_extra_annots(app)

    # -- plain-RDL cast counting -------------------------------------------
    known = {e.method for e in report.errors}
    rdl_mode = app.build(use_comp_types=False, repair_with_casts=True,
                         insert_checks=False)
    rdl_mode.config.known_errors = known
    rdl_report = rdl_mode.check(app.label)
    row.casts_rdl = rdl_report.casts_used + rdl_report.oracle_casts

    # -- dynamic check overhead ---------------------------------------------
    # one untimed pass of each, then interleaved reps: the suites insert
    # rows, so back-to-back blocks would time the checked reps on a
    # larger database than the unchecked ones
    if app.test_suite:
        totals = {False: 0.0, True: 0.0}
        for rep in range(test_reps + 1):
            for checks in (False, True):
                start = time.perf_counter()
                rdl.run(app.test_suite, checks=checks)
                if rep:
                    totals[checks] += time.perf_counter() - start
        row.test_no_chk_s, row.test_w_chk_s = totals[False], totals[True]
    return row


def _count_extra_annots(app: SubjectApp) -> int:
    count = 0
    for line in app.source.splitlines():
        stripped = line.strip()
        if stripped.startswith("var_type "):
            count += 1
        elif stripped.startswith("type ") and "typecheck:" not in stripped:
            count += 1
    return count


def table2_rows(runs: int = 11, test_reps: int = 20) -> list[Table2Row]:
    return [measure_app(app, runs, test_reps) for app in all_apps()]


def render_table2(rows: list[Table2Row] | None = None, runs: int = 11) -> str:
    rows = rows if rows is not None else table2_rows(runs=runs)
    header = (f"{'Program':<11}{'Meths':>6}{'LoC':>6}{'Annots':>7}{'Casts':>6}"
              f"{'C(RDL)':>7}{'Time(s)':>10}{'NoChk(s)':>9}{'wChk(s)':>9}{'Errs':>5}")
    lines = ["Table 2: Type checking results", header, "-" * len(header)]
    totals = Table2Row(name="Total")
    for row in rows:
        lines.append(
            f"{row.name:<11}{row.methods:>6}{row.loc:>6}{row.extra_annots:>7}"
            f"{row.casts:>6}{row.casts_rdl:>7}"
            f"{row.check_median_s:>7.3f}±{row.check_siqr_s:<.2f}"
            f"{row.test_no_chk_s:>8.3f}{row.test_w_chk_s:>9.3f}{row.errors:>5}"
        )
        totals.methods += row.methods
        totals.loc += row.loc
        totals.extra_annots += row.extra_annots
        totals.casts += row.casts
        totals.casts_rdl += row.casts_rdl
        totals.check_median_s += row.check_median_s
        totals.test_no_chk_s += row.test_no_chk_s
        totals.test_w_chk_s += row.test_w_chk_s
        totals.errors += row.errors
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':<11}{totals.methods:>6}{totals.loc:>6}{totals.extra_annots:>7}"
        f"{totals.casts:>6}{totals.casts_rdl:>7}"
        f"{totals.check_median_s:>7.3f}      "
        f"{totals.test_no_chk_s:>8.3f}{totals.test_w_chk_s:>9.3f}{totals.errors:>5}"
    )
    ratio = totals.casts_rdl / totals.casts if totals.casts else float("inf")
    overhead = ((totals.test_w_chk_s / totals.test_no_chk_s) - 1) * 100 \
        if totals.test_no_chk_s else 0.0
    lines.append("")
    lines.append(f"Cast reduction with comp types: {ratio:.2f}x fewer "
                 f"(paper: 4.75x)")
    lines.append(f"Dynamic check overhead: {overhead:+.1f}% (paper: ~1.6%)")
    lines.append(f"Errors found: {totals.errors} (paper: 3 — "
                 f"1 Code.org doc error, 2 Journey bugs)")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_table2())
