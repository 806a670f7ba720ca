"""Performance gates for the paper's workflow (Tables 1 and 2 and the
layers that serve them).

Each timing gate compares two ways of doing the same work inside one test
process, on process CPU time (``time.process_time``) and taking the minimum
of interleaved repeats (see :func:`_cpu`), so the ratio does not depend on
the machine or on what else it runs.  The fleet gates compare against the
per-shard process CPU the workers report: the wall time a machine with a
free core per worker would see.  Warm setup is the one wall-clock ratio,
because the attach work it measures happens in the workers.  Verdict parity
lives in the parity suites (``tests/db/test_backend_parity.py``,
``tests/parallel/test_warm.py``, ``tests/runtime/test_compile_parity.py``,
``tests/runtime/test_member_parity.py``, ``tests/analysis/test_parity.py``),
except where a gate checks the very runs it times.

Table 1 and Table 2 themselves are printed by
``python -m repro.evaluation.table1`` and ``python -m repro.evaluation.table2``;
``python3 perfbench/run.py --workload paper_apps`` times the same workflow.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench import synth
from repro import CompRDL, Database
from repro.analysis.footprint import FootprintAnalyzer
from repro.annotations import LIBRARY, signatures
from repro.apps import all_apps
from repro.evaluation.table1 import PAPER_TABLE1, render_table1, table1_rows
from repro.lang.parser import parse_program
from repro.parallel import ParallelCheckEngine
from repro.rtypes import (ConstStringType, NominalType, OptionalArg,
                          SingletonType, parse_type)
from repro.runtime.corelib import install_corelib
from repro.runtime.interp import Interp
from repro.runtime.member_compile import predicate_for
from repro.runtime.membership import value_has_type
from repro.runtime.objects import _METHOD_EPOCH, RArray, RHash, RString, Sym
from repro.typecheck.registry import AnnotationRegistry
from tests.oracles import ruby_parser
from tests.oracles.tree_interp import TreeInterp

APPS = list(all_apps())
#: the fleet width the parallel and warm gates are stated at
WORKERS = 4
#: migrate -> re-verify rounds per app and side, compared by their means
ROUNDS = 6
#: the storage backend the dynamic-check overhead and warm-vs-cold bounds
#: are stated on: the default one, which the scripts they come from ran on
GATE_BACKEND = "memory"


def _cpu(*fns, repeats: int = 3) -> list[float]:
    """The minimum process CPU seconds each of ``fns`` takes over
    ``repeats`` rounds.  A round runs every function once, in turn, so a
    slow spell of a shared machine hits both sides of a ratio alike.

    The rounds run on a fresh thread, whose Python stack starts empty as a
    script's does.  CPython 3.11+ allocates frames in fixed-size chunks, and
    a recursive workload whose depth keeps crossing a chunk boundary pays an
    allocation per call: on the caller's stack the VM ratio below swings
    between 1x and 4x with how deep the test runner happens to call it.
    """
    def rounds():
        spent = [[] for _ in fns]
        for _ in range(repeats):
            for fn, times in zip(fns, spent):
                start = time.process_time()
                fn()
                times.append(time.process_time() - start)
        return [min(times) for times in spent]

    with _gc_paused(), ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(rounds).result()


@contextlib.contextmanager
def _gc_paused():
    """No automatic collections inside, as in ``timeit``: a pause that the
    garbage of earlier tests triggers is not the measured code's cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Table 1 and Table 2
# ---------------------------------------------------------------------------

def test_table1_comp_definition_floors():
    """Every library has comp types, in the hundreds overall, with tens of
    shared helpers (paper: 586 definitions, 83 helpers)."""
    rows = table1_rows()
    for library in PAPER_TABLE1:
        assert rows[library]["comp_defs"] > 0, f"{library} has no comp types"
    assert rows["Hash"]["comp_defs"] >= 40
    assert rows["Array"]["comp_defs"] >= 60
    assert rows["_total"]["comp_defs"] >= 200
    assert rows["_total"]["helpers"] >= 40


def test_table1_matches_the_committed_table():
    """``python -m repro.evaluation.table1`` prints exactly the committed
    table: an annotation edit that moves a count must update it."""
    expected = Path(__file__).with_name("table1_expected.txt").read_text()
    assert render_table1() + "\n" == expected


def test_universe_construction_reuses_the_library():
    """A ``CompRDL()`` adopts the process-wide annotation library and core
    library instead of building them: it costs at most a third of
    registering every ``LIBRARY`` signature and installing the core
    library's natives."""
    def reference():
        registry = AnnotationRegistry()
        for _row, class_name, table, static in LIBRARY:
            for method_name, sig_text in signatures(table):
                registry.annotate(class_name, method_name, sig_text, static=static)
        install_corelib(Interp(natives=False))

    CompRDL()  # builds the shared base outside the timed rounds
    reference_s, universe_s = _cpu(reference, CompRDL, repeats=20)
    ratio = reference_s / universe_s
    assert ratio >= 3.0, f"CompRDL() only {ratio:.2f}x cheaper than the library"


def test_universe_construction_barely_moves_the_method_epoch():
    """Each method-epoch bump drops every live universe's lookup and
    inline caches; adopting the shared natives bumps it once per batch,
    not once per native."""
    before = _METHOD_EPOCH[0]
    CompRDL()
    assert _METHOD_EPOCH[0] - before <= 100


def test_table2_checks_every_app_in_seconds():
    """The paper checks 132 methods in ~15 s; building and checking all six
    apps stays in the seconds regime (error counts: ``tests/apps``)."""
    start = time.process_time()
    methods = sum(len(app.build().check(app.label).checked_methods)
                  for app in APPS)
    elapsed = time.process_time() - start
    assert methods >= 100
    assert elapsed < 30, f"checking took {elapsed:.1f}s"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "steady-state cost is per-call membership, not comp re-evaluation: "
    "comprdl_check_table fingerprints the mutable expected schema on every "
    "call, then finite-hash and nominal predicates and the argument checks "
    "run; see ROADMAP's open items"))
def test_table2_dynamic_check_overhead_is_small():
    """Running every app's test suite with the inserted dynamic checks costs
    less than 35 % over running it without them (paper: 1.6 % on Ruby), in
    each of two passes.  In memory: the rounds run on a thread of their own
    (see :func:`_cpu`), and a sqlite connection serves only the thread that
    opened it."""
    universes = []
    for app in APPS:
        rdl = app.build(backend=GATE_BACKEND)
        rdl.check(app.label)
        rdl.run(app.test_suite, checks=True)  # warm the consistency caches
        universes.append((rdl, app.test_suite))

    def overhead():
        unchecked = checked = 0.0
        for rdl, suite in universes:
            plain, with_checks = _cpu(lambda: rdl.run(suite, checks=False),
                                      lambda: rdl.run(suite, checks=True),
                                      repeats=30)
            unchecked += plain
            checked += with_checks
        return checked / unchecked - 1

    worst = max(overhead() for _ in range(2))
    assert worst < 0.35, f"dynamic check overhead {worst:+.1%}"


# ---------------------------------------------------------------------------
# the single-process layers
# ---------------------------------------------------------------------------

def test_incremental_recheck_beats_a_cold_check():
    """After a one-column migration on the median-fanout table,
    ``recheck_dirty`` is at least 2x cheaper than a fresh full check
    (verdict parity: ``tests/incremental``)."""
    cold = warm = 0.0
    for app in APPS:
        rdl = app.build()
        rdl.check_all(app.label)
        fanout = rdl.incremental.table_fanout()
        tables = sorted(rdl.db.tables, key=lambda t: fanout.get(t, 0))
        if tables:
            table = tables[len(tables) // 2]
        else:
            # schema-less app: a new table dirties only wildcard readers
            table = "gate_tables"
            rdl.db.create_table(table)
        for round_no in range(3):
            rdl.db.add_column(table, f"gate_col_{round_no}", "string")
            fresh = app.build()
            if table not in fresh.db.tables:
                fresh.db.create_table(table)
            for previous in range(round_no + 1):
                fresh.db.add_column(table, f"gate_col_{previous}", "string")
            recheck_s, full_s = _cpu(rdl.recheck_dirty,
                                     lambda: fresh.check(app.label),
                                     repeats=1)
            warm += recheck_s
            cold += full_s
    assert cold >= 2.0 * warm, f"incremental only {cold / warm:.2f}x faster"


MICRO_SOURCE = """
def fib(n)
  if n < 2
    n
  else
    fib(n - 1) + fib(n - 2)
  end
end

def work(limit)
  total = 0
  i = 0
  while i < limit
    total = total + i * 2 - 1
    i = i + 1
  end
  xs = [1, 2, 3, 4, 5, 6, 7, 8]
  squares = xs.map { |x| x * x }
  picked = squares.select { |s| s % 2 == 0 }
  label = "sum=#{total}"
  picked.each { |p| total = total + p }
  total + label.length + fib(12)
end
work(250)
"""


def test_compiled_vm_beats_the_tree_walker():
    """The closure-compiling VM runs a call/loop/block-heavy program at
    least 2x faster than the tree-walking oracle, on a warm VM."""
    program = parse_program(MICRO_SOURCE, use_cache=False)
    tree, vm = TreeInterp(), Interp()
    assert tree.run_program(program) == vm.run_program(program)  # warm-up
    tree_s, vm_s = _cpu(lambda: tree.run_program(program),
                        lambda: vm.run_program(program), repeats=20)
    speedup = tree_s / vm_s
    assert speedup >= 2.0, f"compiled VM only {speedup:.2f}x faster"


def test_parser_beats_the_oracle():
    """The master-pattern lexer and the precedence-climbing parser parse a
    fresh 60-table synthetic app at least 3x faster than the recursive-
    descent originals kept as the oracle."""
    source = synth.generate(0, 60).source
    oracle_s, parser_s = _cpu(
        lambda: ruby_parser.parse_program(source, use_cache=False),
        lambda: parse_program(source, use_cache=False), repeats=10)
    speedup = oracle_s / parser_s
    assert speedup >= 3.0, f"parser only {speedup:.2f}x faster than the oracle"


def test_compiled_membership_beats_the_structural_walker():
    """Compiled predicates answer a membership query at least 2x faster
    than the structural walker, over one type per constructor."""
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    interp = CompRDL(db=db).interp
    types = [parse_type(source) for source in (
        "Integer", "String", "Numeric", "Object", "%any", "%bool",
        "Integer or String", "Integer or String or Symbol or Float",
        "Array<Integer>", "Hash<Symbol, String>",
        "{ id: Integer, username: String }", "[Integer, String]")]
    types += [OptionalArg(NominalType("Integer")), SingletonType(3),
              ConstStringType("hi")]
    values = [
        None, True, False, 0, 3, 2.5,
        RString("hi"), RString("bye"), Sym("id"),
        RArray([1, 2]), RArray([1, RString("x")]),
        RHash.from_pairs([(Sym("id"), 1), (Sym("username"), RString("u"))]),
        RHash.from_pairs([(Sym("k"), RString("v"))]),
        interp.classes["Integer"],
    ]
    # check specs bind their predicates once at construction: the timed
    # loop mirrors that steady state
    preds = [predicate_for(rtype) for rtype in types]
    iters = 100

    def structural():
        for _ in range(iters):
            for rtype in types:
                for value in values:
                    value_has_type(interp, value, rtype)

    def compiled():
        for _ in range(iters):
            for pred in preds:
                for value in values:
                    pred(interp, value)

    compiled()  # fill the inline caches
    structural_s, compiled_s = _cpu(structural, compiled)
    speedup = structural_s / compiled_s
    assert speedup >= 2.0, f"compiled membership only {speedup:.2f}x faster"


def test_warm_analysis_is_cheap_next_to_checking():
    """Re-running footprint inference on an analyzer whose caches are warm
    costs at least 10x less than checking the app, per app."""
    for app in APPS:
        rdl = app.build()
        check, = _cpu(lambda: rdl.check_all(app.label), repeats=1)
        analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
        keys = rdl.registry.methods_for_label(app.label)
        analyzer.footprints_for(keys)  # prime
        warm, = _cpu(lambda: analyzer.footprints_for(keys))
        assert warm * 10 < check, (
            f"{app.label}: warm analysis {warm * 1e3:.2f}ms vs check "
            f"{check * 1e3:.2f}ms")


def test_sqlite_backend_costs_at_most_5x_memory():
    """Building and checking every app against a live sqlite engine costs
    at most 5x the in-memory backend."""
    memory = sqlite = 0.0
    for app in APPS:
        on_memory, on_sqlite = _cpu(
            lambda: app.build(backend="memory").check_all(app.label),
            lambda: app.build(backend="sqlite").check_all(app.label))
        memory += on_memory
        sqlite += on_sqlite
    ratio = sqlite / memory
    assert ratio <= 5.0, f"sqlite checking {ratio:.2f}x memory"


def test_sqlite_migrations_do_not_scale_with_schema_size():
    """A migration rewrites only its own table: the same sequence costs at
    most 2x on a 240-table sqlite database what it costs on a 10-table one
    (``ALTER TABLE ... RENAME``/``DROP COLUMN`` re-parse every table)."""
    def database(tables: int) -> Database:
        db = Database(backend="sqlite")
        for index in range(tables):
            db.create_table(f"t{index}", name="string", flag="boolean",
                            score="float")
        for index in range(20):
            db.insert("t0", {"name": f"n{index}", "flag": index % 2 == 0})
        return db

    def migrate(tables: int):
        # a connection serves only the thread that opened it, and _cpu
        # times on a fresh thread: the first round builds the database,
        # and the minimum over the rounds leaves it out
        built = []

        def sequence():
            if not built:
                built.append(database(tables))
            db = built[0]
            for _ in range(10):
                db.add_column("t0", "extra", "integer")
                db.rename_column("t0", "extra", "spare")
                db.drop_column("t0", "spare")
                db.rename_table("t0", "moved")
                db.rename_table("moved", "t0")
        return sequence

    large, small = _cpu(migrate(240), migrate(10), repeats=5)
    ratio = large / small
    assert ratio <= 2.0, f"240 tables cost {ratio:.2f}x 10 tables"


def test_comp_types_need_3x_fewer_casts():
    """Comp types remove most of the casts plain RDL needs (§5.3: 37 vs
    176, 4.75x); per-app: ``tests/apps``."""
    comp = plain = 0
    for app in APPS:
        report = app.build().check(app.label)
        rdl_mode = app.build(use_comp_types=False, repair_with_casts=True,
                             insert_checks=False)
        rdl_mode.config.known_errors = {e.method for e in report.errors}
        rdl_report = rdl_mode.check(app.label)
        comp += report.casts_used
        plain += rdl_report.casts_used + rdl_report.oracle_casts
    assert plain >= 3.0 * max(comp, 1), f"casts: comp {comp} vs RDL {plain}"


# ---------------------------------------------------------------------------
# the fleet
# ---------------------------------------------------------------------------

def _verdicts(reports) -> tuple:
    """What a fleet must reproduce of the serial reports, in serial order."""
    return ([key for r in reports for key in r.checked_methods],
            [str(e) for r in reports for e in r.errors],
            sum(r.casts_used for r in reports),
            sum(r.oracle_casts for r in reports))


def _critical_path(run) -> float:
    """A fleet round's wall on a machine with a free core per worker: the
    slowest shard's CPU plus the parent's serial planning and session
    sync."""
    assert run.remote  # a round on the workers, not a serial fallback
    return run.critical_path_s + run.plan_s + run.sync_s


def _apps_with_tables():
    """(app, busiest checked table) for every app that has a schema."""
    out = []
    for app in APPS:
        rdl = app.build(backend=GATE_BACKEND)
        rdl.check_all(app.label)
        fanout = {table: count
                  for table, count in rdl.incremental.table_fanout().items()
                  if table in rdl.db.tables}
        if fanout:
            out.append((app, max(sorted(fanout), key=fanout.__getitem__)))
    return out


def _first_warm_round(engine, app, table) -> tuple:
    """A fresh checked universe attached to ``engine`` and migrated, plus
    the wall seconds of its first ``recheck_dirty`` round (the setup)."""
    rdl = app.build(backend=GATE_BACKEND)
    rdl.check_all(app.label)
    rdl.adopt_warm_engine(engine)
    rdl.db.add_column(table, "gate_migrated", "string")
    # wall time: the attach work it measures runs in the workers
    start = time.perf_counter()
    rdl.recheck_dirty(workers=WORKERS)
    return rdl, time.perf_counter() - start


@pytest.mark.slow
def test_warm_rounds_beat_the_cold_fleet():
    """Per app, over the same number of migrate -> re-verify rounds, a warm
    round (journal delta plus the dirty methods) has a shorter mean CPU
    critical path than a cold round on a freshly primed fleet (every
    method: a fresh universe's check_all, then every method marked dirty
    and re-verified over the same replicas), every report matches a
    serial twin's, and adopting the primed replicas cuts the first warm
    round's setup by >= 30 % against workers that must build them.

    Stated on the in-memory backend, as the bound always was: on sqlite
    every delta replays its ALTERs in each worker, and the two sides come
    out within 1.5x of each other."""
    cold = warm = 0.0
    seeded = unseeded = 0.0
    # every engine of one width runs on the process's one pool, so one
    # engine serves every side, and a primed app waits in the workers'
    # catalogs until a session adopts it.  Both setups run on a freshly
    # started pool: a detach returns checked replicas to the catalogs
    fleet = ParallelCheckEngine(workers=WORKERS, backend=GATE_BACKEND)
    with fleet, _gc_paused():
        for app, table in _apps_with_tables():
            gc.collect()  # between apps, outside the measured rounds
            fleet.close()
            fleet.prime([])  # start the workers, build nothing
            # no worker holds this app: the first warm round builds
            rdl, setup = _first_warm_round(fleet, app, table)
            rdl.shutdown_warm()
            unseeded += setup

            fleet.prime([app.label])
            serial = _verdicts([app.build(backend=GATE_BACKEND)
                                .check(app.label)])
            rdl = app.build(backend=GATE_BACKEND)
            rdl.adopt_warm_engine(fleet)
            rounds = []
            for round_no in range(ROUNDS):
                if round_no == 0:
                    report = rdl.check_all(app.label, workers=WORKERS)
                else:
                    rdl.incremental.mark_all_dirty()
                    report = rdl.recheck_dirty(workers=WORKERS)
                assert _verdicts([report]) == serial
                rounds.append(_critical_path(fleet.last_warm_run))
            rdl.shutdown_warm()
            cold += statistics.fmean(rounds)
            # the cold session's detach returned its checked replicas:
            # prime a fresh pool, so the seeded warm setup below adopts
            # never-checked ones
            fleet.close()
            fleet.prime([app.label])
            rdl, setup = _first_warm_round(fleet, app, table)
            seeded += setup
            # the serial twin takes the same migrations: verdict parity
            twin = app.build(backend=GATE_BACKEND)
            twin.check_all(app.label)
            twin.db.add_column(table, "gate_migrated", "string")
            rounds = []
            for round_no in range(ROUNDS):
                for universe in (rdl, twin):
                    if round_no % 2 == 0:
                        universe.db.add_column(table, "gate_probe",
                                               "string")
                    else:
                        universe.db.drop_column(table, "gate_probe")
                report = rdl.recheck_dirty(workers=WORKERS)
                assert (_verdicts([report])
                        == _verdicts([twin.recheck_dirty()]))
                rounds.append(_critical_path(fleet.last_warm_run))
            rdl.shutdown_warm()
            warm += statistics.fmean(rounds)
    drop = 1.0 - seeded / unseeded
    assert drop >= 0.30, f"seeded setup drop {drop:.2f}"
    assert warm < cold, (f"warm critical path {warm * 1e3:.1f}ms per round "
                         f"vs cold {cold * 1e3:.1f}ms")


@pytest.mark.slow
def test_fleet_projected_speedup_at_4_workers():
    """A cold check of every app, one ``check_all(label, workers=4)`` per
    app on 4 primed workers, has a critical path (summed over the apps:
    slowest shard's CPU plus the parent's planning and session sync) at
    least 2x shorter than building and checking serially, with the serial
    verdicts in the serial order."""
    labels = [app.label for app in APPS]
    serial_reports = []
    repeats = []

    def serial():
        serial_reports[:] = [app.build().check(app.label) for app in APPS]

    def fleet_check():
        # each round adopts never-checked primed replicas: a detach would
        # return the checked ones to the catalogs, so an unmeasured
        # recheck first replays an empty load into them (no longer
        # pristine, they are dropped) and the next repeat primes afresh
        # on the same, warmed-up workers.  Only the check_all rounds'
        # critical paths are counted
        fleet.prime(labels)
        reports, critical = [], 0.0
        for app in APPS:
            rdl = app.build()
            rdl.adopt_warm_engine(fleet)
            reports.append(rdl.check_all(app.label, workers=WORKERS))
            critical += _critical_path(fleet.last_warm_run)
            rdl.load("")
            rdl.incremental.mark_all_dirty()
            rdl.recheck_dirty(workers=WORKERS)
            rdl.shutdown_warm()
        repeats.append((reports, critical))

    # interleaved, so a slow spell of a shared machine hits both sides
    with ParallelCheckEngine(workers=WORKERS) as fleet:
        serial_s, _ = _cpu(serial, fleet_check, repeats=5)
    for reports, _ in repeats:
        assert _verdicts(reports) == _verdicts(serial_reports)
    speedup = serial_s / min(critical for _, critical in repeats)
    assert speedup >= 2.0, f"projected fleet speedup {speedup:.2f}x"
