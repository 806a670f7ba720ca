"""Differential suite: the VM ≡ the tree-walking oracle, observable-for-observable.

Every program below runs once on the reference tree walker
(:class:`tests.oracles.tree_interp.TreeInterp`) and once on the shipped
closure-compiling :class:`~repro.runtime.interp.Interp` (sharing the
parse-cached AST, exactly as many universes do in one process), and the two
runs must agree on the result value, captured stdout, and any raised
error — kind, message and line.

The app-level tests then assert the strong contract the closure compiler
ships under: on the combined subject-app cold check the two produce
identical reports (same method order, same error strings, same cast
counters), identical per-method dependency footprints for the incremental
engine, identical test-suite results with the inserted dynamic checks on,
and identical Blame messages.  Whole universes run on the oracle by
substituting it for the facade's ``Interp``.
"""

from __future__ import annotations

import pytest

import repro.api
from repro.apps import all_apps
from repro.runtime.errors import Blame, RubyError
from repro.runtime.interp import Interp
from repro.runtime.objects import ruby_inspect
from tests.oracles.tree_interp import TreeInterp


# ---------------------------------------------------------------------------
# program corpus — one snippet per language feature family
# ---------------------------------------------------------------------------

CORPUS = {
    "literals": """
[nil, true, false, 42, 3.5, "str", :sym, [1, [2]], {a: 1, "b" => 2}, (1..4).to_a]
""",
    "string_interp": """
name = "world"
n = 3
"hello #{name} #{n + 1}!"
""",
    "arithmetic_loop": """
total = 0
i = 0
while i < 50
  total = total + i * 3 - 1
  i = i + 1
end
total
""",
    "until_loop": """
i = 10
until i == 0
  i = i - 1
end
i
""",
    "conditionals": """
x = 7
a = if x > 5 then "big" else "small" end
b = x > 100 ? nil : :ok
[a, b]
""",
    "case_with_ranges_and_classes": """
def classify(v)
  case v
  when 0..9 then "digit"
  when Integer then "number"
  when String then "string"
  else "other"
  end
end
[classify(5), classify(50), classify("s"), classify(:sym)]
""",
    "case_without_subject": """
x = 3
case
when x < 0 then "neg"
when x == 0 then "zero"
else "pos"
end
""",
    "method_defs_and_calls": """
def add(a, b)
  a + b
end

def defaulted(a, b = a * 2)
  [a, b]
end

def splatted(first, *rest)
  [first, rest]
end

[add(2, 3), defaulted(4), defaulted(4, 9), splatted(1, 2, 3)]
""",
    "blocks_and_yield": """
def twice
  [yield(1), yield(2)]
end

squares = [1, 2, 3].map { |x| x * x }
evens = (1..10).select { |n| n % 2 == 0 }
[twice { |v| v * 10 }, squares, evens]
""",
    "block_break_next": """
found = [5, 6, 7, 8].each do |n|
  next if n < 7
  break n * 100 if n == 7
end
sum = 0
[1, 2, 3, 4].each { |n| next if n == 2; sum = sum + n }
[found, sum]
""",
    "block_autosplat_and_splat_param": """
pairs = [[1, 2], [3, 4]]
summed = pairs.map { |a, b| a + b }
rest = nil
collect = lambda { |first, *more| rest = more; first }
[summed, collect.call(9, 8, 7), rest]
""",
    "symbol_to_proc_and_block_pass": """
words = ["ab", "cde", "f"]
words.map(&:length)
""",
    "classes_and_ivars": """
class Counter
  def initialize(start)
    @count = start
  end

  def bump
    @count = @count + 1
    self
  end

  def count
    @count
  end
end

c = Counter.new(5)
c.bump.bump
c.count
""",
    "inheritance_and_super_lookup": """
class Animal
  def speak
    "..."
  end

  def describe
    "animal says #{speak}"
  end
end

class Dog < Animal
  def speak
    "woof"
  end
end

[Animal.new.describe, Dog.new.describe]
""",
    "class_level_state_and_consts": """
class Registry
  LIMIT = 3

  def self.limit
    LIMIT
  end
end

MAX = 99
[Registry.limit, MAX, defined?(MAX), defined?(missing_thing)]
""",
    "multiassign_opassign": """
a, b = 1, 2
c, d = [10, 20]
e = nil
e ||= "filled"
f = "kept"
f ||= "ignored"
g = true
g &&= "chained"
[a, b, c, d, e, f, g]
""",
    "index_attr_assign": """
h = {}
h[:k] = 5
arr = [1, 2, 3]
arr[1] = 20

class Box
  def value=(v)
    @value = v
  end

  def value
    @value
  end
end

box = Box.new
box.value = 7
[h[:k], arr, box.value]
""",
    "globals": """
$counter = 0
def tick
  $counter = $counter + 1
end
tick
tick
$counter
""",
    "exceptions_rescue_ensure": """
log = []
begin
  log << "try"
  raise ArgumentError, "bad input"
rescue ArgumentError => e
  log << "rescued #{e.message}"
ensure
  log << "ensure"
end
log
""",
    "raise_reraise_and_classes": """
def risky(n)
  raise TypeError, "nope" if n < 0
  n * 2
end

result = begin
  risky(-1)
rescue TypeError => e
  "caught #{e.message}"
end

outer = begin
  begin
    raise "inner"
  rescue RuntimeError => e
    raise
  end
rescue RuntimeError => e
  "outer got #{e.message}"
end

[result, outer, risky(4)]
""",
    "string_and_hash_corelib": """
s = "Hello World"
h = {a: 1, b: 2}
[s.downcase, s.split(" "), s.include?("World"), h.keys, h.values,
 h.key?(:a), h.length, s.length]
""",
    "andor_shortcircuit": """
trace = []
def effect(trace, v)
  trace << v
  v
end
a = effect(trace, nil) || effect(trace, "right")
b = effect(trace, false) && effect(trace, "never")
c = !effect(trace, nil)
[a, b, c, trace]
""",
    "early_return": """
def find_first_even(xs)
  xs.each do |x|
    return x if x % 2 == 0
  end
  nil
end
[find_first_even([1, 3, 6, 7]), find_first_even([1, 3])]
""",
    "stdout": """
puts "line one"
puts 42
print "no newline"
nil
""",
    "modules": """
module Helpers
  def self.shout(s)
    s.upcase
  end
end
Helpers.shout("quiet")
""",
}

ERROR_CORPUS = {
    "no_method_error": 'nil.explode',
    "undefined_const": 'MissingConst',
    "uncaught_raise": 'raise ArgumentError, "boom"',
    "bad_range": '("a".."z")',
    "stack_overflow": """
def recurse(n)
  recurse(n + 1)
end
recurse(0)
""",
}


def _observe(interp_cls, source: str):
    interp = interp_cls()
    try:
        result = interp.run(source)
        outcome = ("ok", ruby_inspect(result))
    except RubyError as exc:
        outcome = ("ruby_error", exc.kind, str(exc), exc.line)
    except Exception as exc:  # RaiseSignal escaping run()
        exc_obj = getattr(exc, "exc", None)
        if exc_obj is not None:
            outcome = ("raised", exc_obj.rclass.name, exc_obj.message)
        else:
            outcome = ("python_error", type(exc).__name__, str(exc))
    return outcome, list(interp.stdout)


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_program_parity(name):
    source = CORPUS[name]
    tree = _observe(TreeInterp, source)
    compiled = _observe(Interp, source)
    assert compiled == tree


@pytest.mark.parametrize("name", list(ERROR_CORPUS))
def test_corpus_error_parity(name):
    source = ERROR_CORPUS[name]
    tree = _observe(TreeInterp, source)
    compiled = _observe(Interp, source)
    assert compiled == tree
    assert tree[0][0] != "ok"  # these programs must fail identically


# ---------------------------------------------------------------------------
# whole-system parity: verdicts, dependency footprints, dynamic checks
# ---------------------------------------------------------------------------

def _report_key(report):
    return (
        tuple(report.checked_methods),
        tuple(str(e) for e in report.errors),
        report.casts_used,
        report.oracle_casts,
    )


def _check_apps(monkeypatch, interp_cls):
    monkeypatch.setattr(repro.api, "Interp", interp_cls)
    out = {}
    for app in all_apps():
        rdl = app.build()
        report = rdl.check_all([app.label])
        deps = {
            str(key): (sorted(d.tables), sorted(d.columns), sorted(d.comps))
            for key, d in rdl.checker.engine.deps.method_deps.items()
        }
        out[app.name] = (_report_key(report), deps)
    return out


@pytest.mark.slow
def test_combined_apps_verdict_and_dependency_parity(monkeypatch):
    tree = _check_apps(monkeypatch, TreeInterp)
    compiled = _check_apps(monkeypatch, Interp)
    assert set(tree) == set(compiled)
    for name in tree:
        assert compiled[name][0] == tree[name][0], f"verdicts diverged: {name}"
        assert compiled[name][1] == tree[name][1], f"deps diverged: {name}"


def _run_suites(monkeypatch, interp_cls):
    monkeypatch.setattr(repro.api, "Interp", interp_cls)
    out = {}
    for app in all_apps():
        rdl = app.build()
        rdl.check(app.label)
        result = rdl.run(app.test_suite, checks=True)
        assert result is not None, f"{app.name} dynamic checks failed"
        out[app.name] = (ruby_inspect(result), list(rdl.stdout))
    return out


@pytest.mark.slow
def test_app_test_suites_run_identically_with_checks(monkeypatch):
    tree = _run_suites(monkeypatch, TreeInterp)
    compiled = _run_suites(monkeypatch, Interp)
    assert set(tree) == set(compiled)
    for name in tree:
        assert compiled[name] == tree[name], f"suite diverged: {name}"


def _blame_message(monkeypatch, interp_cls) -> str:
    """Force a §4 consistency Blame and capture its exact message."""
    from repro import CompRDL, Database

    monkeypatch.setattr(repro.api, "Interp", interp_cls)
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    rdl.load("""
class User < ActiveRecord::Base
end

class Finder
  type "(Symbol) -> Table<{ id: Integer, username: String, staged: %bool }, User>", typecheck: :finder
  def find_staged(flag)
    User.where(staged: true)
  end
end
""")
    report = rdl.check(":finder")
    assert report.ok(), report.summary()
    # schema mutation between checking and running: the re-evaluated comp
    # type no longer matches what the checker recorded -> Blame
    db.drop_column("users", "staged")
    with pytest.raises(Blame) as blamed:
        rdl.run("Finder.new.find_staged(:staged)", checks=True)
    return str(blamed.value)


def test_blame_messages_identical_across_modes(monkeypatch):
    tree = _blame_message(monkeypatch, TreeInterp)
    compiled = _blame_message(monkeypatch, Interp)
    assert compiled == tree
    assert "comp type" in tree


def test_discarded_universe_is_collectable_despite_inline_caches():
    """Call-site inline caches live on process-shared (parse-cached) AST
    nodes; they must hold the interpreter AND the resolved methods weakly,
    or every discarded universe stays pinned through ``method.owner``.
    The core-library natives are process-wide and outlive every universe
    by design, so they carry no ``owner`` and the probes are the
    universe's own objects."""
    import gc
    import weakref

    from repro import CompRDL, Database
    from repro.annotations.helpers import _NATIVE_METHODS
    from repro.runtime.corelib import corelib_table

    db = Database()
    db.create_table("users", username="string")
    rdl = CompRDL(db=db)
    rdl.load("""
class Greeter
  def hi
    "hi " + 1.to_s
  end
end
""")
    assert rdl.run("Greeter.new.hi").val == "hi 1"
    # the natives and Greeter#hi land in call-site caches during the run
    classes = rdl.interp.classes
    shared = [method for _name, _parent, imethods, smethods in corelib_table()
              for method in (*imethods.values(), *smethods.values())]
    shared += _NATIVE_METHODS.values()
    assert all(method.owner is None for method in shared)
    assert classes["Integer"].imethods["+"] in shared
    probes = [
        weakref.ref(rdl.interp),
        weakref.ref(classes["Integer"]),
        weakref.ref(classes["Object"]),
        weakref.ref(classes["Greeter"].imethods["hi"]),
    ]
    del rdl, db, classes
    gc.collect()
    for probe in probes:
        assert probe() is None, "discarded universe pinned by inline caches"
