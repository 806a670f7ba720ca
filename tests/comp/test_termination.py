"""The §4 walk is memoized per comp and helper body, and its memo follows
helper redefinitions."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import CompRDL
from repro.lang.parser import parse_program
from repro.typecheck.errors import TerminationError

APP = """
type :pick_type, "() -> Type", terminates: :+, pure: :+
def pick_type
  Nominal.new(Integer)
end
comp_helper :pick_type

class Thing
  type :"self.make", "() -> «pick_type()»"
  def self.make()
    1
  end

  type :"self.go", "() -> Integer", typecheck: :app
  def self.go()
    Thing.make()
  end
end
"""

LOOPING = """
def pick_type
  while true
  end
  Nominal.new(Integer)
end
"""

HANG_SCRIPT = textwrap.dedent("""
    from repro import CompRDL
    rdl = CompRDL()
    rdl.load({app!r})
    assert rdl.check(":app").ok()
    rdl.load({looping!r})
    for error in rdl.check(":app").errors:
        print(type(error).__name__, error)
""")


def test_helper_redefined_to_loop_after_a_check_is_rejected():
    # a subprocess, so that a regression hangs one child, not the suite
    script = HANG_SCRIPT.format(app=APP, looping=LOOPING)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("check() ran a helper redefined to loop")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "TerminationError type-level code may not contain loops "
        "(Object#pick_type)"), proc.stdout


def test_walks_are_memoized_until_a_consulted_name_changes():
    rdl = CompRDL()
    rdl.load(APP)
    assert rdl.check(":app").ok()
    walks = rdl.checker.engine.termination._walks
    assert ("helper", "pick_type") in walks
    assert ("comp", "pick_type()") in walks
    rdl.load("def unrelated\n  1\nend\n")
    assert ("helper", "pick_type") in walks
    rdl.load(LOOPING)
    assert ("helper", "pick_type") not in walks
    assert ("comp", "pick_type()") not in walks


def test_check_comp_code_raises_the_first_error_the_walk_yields():
    rdl = CompRDL()
    rdl.load(LOOPING)
    engine = rdl.checker.engine
    program = parse_program("[1].each { |v| $x = v }\npick_type()")
    with pytest.raises(TerminationError) as raised:
        engine.termination.check_comp_code(program, "the comp")
    first = next(d for d in engine.termination.diagnostics(program, "the comp")
                 if d.severity == "error")
    assert first.rule == "COMP003"
    assert str(raised.value) == (
        "iterator 'each' in type-level code takes an impure block "
        "(the comp) (line 1:5)")
