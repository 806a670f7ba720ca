"""The annotation registry: its label index, its superclass chains, and
the process-wide library that every universe adopts."""

import dataclasses

import pytest

from repro import CompRDL, Database
from repro.annotations import library_registry
from repro.rtypes import parse_method_type
from repro.runtime.interp import RaiseSignal
from repro.typecheck.registry import (AnnotationRegistry, MethodAnnotation,
                                      MethodKey)

METHODS = 2000


def test_label_index_registers_in_linear_time(monkeypatch):
    """Registering n methods under one label costs O(n) key comparisons
    (a list scan per registration made it O(n²): ~2M ``__eq__`` calls)."""
    calls = [0]
    key_eq = MethodKey.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return key_eq(self, other)

    monkeypatch.setattr(MethodKey, "__eq__", counting_eq)
    registry = AnnotationRegistry()
    signature = parse_method_type("() -> Integer")
    keys = [MethodKey("Big", f"m{i}") for i in range(METHODS)]
    for key in keys:
        registry.add_annotation(key, MethodAnnotation(signature, label="app"))
    # a second annotation under the same label adds no second entry
    registry.add_annotation(keys[0], MethodAnnotation(signature, label="app"))
    assert calls[0] <= 4 * METHODS
    # registration order is the check order check_label and the fleet share
    assert registry.methods_for_label("app") == keys
    assert registry.methods_for_label("missing") == []


REOPENED = """
class ArgumentError
end
class Integer
  def double()
    self + self
  end
end
class Probe
  type :m, "() -> String", typecheck: :probe
  def m()
    ArgumentError.new("x").message
  end
end
"""


def test_reopening_a_core_class_keeps_its_superclass_chain():
    """A ``class X`` statement that names no superclass reopens X: the
    chain stays the VM's, so X still inherits its superclass's annotations
    (``Exception#message``) and ``Integer`` still sits under ``Numeric``."""
    rdl = CompRDL()
    rdl.load(REOPENED)
    assert rdl.check("probe").ok()
    assert rdl.registry.superclass_chain("Integer", rdl.interp) == \
        ["Integer", "Numeric", "Object"]
    assert rdl.registry.superclass_chain("ArgumentError", rdl.interp)[-2:] \
        == ["Exception", "Object"]


def test_the_checker_hierarchy_is_the_vm_class_graph():
    """Every class the VM knows sits under its VM superclass in the
    checker's hierarchy, so nominal subtyping and annotation lookup read
    one graph."""
    rdl = CompRDL()
    rdl.load(REOPENED)
    hierarchy = rdl.checker.hierarchy()
    for name, klass in rdl.interp.classes.items():
        if klass.superclass is not None:
            assert hierarchy.le(name, klass.superclass.name), name


REOPENS = """
class Array
  type :second, "() -> Integer"
  def second()
    self[1]
  end
end
type Array, :first, "() -> String"
type Hash, :probe_size, "() -> Integer"
class Integer
  def +(other)
    42
  end
end
class User
  type :shout, "() -> String"
  def shout()
    "hey"
  end
end
comp_helper :shout
"""


def _universe():
    db = Database()
    db.create_table("users", username="string")
    rdl = CompRDL(db=db)
    rdl.load("class User < ActiveRecord::Base\nend\n")
    return rdl


def _lengths(registry):
    return {key: len(annotations) for key, annotations
            in registry.method_annotations.items()}


def _assert_untouched(rdl, expected_lengths):
    registry = rdl.registry
    assert _lengths(registry) == expected_lengths
    assert registry.lookup_method("Array", "second", False, rdl.interp) is None
    assert registry.lookup_method("Hash", "probe_size", False, rdl.interp) is None
    assert registry.lookup_method("User", "shout", False, rdl.interp) is None
    assert "shout" not in registry.helper_methods
    assert MethodKey("Array", "second") not in registry.defined_methods
    assert rdl.run("1 + 2") == 3
    for probe in ("[1, 2].second", "User.new.shout"):
        with pytest.raises(RaiseSignal, match="undefined method"):
            rdl.run(probe)


def test_reopened_library_classes_stay_in_their_universe():
    """A universe that reopens ``Array``, annotates ``Array#first`` and
    ``Hash``, redefines ``Integer#+``, reopens a model class and declares a
    comp helper changes only itself: its siblings, built before and after
    it, and the process-wide library base see none of it."""
    base = library_registry()
    base_lengths = _lengths(base)
    base_names = {name: len(keys) for name, keys in base.annotated_by_name.items()}
    base_helpers = set(base.helper_methods)

    before = _universe()
    # the library plus the model's column accessors
    expected_lengths = _lengths(before.registry)
    assert {key: expected_lengths[key] for key in base_lengths} == base_lengths
    mutant = _universe()
    mutant.load(REOPENS)
    after = _universe()

    first = MethodKey("Array", "first")
    assert len(mutant.registry.method_annotations[first]) == base_lengths[first] + 1
    assert mutant.registry.lookup_method("Hash", "probe_size", False) is not None
    assert "shout" in mutant.registry.helper_methods
    assert mutant.run("1 + 2") == 42
    assert mutant.run("[1, 2].second") == 2
    assert mutant.run("User.new.shout").val == "hey"

    for sibling in (before, after):
        _assert_untouched(sibling, expected_lengths)
    assert _lengths(base) == base_lengths
    assert {name: len(keys) for name, keys
            in base.annotated_by_name.items()} == base_names
    assert base.helper_methods == base_helpers
    # the shared natives stay unbound to any universe
    assert before.interp.classes["Integer"].imethods["+"].owner is None
    assert mutant.interp.classes["Integer"].imethods["+"].owner \
        is mutant.interp.classes["Integer"]


def test_library_annotations_are_frozen():
    annotation = library_registry().method_annotations[MethodKey("Array", "first")][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        annotation.label = "mine"
