"""The annotation registry: its label index and its superclass chains."""

from repro import CompRDL
from repro.rtypes import parse_method_type
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
