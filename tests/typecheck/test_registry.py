"""The annotation registry's label index."""

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
