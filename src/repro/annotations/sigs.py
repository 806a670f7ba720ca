"""Shared machinery for installing signature tables and counting Table 1."""

from __future__ import annotations

from repro.rtypes import parse_method_type
from repro.rtypes.methods import MethodType


def install_table(rdl, class_name: str, table: dict[str, object],
                  static: bool = False) -> dict[str, int]:
    """Register a ``{method: sig-or-list}`` table; return Table 1 counts."""
    comp_defs = 0
    loc = 0
    for method_name, sigs in table.items():
        if not isinstance(sigs, (list, tuple)):
            sigs = [sigs]
        method_is_comp = False
        for sig_text in sigs:
            signature = parse_method_type(sig_text)
            rdl.registry.annotate(class_name, method_name, signature, static=static)
            if signature.is_comp():
                method_is_comp = True
                loc += _comp_loc(signature)
        if method_is_comp:
            comp_defs += 1
    return {"comp_defs": comp_defs, "loc": loc}


def _comp_loc(signature: MethodType) -> int:
    """Lines of type-level code inside one signature."""
    return sum(max(1, len([line for line in comp.code.splitlines()
                           if line.strip()]))
               for comp in signature.comp_exprs())
