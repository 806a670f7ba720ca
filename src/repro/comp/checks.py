"""Dynamic checks inserted at comp-typed call sites (§2.4, §3.2, §4).

When the checker types a call via a comp signature it attaches a
:class:`CheckSpec` to the call node.  At run time (with checks enabled) the
interpreter consults the spec:

* **before the call** — every comp expression in the signature is
  *re-evaluated* on the same input types recorded at type-checking time; a
  different result means mutable state the comp type depends on changed
  (e.g. the DB schema), and an exception is raised (§4 "Heap Mutation");
  computed argument types are also checked against the actual argument
  values (contract-style);
* **after the call** — the returned value is checked against the computed
  return type: λC's checked call ⌈A⌉e.m(e), reducing to blame on failure.

Specs are *specialized at construction*: the argument and return types are
lowered once into compiled membership predicates
(:mod:`repro.runtime.member_compile`), so the per-call loop does no type
dispatch.  Failure messages are rendered from the original types, so Blame
reads the same whichever predicate ``predicate_for`` hands out; the parity
tests swap in the reference ``value_has_type`` walker there and compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtypes import CompExpr, RType
from repro.runtime.errors import Blame
from repro.runtime.member_compile import predicate_for


@dataclass
class CheckSpec:
    """Runtime contract for one comp-typed call site."""

    method_desc: str
    ret_type: RType
    arg_types: list[RType] = field(default_factory=list)
    # (comp expression, bindings, expected result) triples for consistency
    comp_results: list[tuple[CompExpr, dict, RType]] = field(default_factory=list)
    engine: object = None
    line: int = 0
    col: int = 0
    check_args: bool = True
    # db.version at the last successful consistency re-validation; the
    # inputs (bindings) are fixed per call site, so the comp results can
    # only change when the mutable state they consult changes (§4)
    _validated_version: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._bind_plan()

    def _bind_plan(self) -> None:
        """Precompile the membership plan for this spec's signature.

        ``_arg_plan`` pairs each compiled predicate with the original type
        (kept for Blame rendering).
        """
        self._arg_plan = [(predicate_for(t), t) for t in self.arg_types]
        self._ret_pred = predicate_for(self.ret_type)

    def __getstate__(self):
        # plans hold process-local closures (inline caches, interp
        # weakrefs): scrub on pickle, rebind on unpickle — specs crossing
        # the fleet's process boundary recompile against the worker's
        # intern table
        state = dict(self.__dict__)
        state["_arg_plan"] = None
        state["_ret_pred"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_plan()

    def before_call(self, interp, receiver, args, line) -> None:
        version = getattr(interp.db, "version", 0) if interp.db else 0
        if self._validated_version == version:
            self._check_arg_values(interp, args, line)
            return
        for comp, bindings, expected in self.comp_results:
            try:
                recomputed = self.engine.evaluate_for_check(
                    comp, bindings, line, self.method_desc)
            except Exception as exc:
                raise Blame(
                    f"comp type for {self.method_desc} failed to re-evaluate "
                    f"at call time: {exc}", line, col=self.col,
                )
            if recomputed != expected:
                raise Blame(
                    f"comp type for {self.method_desc} changed between type "
                    f"checking ({expected.to_s()}) and call time "
                    f"({recomputed.to_s()}) — mutable state the type depends "
                    f"on was modified", line, col=self.col,
                )
        self._validated_version = version
        self._check_arg_values(interp, args, line)

    def _check_arg_values(self, interp, args, line) -> None:
        if not self.check_args:
            return
        for value, (pred, expected) in zip(args, self._arg_plan):
            if not pred(interp, value):
                raise Blame(
                    f"argument to {self.method_desc} is not a "
                    f"{expected.to_s()}", line, col=self.col,
                )

    def after_call(self, interp, receiver, args, result, line) -> None:
        if not self._ret_pred(interp, result):
            raise Blame(
                f"{self.method_desc} returned a value outside its computed "
                f"type {self.ret_type.to_s()}", line, col=self.col,
            )
