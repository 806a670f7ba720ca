"""Dynamic checks inserted at comp-typed call sites (§2.4, §3.2, §4).

When the checker types a call via a comp signature it attaches a
:class:`CheckSpec` to the call node.  At run time (with checks enabled) the
interpreter consults the spec:

* **before the call** — the comp expressions in the signature are
  *re-evaluated* on the input types recorded at type-checking time, but only
  once the state they may consult has moved: the schema generation
  (``db.version``) or the universe's method epoch (a ``def`` may redefine a
  type-level helper).  A spec is seeded with the state the checker computed
  its results against, so an unmutated universe pays two integer compares;
  a different result raises Blame (§4 "Heap Mutation").  Computed argument
  types are also checked against the actual argument values;
* **after the call** — the returned value is checked against the computed
  return type: λC's checked call ⌈A⌉e.m(e), reducing to blame on failure.

Seeding is sound because the spec owns its return type: the checker hands
that object on to the caller's env, where later weak updates widen it in
place (``r << x`` after ``r = a + b``), so it is copied once at
construction.  Argument comp results never leave the spec.

Specs are also *specialized at construction*: the argument and return types
are lowered once into compiled membership predicates
(:mod:`repro.runtime.member_compile`), so the per-call loop does no type
dispatch.  Failure messages are rendered from the original types, so Blame
reads the same whichever predicate ``predicate_for`` hands out; the parity
tests swap in the reference ``value_has_type`` walker there and compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtypes import CompExpr, RType
from repro.rtypes.intern import fresh_copy
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
    # (db.version, engine.method_epoch) the comp results are known valid
    # at, seeded with the state the checker computed them against; the
    # inputs (bindings) are fixed per call site, so the results can only
    # change when the schema or a type-level helper changes (§4)
    _validated_version: int | None = field(default=None, repr=False)
    _validated_epoch: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # own the return type (see the module docstring)
        ret, self.ret_type = self.ret_type, fresh_copy(self.ret_type)
        self.comp_results = [
            (comp, bindings, self.ret_type if expected is ret else expected)
            for comp, bindings, expected in self.comp_results]
        if self.engine is not None:
            self._validated_version = self.engine.generation
            self._validated_epoch = self.engine.method_epoch
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
        epoch = self.engine.method_epoch
        if self._validated_version == version and self._validated_epoch == epoch:
            self._check_arg_values(interp, args, line)
            return
        for comp, bindings, expected in self.comp_results:
            try:
                recomputed = self.engine.evaluate(
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
        self._validated_epoch = epoch
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
