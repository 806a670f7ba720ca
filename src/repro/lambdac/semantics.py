"""λC small-step dynamic semantics with an explicit stack (Fig. 8).

Configurations are ``⟨E, e, S⟩``.  User-method calls push ``(E, C)`` on the
stack (E-AppUD) and returning a value plugs it back into the saved context
(E-Ret).  Checked library calls ``⌈A⌉v.m(v)`` run the native implementation
and reduce to **blame** when the result is outside ``A`` (E-AppLib) —
λC's encoding of failed dynamic checks.  Invoking a method on ``nil`` also
reduces to blame (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lambdac.syntax import (
    Call,
    CheckedCall,
    ClassTable,
    Eq,
    Expr,
    If,
    LibMethod,
    New,
    SelfE,
    Seq,
    TSelfE,
    UserMethod,
    Val,
    Value,
    VBool,
    VNil,
    VObj,
    Var,
    type_of_value,
)


class Blame(Exception):
    """The configuration reduced to blame."""


# A context is represented as a "rebuild" function zipper: we decompose an
# expression into (redex, plug) where plug(e') rebuilds the expression.

def _decompose(e: Expr):
    """Find the leftmost-innermost redex.  Returns (redex, plug) or None when
    ``e`` is itself a redex or a value."""
    if isinstance(e, Val):
        return None
    for attr, wrap in _subexpr_slots(e):
        sub = getattr(e, attr)
        if not isinstance(sub, Val):
            inner = _decompose(sub)
            if inner is None:
                return sub, _plugger(e, attr)
            redex, plug = inner
            outer_plug = _plugger(e, attr)
            return redex, (lambda new, p=plug, op=outer_plug: op(p(new)))
    return None


def _subexpr_slots(e: Expr):
    if isinstance(e, Seq):
        return [("first", None)]
    if isinstance(e, Eq):
        return [("left", None), ("right", None)]
    if isinstance(e, If):
        return [("cond", None)]
    if isinstance(e, Call):
        return [("receiver", None), ("arg", None)]
    if isinstance(e, CheckedCall):
        return [("receiver", None), ("arg", None)]
    return []


def _plugger(e: Expr, attr: str):
    def plug(new: Expr) -> Expr:
        values = {name: getattr(e, name) for name in e.__dataclass_fields__}
        values[attr] = new
        return type(e)(**values)
    return plug


@dataclass
class MachineResult:
    """Outcome of running the machine: a value, blame, or fuel exhaustion."""

    value: Optional[Value] = None
    blamed: bool = False
    blame_message: str = ""
    diverged: bool = False

    def is_value(self) -> bool:
        return self.value is not None


class Machine:
    """The ⟨E, e, S⟩ ⇝ ⟨E', e', S'⟩ machine."""

    def __init__(self, table: ClassTable):
        self.table = table

    # ------------------------------------------------------------------
    def run(self, e: Expr, env: dict | None = None, fuel: int = 10_000) -> MachineResult:
        """Iterate the step relation until a value, blame, or out of fuel."""
        env = dict(env or {})
        stack: list[tuple[dict, object]] = []
        try:
            for _ in range(fuel):
                if isinstance(e, Val) and not stack:
                    return MachineResult(value=e.value)
                env, e, stack = self.step(env, e, stack)
            return MachineResult(diverged=True)
        except Blame as blame:
            return MachineResult(blamed=True, blame_message=str(blame))

    def eval_big(self, e: Expr, env: dict | None = None, fuel: int = 10_000) -> Value:
        """⟨E, e⟩ ⇓ v — used for comp type expressions (C-App-Comp)."""
        result = self.run(e, env, fuel)
        if result.is_value():
            return result.value
        if result.blamed:
            raise Blame(result.blame_message)
        raise Blame("type-level expression diverged")

    # ------------------------------------------------------------------
    def step(self, env: dict, e: Expr, stack: list):
        """One ⇝ step (Fig. 8)."""
        # E-Ret
        if isinstance(e, Val):
            if not stack:
                return env, e, stack
            saved_env, plug = stack[-1]
            return saved_env, plug(e), stack[:-1]

        decomposition = _decompose(e)
        if decomposition is None:
            return self._step_redex(env, e, stack)
        redex, plug = decomposition
        # E-AppUD happens under a context: the context is saved on the stack
        if isinstance(redex, Call) and self._is_user_call(redex):
            return self._app_ud(env, redex, plug, stack)
        new_env, new_redex, new_stack = self._step_redex(env, redex, stack)
        return new_env, plug(new_redex), new_stack

    def _is_user_call(self, call: Call) -> bool:
        if not (isinstance(call.receiver, Val) and isinstance(call.arg, Val)):
            return False
        recv = call.receiver.value
        if isinstance(recv, VNil):
            return False
        method = self.table.lookup(type_of_value(recv), call.method)
        return isinstance(method, UserMethod)

    def _app_ud(self, env: dict, call: Call, plug, stack: list):
        recv = call.receiver.value  # type: ignore[union-attr]
        arg = call.arg.value  # type: ignore[union-attr]
        method = self.table.lookup(type_of_value(recv), call.method)
        assert isinstance(method, UserMethod)
        new_env = {"self": recv, method.param: arg}
        return new_env, method.body, stack + [(env, plug)]

    def _step_redex(self, env: dict, e: Expr, stack: list):
        # E-Var / E-Self / E-TSelf
        if isinstance(e, Var):
            if e.name not in env:
                raise Blame(f"unbound variable {e.name}")
            return env, Val(env[e.name]), stack
        if isinstance(e, SelfE):
            if "self" not in env:
                raise Blame("self outside a method")
            return env, Val(env["self"]), stack
        if isinstance(e, TSelfE):
            if "tself" not in env:
                raise Blame("tself outside a comp type")
            return env, Val(env["tself"]), stack
        # E-New
        if isinstance(e, New):
            return env, Val(VObj(e.class_name)), stack
        # E-Seq
        if isinstance(e, Seq) and isinstance(e.first, Val):
            return env, e.second, stack
        # E-IfTrue / E-IfFalse
        if isinstance(e, If) and isinstance(e.cond, Val):
            value = e.cond.value
            falsy = isinstance(value, VNil) or (isinstance(value, VBool) and not value.value)
            return env, (e.other if falsy else e.then), stack
        # E-EqTrue / E-EqFalse
        if isinstance(e, Eq) and isinstance(e.left, Val) and isinstance(e.right, Val):
            return env, Val(VBool(e.left.value == e.right.value)), stack
        # E-AppUD at top level (no context)
        if isinstance(e, Call) and isinstance(e.receiver, Val) and isinstance(e.arg, Val):
            return self._apply_call(env, e, stack)
        # E-AppLib (checked)
        if isinstance(e, CheckedCall) and isinstance(e.receiver, Val) \
                and isinstance(e.arg, Val):
            return env, Val(self._apply_lib(e)), stack
        raise Blame(f"stuck expression: {e}")

    def _apply_call(self, env: dict, call: Call, stack: list):
        recv = call.receiver.value  # type: ignore[union-attr]
        if isinstance(recv, VNil):
            raise Blame(f"nil has no method '{call.method}'")
        method = self.table.lookup(type_of_value(recv), call.method)
        if method is None:
            raise Blame(f"{type_of_value(recv)} has no method '{call.method}'")
        if isinstance(method, UserMethod):
            new_env = {"self": recv, method.param: call.arg.value}  # type: ignore[union-attr]
            return new_env, method.body, stack + [(env, lambda v: v)]
        # an unchecked library call in the surface program: treat as checked
        # against the declared (erased) range — the C-rules normally insert ⌈A⌉
        sig = method.sig.erased() if hasattr(method.sig, "erased") else method.sig
        checked = CheckedCall(sig.rng, call.receiver, call.method, call.arg)
        return env, checked, stack

    def _apply_lib(self, e: CheckedCall) -> Value:
        recv = e.receiver.value  # type: ignore[union-attr]
        arg = e.arg.value  # type: ignore[union-attr]
        if isinstance(recv, VNil):
            raise Blame(f"nil has no method '{e.method}'")
        method = self.table.lookup(type_of_value(recv), e.method)
        if not isinstance(method, LibMethod):
            raise Blame(f"no library method {type_of_value(recv)}.{e.method}")
        result = method.impl(recv, arg)
        # the ⌈A⌉ dynamic check: blame when outside the computed type
        if not self.table.le(type_of_value(result), e.check_type):
            raise Blame(
                f"checked call ⌈{e.check_type}⌉{type_of_value(recv)}."
                f"{e.method} returned {type_of_value(result)}"
            )
        return result
