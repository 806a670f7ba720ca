"""Method signature types, including comp type positions.

A standard RDL signature is ``(A1, ..., An) → A``.  A CompRDL signature may
put a *type-level computation* in any argument bound or in the return
position:  ``(t<:Symbol) → «if t.is_a?(Singleton) ... end»``.  Following the
formalism (λC's ``(a<:e1/A1) → e2/A2``), each computation carries an upper
bound — the conventional type used when comp types are disabled and when
type checking the type-level code itself (rule C-App-Comp's use of ``T(CT)``).
"""

from __future__ import annotations

from typing import Sequence

from repro.rtypes.core import NominalType, RType


class CompExpr(RType):
    """A type-level computation ``«code»/Bound``.

    ``code`` is mini-Ruby source evaluated by the comp engine with ``tself``
    and the signature's argument type variables in scope; ``bound`` is the
    conventional fallback type (λC's ``A`` in ``e/A``).
    """

    __slots__ = ("code", "bound")

    def __init__(self, code: str, bound: RType | None = None):
        super().__init__()
        self.code = code.strip()
        self.bound = bound if bound is not None else NominalType("Object")

    def _key(self) -> object:
        return (self.code, self.bound)

    def _intern_args(self) -> tuple:
        return (self.code, self.bound)

    def to_s(self) -> str:
        return f"«{self.code}»"

    def is_comp(self) -> bool:
        return True


class BoundArg(RType):
    """A named, bounded argument ``t <: Bound`` in a comp signature.

    The variable name is bound to the *type* of the actual argument during
    evaluation of the signature's comp expressions.  ``bound`` may itself be
    a :class:`CompExpr` (as in the paper's Fig. 3 ``where`` signature).
    """

    __slots__ = ("var", "bound")

    def __init__(self, var: str, bound: RType):
        super().__init__()
        self.var = var
        self.bound = bound

    def _key(self) -> object:
        return (self.var, self.bound)

    def _intern_args(self) -> tuple:
        return (self.var, self.bound)

    def to_s(self) -> str:
        return f"{self.var}<:{self.bound.to_s()}"

    def is_comp(self) -> bool:
        return self.bound.is_comp()


class OptionalArg(RType):
    """An optional positional argument ``?T``."""

    __slots__ = ("inner",)

    def __init__(self, inner: RType):
        super().__init__()
        self.inner = inner

    def _key(self) -> object:
        return self.inner

    def _intern_args(self) -> tuple:
        return (self.inner,)

    def to_s(self) -> str:
        return f"?{self.inner.to_s()}"

    def is_comp(self) -> bool:
        return self.inner.is_comp()


class VarargArg(RType):
    """A rest argument ``*T`` accepting any number of ``T``s."""

    __slots__ = ("inner",)

    def __init__(self, inner: RType):
        super().__init__()
        self.inner = inner

    def _key(self) -> object:
        return self.inner

    def _intern_args(self) -> tuple:
        return (self.inner,)

    def to_s(self) -> str:
        return f"*{self.inner.to_s()}"

    def is_comp(self) -> bool:
        return self.inner.is_comp()


class MethodType(RType):
    """A method signature ``(args) [{ blocksig }] → ret``."""

    __slots__ = ("args", "block", "ret")

    def __init__(
        self,
        args: Sequence[RType],
        block: "MethodType | None",
        ret: RType,
    ):
        super().__init__()
        self.args = list(args)
        self.block = block
        self.ret = ret

    def _key(self) -> object:
        return (tuple(self.args), self.block, self.ret)

    def _intern_args(self) -> tuple:
        return (tuple(self.args), self.block, self.ret)

    def to_s(self) -> str:
        args = ", ".join(a.to_s() for a in self.args)
        block = f" {{ {self.block.to_s()} }}" if self.block else ""
        return f"({args}){block} -> {self.ret.to_s()}"

    def is_comp(self) -> bool:
        if self.block is not None and self.block.is_comp():
            return True
        return self.ret.is_comp() or any(a.is_comp() for a in self.args)

    def comp_exprs(self):
        """Every comp expression in the signature, in order: the argument
        positions (through bounds, ``?`` and ``*``), the return type, then
        the block signature's — the positions the engine evaluates while
        checking calls."""
        for part in [*self.args, self.ret]:
            while isinstance(part, (BoundArg, OptionalArg, VarargArg)):
                part = part.bound if isinstance(part, BoundArg) else part.inner
            if isinstance(part, CompExpr):
                yield part
        if self.block is not None:
            yield from self.block.comp_exprs()

    def arity(self) -> tuple[int, int | None]:
        """Minimum and maximum accepted argument counts (None = unbounded)."""
        minimum = 0
        maximum: int | None = 0
        for arg in self.args:
            if isinstance(arg, VarargArg):
                maximum = None
            elif isinstance(arg, OptionalArg):
                if maximum is not None:
                    maximum += 1
            else:
                minimum += 1
                if maximum is not None:
                    maximum += 1
        return minimum, maximum

    def erased(self) -> "MethodType":
        """The conventional signature with every comp position replaced by
        its declared bound — λC's ``T(CT)`` rewriting (§3.2)."""
        def erase(t: RType) -> RType:
            if isinstance(t, CompExpr):
                return t.bound
            if isinstance(t, BoundArg):
                return erase(t.bound)
            if isinstance(t, OptionalArg):
                return OptionalArg(erase(t.inner))
            if isinstance(t, VarargArg):
                return VarargArg(erase(t.inner))
            return t

        return MethodType(
            [erase(a) for a in self.args],
            self.block.erased() if self.block else None,
            erase(self.ret),
        )
