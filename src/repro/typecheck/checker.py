"""The CompRDL static type checker for mini-Ruby method bodies.

Follows RDL's just-in-time model: the program has already been *run* (so
classes, methods, and ``type`` annotations are loaded), and then labelled
methods are checked against their signatures.  Calls are typed via the
annotation registry; when the callee's signature contains comp positions
and comp types are enabled, the comp engine evaluates them with ``tself``
and the argument type variables bound (rule C-App-Comp), and a dynamic
check is attached to the call node (the rewriting of §3.2).

The checker has two modes:

* **CompRDL mode** (``use_comp_types=True``) — the paper's system;
* **RDL mode** (``use_comp_types=False``) — comp positions erase to their
  declared bounds and precise receiver types (finite hash, tuple, const
  string) are *promoted* on any method call, reproducing plain RDL.  With
  ``repair_with_casts=True`` the checker additionally counts, instead of
  failing on, every call that a programmer would need a ``type_cast`` for —
  this regenerates Table 2's "Casts (RDL)" column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.lang import ast_nodes as ast
from repro.obs.spans import span
from repro.rtypes import (
    AnyType,
    BotType,
    BoundArg,
    CompExpr,
    ConstStringType,
    FiniteHashType,
    GenericType,
    MethodType,
    NominalType,
    OptionalArg,
    RType,
    SingletonType,
    TupleType,
    UnionType,
    VarType,
    VarargArg,
    instantiate,
    join,
    make_union,
    subtype,
    unify_args,
)
from repro.rtypes.hierarchy import ClassHierarchy, default_hierarchy
from repro.rtypes.kinds import ClassRef, Sym
from repro.rtypes.subtype import ConstraintLog, replay_constraints
from repro.runtime.objects import RArray, RClass, RHash, RString
from repro.comp.checks import CheckSpec
from repro.typecheck.errors import StaticTypeError, TypeErrorReport
from repro.typecheck.registry import AnnotationRegistry, MethodAnnotation, MethodKey

_BOOL = NominalType("Boolean")
_NIL = SingletonType(None)
_OBJECT = NominalType("Object")
_STRING = NominalType("String")


@dataclass
class CheckerConfig:
    """Switches between CompRDL and plain-RDL behaviour."""

    use_comp_types: bool = True
    insert_checks: bool = True
    # RDL-mode measurement: instead of failing, count an oracle cast at each
    # call a programmer would have to cast, unless it is a known real error.
    repair_with_casts: bool = False
    known_errors: set = field(default_factory=set)


@dataclass
class MethodContext:
    """Per-method state while checking a body."""

    class_name: str
    method_name: str
    static: bool
    self_type: RType
    ret_type: RType
    block_sig: MethodType | None
    desc: str


class TypeChecker:
    """Checks annotated mini-Ruby methods; see module docstring."""

    def __init__(self, interp, registry: AnnotationRegistry,
                 config: CheckerConfig | None = None):
        self.interp = interp
        self.registry = registry
        self.config = config or CheckerConfig()
        from repro.comp.engine import CompEngine  # deferred: import cycle

        self.engine = CompEngine(interp, registry)
        self.report = TypeErrorReport()
        self._hierarchy: ClassHierarchy | None = None
        self._hierarchy_size = -1
        # wall time of the most recent check_one, the same measurement that
        # frames the check.method span and feeds the planner's cost model —
        # the provenance ledger reuses it instead of re-timing the check
        self.last_check_wall_s = 0.0

    # ------------------------------------------------------------------
    # hierarchy (kept in sync with interpreter-defined classes)
    # ------------------------------------------------------------------
    def hierarchy(self) -> ClassHierarchy:
        if self._hierarchy is None or self._hierarchy_size != len(self.interp.classes):
            hierarchy = default_hierarchy()
            for name, klass in self.interp.classes.items():
                parent = klass.superclass.name if klass.superclass else "Object"
                if not hierarchy.knows(name):
                    hierarchy.add_class(name, parent)
            self._hierarchy = hierarchy
            self._hierarchy_size = len(self.interp.classes)
        return self._hierarchy

    def _subtype(self, s: RType, t: RType, record: bool = True) -> bool:
        return subtype(s, t, self.hierarchy(), record)

    def _join(self, a: RType, b: RType) -> RType:
        return join(a, b, self.hierarchy())

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def check_label(self, label: str) -> TypeErrorReport:
        """Check every method annotated with ``typecheck: label``."""
        for key in self.registry.methods_for_label(label):
            self.check_method(key.class_name, key.method_name, key.static)
        return self.report

    def check_method(self, class_name: str, method_name: str,
                     static: bool = False) -> TypeErrorReport:
        """Check one method's body against its (first) signature."""
        desc, errors, _, _ = self.check_one(class_name, method_name, static)
        self.report.checked_methods.append(desc)
        self.report.errors.extend(errors)
        return self.report

    def check_one(self, class_name: str, method_name: str,
                  static: bool = False
                  ) -> tuple[str, list[StaticTypeError], int, int]:
        """Check one method, returning its verdict without touching the
        cumulative report: ``(desc, errors, casts_used, oracle_casts)``.

        All schema reads and comp evaluations during the check are
        attributed to the method via the engine's dependency tracker, which
        is what lets the incremental scheduler dirty it precisely when the
        schema changes.
        """
        key = MethodKey(class_name, method_name, static)
        desc = str(key)
        errors: list[StaticTypeError] = []
        casts_before = self.report.casts_used
        oracle_before = self.report.oracle_casts
        check_start = time.perf_counter()
        with span("check.method", label=desc) as sp, \
                self.engine.deps.tracking(key):
            annotations = self.registry.lookup_method(
                class_name, method_name, static, self.interp)
            node = self.registry.lookup_body(
                class_name, method_name, static, self.interp)
            if annotations is None:
                errors.append(
                    StaticTypeError("method has no type annotation", 0, desc))
            elif node is None:
                errors.append(
                    StaticTypeError("method has no body to check", 0, desc))
            elif not annotations[0].signature.is_comp():
                # comp-typed methods are not statically checked (§2.4): they
                # get dynamic checks at call sites instead
                try:
                    self._check_body(node, annotations[0].signature,
                                     class_name, static, desc)
                except StaticTypeError as error:
                    errors.append(error)
            if errors:
                sp.set("errors", len(errors))
        # observed cost feeds the parallel shard planner's cost model (EWMA)
        self.last_check_wall_s = time.perf_counter() - check_start
        self.engine.stats.observe_cost(desc, self.last_check_wall_s)
        return (desc, errors,
                self.report.casts_used - casts_before,
                self.report.oracle_casts - oracle_before)

    # ------------------------------------------------------------------
    # body checking
    # ------------------------------------------------------------------
    def _check_body(self, node: ast.MethodDef, signature: MethodType,
                    class_name: str, static: bool, desc: str) -> None:
        self_type: RType = (
            SingletonType(ClassRef(class_name)) if static else NominalType(class_name)
        )
        ctx = MethodContext(
            class_name=class_name,
            method_name=node.name,
            static=static,
            self_type=self_type,
            ret_type=signature.ret if not isinstance(signature.ret, CompExpr)
            else signature.ret.bound,
            block_sig=signature.block,
            desc=desc,
        )
        env: dict[str, RType] = {}
        formals = _positional_formals(signature.args)
        positional = [p for p in node.params if not p.is_block]
        for index, param in enumerate(positional):
            if param.is_splat:
                inner = formals[index] if index < len(formals) else _OBJECT
                env[param.name] = GenericType("Array", [_strip(inner)])
            elif index < len(formals):
                env[param.name] = _strip(formals[index])
            elif param.default is not None:
                env[param.name] = self.expr_type(param.default, env, ctx)
            else:
                env[param.name] = _OBJECT
        for param in node.params:
            if param.is_block:
                env[param.name] = NominalType("Proc")

        body_type = self.check_stmts(node.body, env, ctx)
        if not self._subtype(body_type, ctx.ret_type):
            self._fail_or_repair(
                f"body has type {body_type.to_s()}, expected return type "
                f"{ctx.ret_type.to_s()}",
                node.line, ctx,
            )

    def check_stmts(self, stmts: list, env: dict, ctx: MethodContext) -> RType:
        result: RType = _NIL
        for stmt in stmts:
            result = self.expr_type(stmt, env, ctx)
        return result

    # ------------------------------------------------------------------
    # expression typing
    # ------------------------------------------------------------------
    def expr_type(self, node, env: dict, ctx: MethodContext) -> RType:
        handler = getattr(self, f"t_{type(node).__name__}", None)
        if handler is None:
            raise StaticTypeError(
                f"cannot type {type(node).__name__}", getattr(node, "line", 0), ctx.desc
            )
        return handler(node, env, ctx)

    # -- literals -----------------------------------------------------------
    def t_NilLit(self, node, env, ctx) -> RType:
        return _NIL

    def t_TrueLit(self, node, env, ctx) -> RType:
        return SingletonType(True)

    def t_FalseLit(self, node, env, ctx) -> RType:
        return SingletonType(False)

    def t_IntLit(self, node, env, ctx) -> RType:
        return SingletonType(node.value)

    def t_FloatLit(self, node, env, ctx) -> RType:
        return SingletonType(node.value)

    def t_StrLit(self, node, env, ctx) -> RType:
        return ConstStringType(node.value)

    def t_SymLit(self, node, env, ctx) -> RType:
        return SingletonType(Sym(node.name))

    def t_StrInterp(self, node, env, ctx) -> RType:
        for part in node.parts:
            if not isinstance(part, str):
                self.expr_type(part, env, ctx)
        return _STRING

    def t_ArrayLit(self, node, env, ctx) -> RType:
        return TupleType([self.expr_type(e, env, ctx) for e in node.elements])

    def t_HashLit(self, node, env, ctx) -> RType:
        symbol_keys: dict[object, RType] = {}
        all_symbols = True
        key_types: list[RType] = []
        value_types: list[RType] = []
        for key_node, value_node in node.pairs:
            value_type = self.expr_type(value_node, env, ctx)
            if isinstance(key_node, ast.SymLit):
                symbol_keys[Sym(key_node.name)] = value_type
                key_types.append(SingletonType(Sym(key_node.name)))
            else:
                all_symbols = False
                key_types.append(self.expr_type(key_node, env, ctx))
            value_types.append(value_type)
        if all_symbols:
            return FiniteHashType(symbol_keys)
        key_join = make_union([_widen_singleton(t) for t in key_types]) if key_types else _OBJECT
        value_join = make_union(value_types) if value_types else _OBJECT
        return GenericType("Hash", [key_join, value_join])

    def t_RangeLit(self, node, env, ctx) -> RType:
        self.expr_type(node.low, env, ctx)
        self.expr_type(node.high, env, ctx)
        return NominalType("Range")

    # -- variables -----------------------------------------------------------
    def t_SelfExpr(self, node, env, ctx) -> RType:
        return ctx.self_type

    def t_LocalVar(self, node, env, ctx) -> RType:
        if node.name in env:
            return env[node.name]
        return _NIL

    def t_IVar(self, node, env, ctx) -> RType:
        rtype = self.registry.lookup_ivar(ctx.class_name, node.name, self.interp)
        if rtype is None:
            raise StaticTypeError(
                f"no type annotation for instance variable {node.name} "
                f"(add `var_type :{node.name}, \"T\"`)", node.line, ctx.desc)
        return rtype

    def t_GVar(self, node, env, ctx) -> RType:
        rtype = self.registry.gvar_types.get(node.name)
        if rtype is None:
            raise StaticTypeError(
                f"no type annotation for global variable {node.name}", node.line, ctx.desc)
        return rtype

    def t_ConstRef(self, node, env, ctx) -> RType:
        name = node.name
        if name in self.interp.classes:
            return SingletonType(ClassRef(name))
        if name in self.registry.const_types:
            return self.registry.const_types[name]
        if name in self.interp.consts:
            return self._type_of_runtime(self.interp.consts[name])
        klass = self.interp.classes.get(ctx.class_name)
        while klass is not None:
            if name in klass.consts:
                return self._type_of_runtime(klass.consts[name])
            klass = klass.superclass
        raise StaticTypeError(f"uninitialized constant {name}", node.line, ctx.desc)

    def t_Defined(self, node, env, ctx) -> RType:
        try:
            self.expr_type(node.operand, env, ctx)
        except StaticTypeError:
            pass
        return make_union([_STRING, _NIL])

    def _type_of_runtime(self, value) -> RType:
        """A type for a constant's runtime value."""
        if isinstance(value, RClass):
            return SingletonType(ClassRef(value.name))
        advertised = getattr(value, "comprdl_class_name", None)
        if advertised is not None:
            return NominalType(advertised)
        if isinstance(value, RString):
            return ConstStringType(value.val)
        if isinstance(value, bool) or value is None:
            return SingletonType(value)
        if isinstance(value, (int, float)):
            return SingletonType(value)
        if isinstance(value, Sym):
            return SingletonType(value)
        if isinstance(value, RArray):
            return GenericType("Array", [_OBJECT])
        if isinstance(value, RHash):
            return GenericType("Hash", [_OBJECT, _OBJECT])
        if isinstance(value, RType):
            return NominalType("Type")
        return _OBJECT

    # -- assignment -----------------------------------------------------------
    def t_Assign(self, node, env, ctx) -> RType:
        value_type = self.expr_type(node.value, env, ctx)
        target = node.target
        if isinstance(target, ast.LocalVar):
            env[target.name] = value_type
        elif isinstance(target, ast.IVar):
            declared = self.registry.lookup_ivar(ctx.class_name, target.name, self.interp)
            if declared is None:
                raise StaticTypeError(
                    f"no type annotation for instance variable {target.name}",
                    node.line, ctx.desc)
            if not self._subtype(value_type, declared):
                self._fail_or_repair(
                    f"cannot assign {value_type.to_s()} to {target.name}: "
                    f"{declared.to_s()}", node.line, ctx)
        elif isinstance(target, ast.GVar):
            declared = self.registry.gvar_types.get(target.name)
            if declared is None:
                raise StaticTypeError(
                    f"no type annotation for global variable {target.name}",
                    node.line, ctx.desc)
            if not self._subtype(value_type, declared):
                self._fail_or_repair(
                    f"cannot assign {value_type.to_s()} to {target.name}: "
                    f"{declared.to_s()}", node.line, ctx)
        elif isinstance(target, ast.ConstRef):
            self.registry.const_types.setdefault(target.name, _widen_singleton(value_type))
        return value_type

    def t_MultiAssign(self, node, env, ctx) -> RType:
        if len(node.values) == 1:
            source = self.expr_type(node.values[0], env, ctx)
            if isinstance(source, TupleType):
                value_types = list(source.elts)
            elif isinstance(source, GenericType) and source.base == "Array":
                value_types = [source.params[0]] * len(node.targets)
            else:
                value_types = [source] * len(node.targets)
        else:
            value_types = [self.expr_type(v, env, ctx) for v in node.values]
        for index, target in enumerate(node.targets):
            value_type = value_types[index] if index < len(value_types) else _NIL
            if isinstance(target, ast.LocalVar):
                env[target.name] = value_type
        return TupleType(value_types)

    def t_OpAssign(self, node, env, ctx) -> RType:
        target = node.target
        current: RType
        if isinstance(target, ast.LocalVar):
            current = env.get(target.name, _NIL)
        elif isinstance(target, ast.MethodCall) and target.receiver is None and not target.args:
            current = env.get(target.name, _NIL)
        else:
            current = self.expr_type(target, env, ctx)
        value_type = self.expr_type(node.value, env, ctx)
        result = self._join(_strip_falsy(current) if node.op == "||" else current, value_type)
        name = getattr(target, "name", None)
        if name is not None and isinstance(target, (ast.LocalVar, ast.MethodCall)):
            env[name] = result
        return result

    def t_IndexAssign(self, node, env, ctx) -> RType:
        receiver_type = self.expr_type(node.receiver, env, ctx)
        index_types = [self.expr_type(a, env, ctx) for a in node.args]
        value_type = self.expr_type(node.value, env, ctx)
        self._check_element_write(receiver_type, index_types, value_type, node, ctx)
        return value_type

    def _check_element_write(self, receiver_type: RType, index_types: list,
                             value_type: RType, node, ctx) -> None:
        index_type = index_types[0] if index_types else _OBJECT
        if isinstance(receiver_type, TupleType) and isinstance(index_type, SingletonType) \
                and isinstance(index_type.value, int):
            index = index_type.value
            if 0 <= index < len(receiver_type.elts):
                if not self._subtype(value_type, receiver_type.elts[index], record=False):
                    # weak update (§4): widen the shared tuple type in place
                    receiver_type.widen_elem(index, value_type)
                    self._replay(receiver_type, node, ctx)
                return
            receiver_type.elts.extend([_NIL] * (index - len(receiver_type.elts)))
            receiver_type.elts.append(value_type)
            self._replay(receiver_type, node, ctx)
            return
        if isinstance(receiver_type, FiniteHashType) and isinstance(index_type, SingletonType) \
                and isinstance(index_type.value, Sym):
            key = index_type.value
            existing = receiver_type.elts.get(key)
            if existing is None or not self._subtype(value_type, existing, record=False):
                receiver_type.widen_key(key, value_type)
                self._replay(receiver_type, node, ctx)
            return
        # otherwise: an ordinary []= call
        self._apply_call(receiver_type, "[]=", index_types + [value_type], node, None, env, ctx)

    def _replay(self, mutable, node, ctx) -> None:
        try:
            replay_constraints(mutable, self.hierarchy())
        except ConstraintLog.ReplayError as exc:
            raise StaticTypeError(str(exc), node.line, ctx.desc)

    def t_AttrAssign(self, node, env, ctx) -> RType:
        receiver_type = self.expr_type(node.receiver, env, ctx)
        value_type = self.expr_type(node.value, env, ctx)
        self._apply_call(receiver_type, node.name + "=", [value_type], node, None, env, ctx)
        return value_type

    # -- control flow -----------------------------------------------------------
    def t_If(self, node, env, ctx) -> RType:
        self.expr_type(node.cond, env, ctx)
        then_env = dict(env)
        else_env = dict(env)
        then_type = self.check_stmts(node.then_body, then_env, ctx) if node.then_body else _NIL
        else_type = self.check_stmts(node.else_body, else_env, ctx) if node.else_body else _NIL
        _merge_envs(env, then_env, else_env, self._join)
        return self._join(then_type, else_type)

    def t_While(self, node, env, ctx) -> RType:
        self.expr_type(node.cond, env, ctx)
        body_env = dict(env)
        self.check_stmts(node.body, body_env, ctx)
        _merge_envs(env, body_env, env, self._join)
        return _NIL

    def t_Case(self, node, env, ctx) -> RType:
        if node.subject is not None:
            self.expr_type(node.subject, env, ctx)
        result: RType | None = None
        branch_envs = []
        for when in node.whens:
            for value in when.values:
                self.expr_type(value, env, ctx)
            when_env = dict(env)
            when_type = self.check_stmts(when.body, when_env, ctx)
            branch_envs.append(when_env)
            result = when_type if result is None else self._join(result, when_type)
        else_env = dict(env)
        else_type = self.check_stmts(node.else_body, else_env, ctx) if node.else_body else _NIL
        branch_envs.append(else_env)
        for branch in branch_envs:
            _merge_envs(env, branch, env, self._join)
        return self._join(result, else_type) if result is not None else else_type

    def t_Return(self, node, env, ctx) -> RType:
        value_type = self.expr_type(node.value, env, ctx) if node.value is not None else _NIL
        if not self._subtype(value_type, ctx.ret_type):
            self._fail_or_repair(
                f"returned {value_type.to_s()}, expected {ctx.ret_type.to_s()}",
                node.line, ctx)
        return BotType()

    def t_Break(self, node, env, ctx) -> RType:
        if node.value is not None:
            self.expr_type(node.value, env, ctx)
        return BotType()

    def t_Next(self, node, env, ctx) -> RType:
        if node.value is not None:
            self.expr_type(node.value, env, ctx)
        return BotType()

    def t_AndOp(self, node, env, ctx) -> RType:
        left = self.expr_type(node.left, env, ctx)
        right = self.expr_type(node.right, env, ctx)
        return self._join(left, right)

    def t_OrOp(self, node, env, ctx) -> RType:
        left = self.expr_type(node.left, env, ctx)
        right = self.expr_type(node.right, env, ctx)
        return self._join(_strip_falsy(left), right)

    def t_NotOp(self, node, env, ctx) -> RType:
        self.expr_type(node.operand, env, ctx)
        return _BOOL

    def t_Raise(self, node, env, ctx) -> RType:
        for arg in node.args:
            self.expr_type(arg, env, ctx)
        return BotType()

    def t_BeginRescue(self, node, env, ctx) -> RType:
        body_env = dict(env)
        body_type = self.check_stmts(node.body, body_env, ctx)
        rescue_env = dict(env)
        if node.rescue_var:
            rescue_env[node.rescue_var] = NominalType(node.rescue_class or "StandardError")
        rescue_type = self.check_stmts(node.rescue_body, rescue_env, ctx) \
            if node.rescue_body else _NIL
        if node.ensure_body:
            self.check_stmts(node.ensure_body, env, ctx)
        _merge_envs(env, body_env, rescue_env, self._join)
        if not node.rescue_body:
            return body_type
        return self._join(body_type, rescue_type)

    def t_Yield(self, node, env, ctx) -> RType:
        arg_types = [self.expr_type(a, env, ctx) for a in node.args]
        if ctx.block_sig is None:
            return AnyType()
        formals = _positional_formals(ctx.block_sig.args)
        for actual, formal in zip(arg_types, formals):
            if not self._subtype(actual, _strip(formal)):
                raise StaticTypeError(
                    f"yielded {actual.to_s()}, block expects {_strip(formal).to_s()}",
                    node.line, ctx.desc)
        return ctx.block_sig.ret

    # -- calls --------------------------------------------------------------------
    def t_MethodCall(self, node, env, ctx) -> RType:
        # locals win over self-calls for bare identifiers
        if node.receiver is None and not node.args and node.block is None \
                and node.name in env:
            return env[node.name]
        # casts: RDL.type_cast(e, "T") / type_cast(e, "T")
        if node.name in ("type_cast", "instantiate!") and self._is_rdl_receiver(node.receiver):
            return self._handle_cast(node, env, ctx)
        if node.receiver is None:
            receiver_type = ctx.self_type
        else:
            receiver_type = self.expr_type(node.receiver, env, ctx)
        arg_types = [self.expr_type(a, env, ctx) for a in node.args]
        return self._apply_call(receiver_type, node.name, arg_types, node,
                                node.block, env, ctx)

    def _is_rdl_receiver(self, receiver) -> bool:
        return receiver is None or (
            isinstance(receiver, ast.ConstRef) and receiver.name == "RDL"
        )

    def _handle_cast(self, node, env, ctx) -> RType:
        from repro.rtypes import parse_type

        if not node.args:
            raise StaticTypeError("type_cast needs an expression", node.line, ctx.desc)
        self.expr_type(node.args[0], env, ctx)
        if len(node.args) >= 2 and isinstance(node.args[1], ast.StrLit):
            self.report.casts_used += 1
            return parse_type(node.args[1].value)
        self.report.casts_used += 1
        return AnyType()

    # the heart: typing a call against registered signatures --------------------
    def _apply_call(self, receiver_type: RType, name: str, arg_types: list,
                    node, block, env, ctx) -> RType:
        try:
            return self._apply_call_inner(receiver_type, name, arg_types, node, block, env, ctx)
        except StaticTypeError as error:
            if self.config.repair_with_casts and not self._is_known_error(ctx, node):
                # a programmer running plain RDL would insert a type cast here
                self.report.oracle_casts += 1
                if block is not None:
                    self._check_block_body(None, {}, block, env, ctx)
                return AnyType()
            raise error

    def _is_known_error(self, ctx, node) -> bool:
        return (ctx.desc, getattr(node, "line", 0)) in self.config.known_errors \
            or ctx.desc in self.config.known_errors

    def _fail_or_repair(self, message: str, line: int, ctx) -> None:
        """Raise a static error — unless we are measuring plain-RDL cast
        counts, in which case a non-genuine error becomes one oracle cast
        (the ``type_cast`` a programmer would insert, §5.3)."""
        if self.config.repair_with_casts and ctx.desc not in self.config.known_errors:
            self.report.oracle_casts += 1
            return
        raise StaticTypeError(message, line, ctx.desc)

    def _apply_call_inner(self, receiver_type: RType, name: str, arg_types: list,
                          node, block, env, ctx) -> RType:
        receiver_type = _canon(receiver_type)
        if isinstance(receiver_type, AnyType):
            if block is not None:
                self._check_block_body(None, {}, block, env, ctx)
            return AnyType()
        if isinstance(receiver_type, BotType):
            return BotType()
        if isinstance(receiver_type, UnionType):
            results = [
                self._apply_call_inner(member, name, arg_types, node, block, env, ctx)
                for member in receiver_type.types
            ]
            out = results[0]
            for t in results[1:]:
                out = self._join(out, t)
            return out

        # plain RDL promotes precise receivers on any method call (§2.2)
        if not self.config.use_comp_types:
            receiver_type = _promote_for_rdl(receiver_type)

        class_name, static = self._class_info(receiver_type, node, ctx)
        annotations = self.registry.lookup_method(class_name, name, static, self.interp)
        if annotations is None and static:
            if name == "new":
                return self._type_new(class_name, arg_types, node, env, ctx, block)
            # class-level fallback to Object instance methods (classes are objects)
            annotations = self.registry.lookup_method("Object", name, False, self.interp)
        if annotations is None:
            raise StaticTypeError(
                f"no type information for method "
                f"{class_name}{'.' if static else '#'}{name}",
                node.line, ctx.desc)

        if not self.config.use_comp_types:
            # plain RDL: prefer the conventional overloads (e.g. Hash#[] is
            # `(k) -> v`); erase comp signatures only if nothing else exists
            plain = [a for a in annotations if not a.signature.is_comp()]
            if plain:
                annotations = plain

        errors: list[StaticTypeError] = []
        for annotation in annotations:
            try:
                return self._apply_signature(
                    annotation, receiver_type, class_name, name, arg_types,
                    node, block, env, ctx)
            except StaticTypeError as error:
                errors.append(error)
        raise errors[0]

    def _type_new(self, class_name: str, arg_types: list, node, env, ctx, block) -> RType:
        init = self.registry.lookup_method(class_name, "initialize", False, self.interp)
        if init is not None:
            formals = _positional_formals(init[0].signature.args)
            paired = _pair_args(init[0].signature.args, len(arg_types))
            if paired is None:
                raise StaticTypeError(
                    f"wrong number of arguments to {class_name}.new", node.line, ctx.desc)
            for actual, formal in zip(arg_types, paired):
                if not self._subtype(actual, formal):
                    raise StaticTypeError(
                        f"argument to {class_name}.new has type {actual.to_s()}, "
                        f"expected {formal.to_s()}", node.line, ctx.desc)
        if block is not None:
            self._check_block_body(None, {}, block, env, ctx)
        return NominalType(class_name)

    def _class_info(self, receiver_type: RType, node, ctx) -> tuple[str, bool]:
        if isinstance(receiver_type, SingletonType):
            if isinstance(receiver_type.value, ClassRef):
                return receiver_type.value.name, True
            return receiver_type.base_name, False
        if isinstance(receiver_type, NominalType):
            return receiver_type.name, False
        if isinstance(receiver_type, GenericType):
            return receiver_type.base, False
        if isinstance(receiver_type, TupleType):
            return "Array", False
        if isinstance(receiver_type, FiniteHashType):
            return "Hash", False
        if isinstance(receiver_type, ConstStringType):
            return "String", False
        raise StaticTypeError(
            f"cannot determine class of receiver type {receiver_type.to_s()}",
            getattr(node, "line", 0), ctx.desc)

    def _apply_signature(self, annotation: MethodAnnotation, receiver_type: RType,
                         class_name: str, name: str, arg_types: list,
                         node, block, env, ctx) -> RType:
        signature = annotation.signature
        if not self.config.use_comp_types and signature.is_comp():
            signature = signature.erased()

        paired = _pair_args(signature.args, len(arg_types))
        if paired is None:
            low, high = signature.arity()
            raise StaticTypeError(
                f"wrong number of arguments to {class_name}#{name} "
                f"(got {len(arg_types)}, expected {low}"
                f"{'' if high == low else '..' + (str(high) if high is not None else '*')})",
                node.line, ctx.desc)

        # generic receiver bindings (Hash<K,V> binds k, v; Array<T> binds a)
        bindings: dict[str, RType] = {"self": receiver_type}
        declared_params = self._declared_params(class_name)
        if declared_params:
            from repro.rtypes.instantiate import receiver_bindings

            bindings.update(receiver_bindings(receiver_type, declared_params))

        # comp bindings: tself plus BoundArg variables; a bound vararg
        # (*targs<:Object) binds its variable to the tuple of extra args
        comp_bindings: dict[str, RType] = {"tself": receiver_type}
        for formal, actual in zip(paired, arg_types):
            if isinstance(formal, BoundArg):
                comp_bindings[formal.var] = actual
        for formal in signature.args:
            if isinstance(formal, VarargArg) and isinstance(formal.inner, BoundArg):
                extras = [a for f, a in zip(paired, arg_types) if f is formal.inner]
                comp_bindings[formal.inner.var] = TupleType(extras)

        comp_results: list[tuple[CompExpr, dict, RType]] = []
        computed_args: list[RType] = []
        for formal, actual in zip(paired, arg_types):
            bound = formal.bound if isinstance(formal, BoundArg) else formal
            if isinstance(bound, CompExpr):
                computed = self.engine.evaluate(bound, comp_bindings, node.line, ctx.desc)
                comp_results.append((bound, dict(comp_bindings), computed))
                computed_args.append(computed)
            else:
                computed_args.append(bound)

        # unify remaining free type variables against the actual argument types
        bindings = unify_args(computed_args, arg_types, self.hierarchy(), bindings)
        computed_args = [instantiate(t, bindings) for t in computed_args]

        for actual, formal in zip(arg_types, computed_args):
            if not self._subtype(actual, formal):
                raise StaticTypeError(
                    f"argument to {class_name}#{name} has type {actual.to_s()}, "
                    f"expected {formal.to_s()}", node.line, ctx.desc)

        # block checking (comp expressions in block-arg positions are
        # evaluated with the same bindings, so e.g. `users.each { |u| ... }`
        # types u from the receiver's element type)
        block_sig = signature.block
        if block_sig is not None:
            resolved_args = []
            for formal in block_sig.args:
                if isinstance(formal, CompExpr):
                    resolved_args.append(
                        self.engine.evaluate(formal, comp_bindings, node.line, ctx.desc))
                else:
                    resolved_args.append(formal)
            block_ret = block_sig.ret
            if isinstance(block_ret, CompExpr):
                block_ret = self.engine.evaluate(block_ret, comp_bindings, node.line, ctx.desc)
            block_sig = instantiate(MethodType(resolved_args, None, block_ret), bindings)
        if block is not None:
            bindings = self._check_block_body(block_sig, bindings, block, env, ctx)

        # return type
        if isinstance(signature.ret, CompExpr):
            ret_type = self.engine.evaluate(signature.ret, comp_bindings, node.line, ctx.desc)
            comp_results.append((signature.ret, dict(comp_bindings), ret_type))
        else:
            ret_type = instantiate(signature.ret, bindings)
            if isinstance(ret_type, VarType):
                ret_type = AnyType()

        # dynamic check insertion (the §3.2 rewriting step)
        if (self.config.insert_checks and annotation.signature.is_comp()
                and self.config.use_comp_types and annotation.wrap
                and node is not None and hasattr(node, "node_id")):
            self.interp.check_table[node.node_id] = CheckSpec(
                method_desc=f"{class_name}#{name}",
                ret_type=ret_type,
                arg_types=list(computed_args),
                comp_results=comp_results,
                engine=self.engine,
                line=node.line,
                col=getattr(node, "col", 0),
            )

        # impure methods on precise mutable receivers trigger weak updates
        self._maybe_weak_update(annotation, class_name, name, receiver_type,
                                arg_types, node, ctx)
        return ret_type

    def _declared_params(self, class_name: str) -> list[str]:
        klass = self.interp.classes.get(class_name)
        if klass is not None and klass.generic_params:
            return klass.generic_params
        return []

    def _check_block_body(self, block_sig: MethodType | None, bindings: dict,
                          block, env, ctx) -> dict:
        block_env = dict(env)
        formals = _positional_formals(block_sig.args) if block_sig else []
        for index, param in enumerate(block.params):
            if index < len(formals):
                block_env[param.name] = _strip(formals[index])
            else:
                block_env[param.name] = AnyType()
        body_type = self.check_stmts(block.body, block_env, ctx)
        if block_sig is not None:
            expected = block_sig.ret
            if isinstance(expected, VarType) and expected.name not in bindings:
                bindings = dict(bindings)
                bindings[expected.name] = body_type
            elif not isinstance(expected, CompExpr):
                expected_t = instantiate(expected, bindings)
                if not isinstance(expected_t, VarType) and not self._subtype(body_type, expected_t):
                    raise StaticTypeError(
                        f"block returns {body_type.to_s()}, expected {expected_t.to_s()}",
                        block.line, ctx.desc)
        # variables mutated inside the block escape to the outer env
        for key in env:
            if key in block_env:
                env[key] = self._join(env[key], block_env[key])
        return bindings

    def _maybe_weak_update(self, annotation, class_name, name, receiver_type,
                           arg_types, node, ctx) -> None:
        effect = self.registry.effect_of(class_name, name, False, self.interp)
        if effect.pure != "-":
            return
        if isinstance(receiver_type, ConstStringType) and not receiver_type.is_promoted:
            receiver_type.promote()
            self._replay(receiver_type, node, ctx)
        elif isinstance(receiver_type, TupleType) and name in ("push", "append", "<<", "concat"):
            for t in arg_types:
                receiver_type.elts.append(t)
            self._replay(receiver_type, node, ctx)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _positional_formals(args: list) -> list[RType]:
    return [a for a in args]


def _pair_args(formals: list, n: int) -> list[RType] | None:
    """Pair ``n`` actual arguments with formal positions, expanding optional
    and vararg markers.  Returns None on arity mismatch."""
    required = [f for f in formals if not isinstance(f, (OptionalArg, VarargArg))]
    optionals = [f for f in formals if isinstance(f, OptionalArg)]
    vararg = next((f for f in formals if isinstance(f, VarargArg)), None)
    if n < len(required):
        return None
    if n > len(required) + len(optionals) and vararg is None:
        return None
    out: list[RType] = []
    remaining = n
    iter_optionals = iter(optionals)
    for formal in formals:
        if isinstance(formal, OptionalArg):
            continue
        if isinstance(formal, VarargArg):
            continue
        out.append(formal)
        remaining -= 1
    for formal in optionals:
        if remaining <= 0:
            break
        out.append(formal.inner)
        remaining -= 1
    while remaining > 0 and vararg is not None:
        out.append(vararg.inner)
        remaining -= 1
    return out


def _strip(t: RType) -> RType:
    if isinstance(t, OptionalArg) or isinstance(t, VarargArg):
        return _strip(t.inner)
    if isinstance(t, BoundArg):
        return _strip(t.bound) if not isinstance(t.bound, CompExpr) else t.bound.bound
    if isinstance(t, CompExpr):
        return t.bound
    return t


def _strip_falsy(t: RType) -> RType:
    """Remove nil/false members from a union (for ``a || b`` typing)."""
    if isinstance(t, SingletonType) and (t.value is None or t.value is False):
        return BotType()
    if isinstance(t, NominalType) and t.name in ("NilClass", "FalseClass"):
        return BotType()
    if isinstance(t, UnionType):
        return make_union([_strip_falsy(m) for m in t.types])
    return t


def _widen_singleton(t: RType) -> RType:
    if isinstance(t, SingletonType):
        return NominalType(t.base_name)
    if isinstance(t, ConstStringType):
        return _STRING
    return t


def _canon(t: RType) -> RType:
    if isinstance(t, ConstStringType) and t.is_promoted:
        return _STRING
    return t


def _promote_for_rdl(t: RType) -> RType:
    """Plain RDL's promotion: finite hash → Hash<K,V>, tuple → Array<T>,
    const string → String (§2.2)."""
    if isinstance(t, FiniteHashType):
        return t.promoted()
    if isinstance(t, TupleType):
        return t.promoted()
    if isinstance(t, ConstStringType):
        return _STRING
    return t


def _merge_envs(env: dict, left: dict, right: dict, joiner) -> None:
    """Merge two branch environments back into ``env`` (join per variable;
    a variable assigned on only one path may be nil on the other)."""
    keys = set(left) | set(right)
    for key in keys:
        left_t = left.get(key, env.get(key, _NIL))
        right_t = right.get(key, env.get(key, _NIL))
        env[key] = joiner(left_t, right_t)
