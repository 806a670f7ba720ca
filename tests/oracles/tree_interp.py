"""The mini-Ruby tree walker: a test oracle for the closure compiler.

:class:`TreeInterp` evaluates the parsed AST directly, one ``eval_<Node>``
method per node type.  It is the reference semantics that the production
backend (:mod:`repro.runtime.compile`, which lowers each node once into a
Python closure) must reproduce: results, stdout, Blame messages and
dependency footprints.  It lives under ``tests/`` because nothing ships a
way to select it; tests construct ``TreeInterp()`` directly, or run a whole
universe on it with ``monkeypatch.setattr(repro.api, "Interp", TreeInterp)``.

Only evaluation differs from :class:`~repro.runtime.interp.Interp`:
dispatch (``call_method``/``_dispatch``), the corelib, the object model,
constant lookup, ``case_eq``, exceptions and the dynamic-check table are
inherited unchanged.  ``invoke``, ``call_block`` and ``execute_program``
are overridden to enter AST bodies instead of compiled closures.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.rtypes.kinds import Sym
from repro.runtime.errors import RubyError
from repro.runtime.interp import (
    BreakSignal,
    Env,
    Frame,
    Interp,
    NextSignal,
    RaiseSignal,
    ReturnSignal,
    RRange,
    _as_assign_target,
)
from repro.runtime.objects import (
    RArray,
    RBlock,
    RClass,
    RException,
    RHash,
    RMethod,
    RObject,
    RString,
    ruby_to_s,
    ruby_truthy,
)


class TreeInterp(Interp):
    """An :class:`Interp` that walks the AST instead of running closures."""

    def execute_program(self, program: ast.Program, frame: Frame) -> object:
        return self.eval_body(program.body, frame)

    def eval_body(self, body: list, frame: Frame) -> object:
        result: object = None
        for node in body:
            result = self.eval(node, frame)
        return result

    # ------------------------------------------------------------------
    # evaluation dispatch
    # ------------------------------------------------------------------
    def eval(self, node: ast.Node, frame: Frame) -> object:
        method = getattr(self, f"eval_{type(node).__name__}", None)
        if method is None:
            raise RubyError("InterpError", f"cannot evaluate {type(node).__name__}", node.line)
        return method(node, frame)

    # -- literals ----------------------------------------------------------
    def eval_NilLit(self, node: ast.NilLit, frame: Frame) -> object:
        return None

    def eval_TrueLit(self, node: ast.TrueLit, frame: Frame) -> object:
        return True

    def eval_FalseLit(self, node: ast.FalseLit, frame: Frame) -> object:
        return False

    def eval_IntLit(self, node: ast.IntLit, frame: Frame) -> object:
        return node.value

    def eval_FloatLit(self, node: ast.FloatLit, frame: Frame) -> object:
        return node.value

    def eval_StrLit(self, node: ast.StrLit, frame: Frame) -> object:
        return RString(node.value)

    def eval_SymLit(self, node: ast.SymLit, frame: Frame) -> object:
        return Sym(node.name)

    def eval_StrInterp(self, node: ast.StrInterp, frame: Frame) -> object:
        chunks: list[str] = []
        for part in node.parts:
            if isinstance(part, str):
                chunks.append(part)
            else:
                chunks.append(ruby_to_s(self.eval(part, frame)))
        return RString("".join(chunks))

    def eval_ArrayLit(self, node: ast.ArrayLit, frame: Frame) -> object:
        return RArray([self.eval(e, frame) for e in node.elements])

    def eval_HashLit(self, node: ast.HashLit, frame: Frame) -> object:
        return RHash.from_pairs(
            (self.eval(k, frame), self.eval(v, frame)) for k, v in node.pairs
        )

    def eval_RangeLit(self, node: ast.RangeLit, frame: Frame) -> object:
        low = self.eval(node.low, frame)
        high = self.eval(node.high, frame)
        if not isinstance(low, int) or not isinstance(high, int):
            raise RubyError("TypeError", "only integer ranges are supported", node.line)
        return RRange(low, high, node.exclusive)

    # -- variables ---------------------------------------------------------
    def eval_SelfExpr(self, node: ast.SelfExpr, frame: Frame) -> object:
        return frame.self_obj

    def eval_LocalVar(self, node: ast.LocalVar, frame: Frame) -> object:
        return frame.env.lookup(node.name)

    def eval_IVar(self, node: ast.IVar, frame: Frame) -> object:
        holder = frame.self_obj
        if isinstance(holder, RClass):
            return holder.cvars.get(node.name)
        if isinstance(holder, RObject):
            return holder.ivars.get(node.name)
        return None

    def eval_GVar(self, node: ast.GVar, frame: Frame) -> object:
        return self.globals.get(node.name)

    def eval_ConstRef(self, node: ast.ConstRef, frame: Frame) -> object:
        return self.resolve_const(node.name, frame, node.line)

    def eval_Defined(self, node: ast.Defined, frame: Frame) -> object:
        try:
            self.eval(node.operand, frame)
            return RString("expression")
        except (RaiseSignal, RubyError):
            return None

    # -- assignment ---------------------------------------------------------
    def eval_Assign(self, node: ast.Assign, frame: Frame) -> object:
        value = self.eval(node.value, frame)
        self.assign_target(node.target, value, frame)
        return value

    def assign_target(self, target: ast.Node, value: object, frame: Frame) -> None:
        if isinstance(target, ast.LocalVar):
            frame.env.assign(target.name, value)
        elif isinstance(target, ast.IVar):
            holder = frame.self_obj
            if isinstance(holder, RClass):
                holder.cvars[target.name] = value
            elif isinstance(holder, RObject):
                holder.ivars[target.name] = value
            else:
                raise RubyError("InterpError", "cannot set ivar here", target.line)
        elif isinstance(target, ast.GVar):
            self.globals[target.name] = value
        elif isinstance(target, ast.ConstRef):
            if frame.defining_class is not None:
                frame.defining_class.consts[target.name] = value
            else:
                self.consts[target.name] = value
            if frame.defining_class is self.classes.get("Object"):
                self.consts[target.name] = value
        else:
            raise RubyError("InterpError", "bad assignment target", target.line)

    def eval_MultiAssign(self, node: ast.MultiAssign, frame: Frame) -> object:
        if len(node.values) == 1:
            value = self.eval(node.values[0], frame)
            items = value.items if isinstance(value, RArray) else [value]
        else:
            items = [self.eval(v, frame) for v in node.values]
        for index, target in enumerate(node.targets):
            self.assign_target(target, items[index] if index < len(items) else None, frame)
        return RArray(items)

    def eval_IndexAssign(self, node: ast.IndexAssign, frame: Frame) -> object:
        receiver = self.eval(node.receiver, frame)
        args = [self.eval(a, frame) for a in node.args]
        value = self.eval(node.value, frame)
        self.call_method(receiver, "[]=", args + [value], None, node.line,
                         node_id=node.node_id)
        return value

    def eval_AttrAssign(self, node: ast.AttrAssign, frame: Frame) -> object:
        receiver = self.eval(node.receiver, frame)
        value = self.eval(node.value, frame)
        self.call_method(receiver, node.name + "=", [value], None, node.line,
                         node_id=node.node_id)
        return value

    def eval_OpAssign(self, node: ast.OpAssign, frame: Frame) -> object:
        current = self._read_opassign_target(node.target, frame)
        if node.op == "||":
            if ruby_truthy(current):
                return current
        else:  # &&=
            if not ruby_truthy(current):
                return current
        value = self.eval(node.value, frame)
        self.assign_target(_as_assign_target(node.target), value, frame)
        return value

    def _read_opassign_target(self, target: ast.Node, frame: Frame) -> object:
        if isinstance(target, ast.MethodCall) and target.receiver is None and not target.args:
            return frame.env.lookup(target.name)
        try:
            return self.eval(target, frame)
        except RaiseSignal:
            return None

    # -- control flow --------------------------------------------------------
    def eval_If(self, node: ast.If, frame: Frame) -> object:
        if ruby_truthy(self.eval(node.cond, frame)):
            return self.eval_body(node.then_body, frame)
        return self.eval_body(node.else_body, frame)

    def eval_While(self, node: ast.While, frame: Frame) -> object:
        result: object = None
        while True:
            test = ruby_truthy(self.eval(node.cond, frame))
            if node.is_until:
                test = not test
            if not test:
                break
            try:
                result = self.eval_body(node.body, frame)
            except BreakSignal as brk:
                return brk.value
            except NextSignal:
                continue
        return None

    def eval_Case(self, node: ast.Case, frame: Frame) -> object:
        subject = self.eval(node.subject, frame) if node.subject is not None else None
        for when in node.whens:
            for value_node in when.values:
                value = self.eval(value_node, frame)
                if node.subject is None:
                    matched = ruby_truthy(value)
                else:
                    matched = self.case_eq(value, subject)
                if matched:
                    return self.eval_body(when.body, frame)
        return self.eval_body(node.else_body, frame)

    def eval_Return(self, node: ast.Return, frame: Frame) -> object:
        value = self.eval(node.value, frame) if node.value is not None else None
        raise ReturnSignal(value)

    def eval_Break(self, node: ast.Break, frame: Frame) -> object:
        raise BreakSignal(self.eval(node.value, frame) if node.value else None)

    def eval_Next(self, node: ast.Next, frame: Frame) -> object:
        raise NextSignal(self.eval(node.value, frame) if node.value else None)

    def eval_AndOp(self, node: ast.AndOp, frame: Frame) -> object:
        left = self.eval(node.left, frame)
        if not ruby_truthy(left):
            return left
        return self.eval(node.right, frame)

    def eval_OrOp(self, node: ast.OrOp, frame: Frame) -> object:
        left = self.eval(node.left, frame)
        if ruby_truthy(left):
            return left
        return self.eval(node.right, frame)

    def eval_NotOp(self, node: ast.NotOp, frame: Frame) -> object:
        return not ruby_truthy(self.eval(node.operand, frame))

    # -- exceptions ----------------------------------------------------------
    def eval_Raise(self, node: ast.Raise, frame: Frame) -> object:
        if not node.args:
            raise RaiseSignal(self.make_exception("RuntimeError", "unhandled exception", node.line))
        first = self.eval(node.args[0], frame)
        if isinstance(first, RClass):
            message = ""
            if len(node.args) > 1:
                message = ruby_to_s(self.eval(node.args[1], frame))
            raise RaiseSignal(RException(first, message))
        if isinstance(first, RException):
            raise RaiseSignal(first)
        raise RaiseSignal(self.make_exception("RuntimeError", ruby_to_s(first), node.line))

    def eval_BeginRescue(self, node: ast.BeginRescue, frame: Frame) -> object:
        try:
            result = self.eval_body(node.body, frame)
        except RaiseSignal as sig:
            matches = True
            if node.rescue_class is not None:
                wanted = self.classes.get(node.rescue_class)
                matches = wanted is not None and self.is_a(sig.exc, wanted)
            if not matches:
                self._run_ensure(node, frame)
                raise
            if node.rescue_var:
                frame.env.assign(node.rescue_var, sig.exc)
            result = self.eval_body(node.rescue_body, frame)
        self._run_ensure(node, frame)
        return result

    def _run_ensure(self, node: ast.BeginRescue, frame: Frame) -> None:
        if node.ensure_body:
            self.eval_body(node.ensure_body, frame)

    # -- definitions ----------------------------------------------------------
    def eval_ClassDef(self, node: ast.ClassDef, frame: Frame) -> object:
        klass = self.classes.get(node.name)
        if klass is None:
            klass = self.define_class(node.name, node.superclass or "Object")
        body_frame = Frame(klass, Env(), defining_class=klass)
        self.eval_body(node.body, body_frame)
        for hook in self.class_def_hooks:
            hook(self, klass)
        return None

    def eval_ModuleDef(self, node: ast.ModuleDef, frame: Frame) -> object:
        klass = self.define_class(node.name, "Object")
        body_frame = Frame(klass, Env(), defining_class=klass)
        self.eval_body(node.body, body_frame)
        return None

    def eval_MethodDef(self, node: ast.MethodDef, frame: Frame) -> object:
        owner = frame.defining_class or self.classes["Object"]
        method = RMethod(node.name, params=node.params, body=node.body)
        table = owner.smethods if node.is_self else owner.imethods
        replaced = node.name in table
        owner.define(node.name, method, static=node.is_self)
        if self.registry is not None:
            self.registry.note_method_defined(owner.name, node, node.is_self,
                                              replaced)
        return Sym(node.name)

    # -- calls -----------------------------------------------------------------
    def eval_MethodCall(self, node: ast.MethodCall, frame: Frame) -> object:
        if node.receiver is None:
            receiver = frame.self_obj
            # a block-less, arg-less self-call may actually be a local read
            if not node.args and node.block is None and frame.env.knows(node.name):
                return frame.env.lookup(node.name)
        else:
            receiver = self.eval(node.receiver, frame)
        args = [self.eval(a, frame) for a in node.args]
        block = None
        if node.block is not None:
            block = RBlock(node.block.params, node.block.body, frame.env, frame.self_obj)
        elif node.block_arg is not None:
            passed = self.eval(node.block_arg, frame)
            if isinstance(passed, Sym):
                block = RBlock([], [], None, None, sym_proc=passed)
            elif isinstance(passed, RBlock) or passed is None:
                block = passed
            else:
                raise RubyError("TypeError", "block argument is not a Proc", node.line)
        return self.call_method(receiver, node.name, args, block, node.line,
                                node_id=node.node_id)

    def eval_Yield(self, node: ast.Yield, frame: Frame) -> object:
        if frame.block is None:
            raise RaiseSignal(self.make_exception("RuntimeError", "no block given (yield)", node.line))
        args = [self.eval(a, frame) for a in node.args]
        return self.call_block(frame.block, args, node.line)

    # -- method and block entry ---------------------------------------------
    def invoke(self, method: RMethod, receiver: object, args: list,
               block: RBlock | None, line: int) -> object:
        if method.native is not None:
            return method.native(self, receiver, args, block)
        self.call_depth += 1
        if self.call_depth > self.max_call_depth:
            self.call_depth = 0
            raise RubyError("SystemStackError", "stack level too deep", line)
        try:
            env = Env()
            self._bind_params(method.params, args, block, env, receiver)
            frame = Frame(receiver, env, block=block,
                          defining_class=method.owner, method_name=method.name)
            self.frame_stack.append(frame)
            try:
                return self.eval_body(method.body, frame)
            except ReturnSignal as ret:
                return ret.value
            finally:
                self.frame_stack.pop()
        finally:
            self.call_depth -= 1

    def _bind_params(self, params: list, args: list, block: RBlock | None,
                     env: Env, receiver: object) -> None:
        positional = [p for p in params if not p.is_block]
        index = 0
        for param in positional:
            if param.is_splat:
                take = len(args) - (len(positional) - positional.index(param) - 1) - index
                take = max(take, 0)
                env.vars[param.name] = RArray(args[index:index + take])
                index += take
            elif index < len(args):
                env.vars[param.name] = args[index]
                index += 1
            elif param.default is not None:
                frame = Frame(receiver, env)
                env.vars[param.name] = self.eval(param.default, frame)
            else:
                env.vars[param.name] = None
        for param in params:
            if param.is_block:
                env.vars[param.name] = block

    def call_block(self, block: RBlock, args: list, line: int) -> object:
        if block.sym_proc is not None:
            return super().call_block(block, args, line)
        env = Env(parent=block.env)
        params = [p for p in block.params if not p.is_splat]
        splats = [p for p in block.params if p.is_splat]
        # block auto-splat: |a, b| with a single array argument
        if len(params) > 1 and len(args) == 1 and isinstance(args[0], RArray):
            args = list(args[0].items)
        for i, param in enumerate(params):
            env.vars[param.name] = args[i] if i < len(args) else None
        if splats:
            env.vars[splats[0].name] = RArray(args[len(params):])
        frame = Frame(block.self_obj, env, defining_class=None)
        try:
            return self.eval_body(block.body, frame)
        except NextSignal as nxt:
            return nxt.value
