"""Closure compilation: how the mini-Ruby VM evaluates code.

This module lowers each parsed AST node **once** into a Python closure
``fn(interp, frame) -> value``; evaluation is then direct calls through
precompiled closure trees — no per-node dispatch on the node's type,
constant literals folded at compile time, and local-variable access
resolved to a single-dict operation wherever scoping allows (method, class
and program bodies always run in a parentless
:class:`~repro.runtime.interp.Env`, so their local reads/writes never need
the chain walk; block bodies keep it).

Closures are **interpreter-agnostic**: every bit of dynamic state (class
tables, registry, dynamic-check table, foreign handlers) is read from the
``interp`` argument at run time.  That is what lets compiled code be cached
on the (parse-cached, process-shared) AST nodes themselves and reused by
every universe in the process.

Semantics are those of the tree-walking reference interpreter kept with
the tests (``tests/oracles/tree_interp.py``), bit for bit: both share
``call_method``/``_dispatch``, the corelib, the object model and the
dynamic-check table.  ``_dispatch_cached`` below follows
``Interp._dispatch`` and shares its method lookup (``Interp.find_method``),
adding a per-call-site inline cache (receiver Python type +
method-table epoch + foreign-handler count + owning interpreter) that
skips the foreign-handler loop and method lookup for monomorphic sites on
builtin value types.
"""

from __future__ import annotations

import weakref


from repro.lang import ast_nodes as ast
from repro.obs.state import ENABLED as _OBS_ON
from repro.obs.state import bump
from repro.rtypes.kinds import Sym
from repro.runtime.errors import RubyError
from repro.runtime.interp import (
    BreakSignal,
    Env,
    Frame,
    NextSignal,
    RaiseSignal,
    ReturnSignal,
    RRange,
    _as_assign_target,
)
from repro.runtime.objects import (
    _METHOD_EPOCH,
    RArray,
    RBlock,
    RClass,
    RException,
    RHash,
    RObject,
    RString,
    ruby_to_s,
)

# Receiver Python types whose method dispatch may be inline-cached: builtin
# value types that (a) map to a fixed RClass independent of the instance and
# (b) are never claimed by a foreign-dispatch handler (handlers claim their
# own wrapper classes: RType, RelationValue, SequelDBValue).  RClass,
# RObject and RException stay out — their Ruby class varies per instance.
_CACHEABLE_TYPES = frozenset(
    (int, float, RString, RArray, RHash, Sym, RRange, RBlock))

def _dispatch_cached(i, recv, name, args, block, line, nid, cache):
    """Checked-call-aware dispatch with a per-call-site inline cache.

    With dynamic checks enabled every call goes through ``call_method`` so
    inserted check specs fire at every checked site.  Otherwise this is
    ``Interp._dispatch`` (foreign handlers, then ``Interp.find_method``)
    plus the inline cache.
    """
    if i.checks_enabled:
        return i.call_method(recv, name, args, block, line, node_id=nid)
    t = recv.__class__
    # cache[0] and cache[4] hold weakrefs: closures live on process-shared
    # AST nodes, and a strong reference to the interpreter (or to a method,
    # whose `owner` chain reaches the whole class graph) would pin a
    # discarded universe for the lifetime of the parse cache
    owner = cache[0]
    if (owner is not None and owner() is i and cache[1] is t
            and cache[2] == _METHOD_EPOCH[0]
            and cache[3] == len(i.foreign_handlers)):
        method = cache[4]()
        if method is not None:
            if _OBS_ON[0]:
                bump("vm.inline_cache.hits")
            if method.native is not None:
                return method.native(i, recv, args, block)
            return i.invoke(method, recv, args, block, line)
    for handler in i.foreign_handlers:
        handled, value = handler(i, recv, name, args, block, line)
        if handled:
            return value
    method = i.find_method(recv, name, line)
    if t in _CACHEABLE_TYPES:
        if _OBS_ON[0]:
            bump("vm.inline_cache.misses")
        method_ref = method.wref
        if method_ref is None:
            method_ref = method.wref = weakref.ref(method)
        cache[0] = i.weak_self
        cache[1] = t
        cache[2] = _METHOD_EPOCH[0]
        cache[3] = len(i.foreign_handlers)
        cache[4] = method_ref
    return i.invoke(method, recv, args, block, line)


# ---------------------------------------------------------------------------
# compiled entry points for methods and blocks
# ---------------------------------------------------------------------------

class CompiledMethod:
    """A user-defined method lowered for the compiled backend.

    The parameter-binding plan is computed eagerly (it is cheap and needed
    on the first call); the body closure is compiled lazily — most loaded
    methods are checked, not run.  Instances are cached on the defining
    ``MethodDef`` node, so every universe sharing a parse-cached AST shares
    one compilation.
    """

    __slots__ = ("params", "body", "_body_fn", "_simple_names", "_plan",
                 "_block_names")

    def __init__(self, params: list, body: list):
        self.params = params or []
        self.body = body or []
        self._body_fn = None
        positional = [p for p in self.params if not p.is_block]
        self._block_names = [p.name for p in self.params if p.is_block]
        if (not self._block_names
                and all(not p.is_splat and p.default is None
                        for p in positional)):
            self._simple_names = [p.name for p in positional]
            self._plan = None
        else:
            self._simple_names = None
            self._plan = positional

    def body_fn(self):
        fn = self._body_fn
        if fn is None:
            fn = compile_body(self.body, True)
            self._body_fn = fn
        return fn

    def bind(self, i, receiver, args, block, env: Env) -> None:
        """Bind ``args``/``block`` into ``env`` (the tree oracle's
        ``_bind_params``, precomputed)."""
        env_vars = env.vars
        names = self._simple_names
        if names is not None:
            n = len(args)
            for idx, name in enumerate(names):
                env_vars[name] = args[idx] if idx < n else None
            return
        positional = self._plan
        count = len(positional)
        index = 0
        for pos_i, param in enumerate(positional):
            if param.is_splat:
                take = len(args) - (count - pos_i - 1) - index
                if take < 0:
                    take = 0
                env_vars[param.name] = RArray(args[index:index + take])
                index += take
            elif index < len(args):
                env_vars[param.name] = args[index]
                index += 1
            elif param.default is not None:
                default_c = param.compiled
                if default_c is None:
                    default_c = compile_node(param.default, True)
                    param.compiled = default_c
                env_vars[param.name] = default_c(i, Frame(receiver, env))
            else:
                env_vars[param.name] = None
        for name in self._block_names:
            env_vars[name] = block


class CompiledBlock:
    """A block body lowered for the compiled backend.

    Cached on the source ``BlockNode``; every ``RBlock`` created from that
    literal carries a reference, so ``Interp.call_block`` can enter the
    compiled body directly (mirroring the tree oracle's binding rules,
    including single-array auto-splat).
    """

    __slots__ = ("params", "body", "_body_fn", "_names", "_splat")

    def __init__(self, params: list, body: list):
        self.params = params or []
        self.body = body or []
        self._body_fn = None
        self._names = [p.name for p in self.params if not p.is_splat]
        splats = [p.name for p in self.params if p.is_splat]
        self._splat = splats[0] if splats else None

    def body_fn(self):
        fn = self._body_fn
        if fn is None:
            fn = compile_body(self.body, False)
            self._body_fn = fn
        return fn

    def call(self, i, block: RBlock, args: list) -> object:
        env = Env(parent=block.env)
        env_vars = env.vars
        names = self._names
        if len(names) > 1 and len(args) == 1 and args[0].__class__ is RArray:
            args = args[0].items
        n = len(args)
        for idx, name in enumerate(names):
            env_vars[name] = args[idx] if idx < n else None
        if self._splat is not None:
            env_vars[self._splat] = RArray(args[len(names):])
        frame = Frame(block.self_obj, env, defining_class=None)
        fn = self._body_fn
        if fn is None:
            fn = self.body_fn()
        try:
            return fn(i, frame)
        except NextSignal as nxt:
            return nxt.value


# ---------------------------------------------------------------------------
# node compilers — one per AST class, mirroring the tree oracle's eval_*
# ---------------------------------------------------------------------------

def _nil(i, f):
    return None


def _true(i, f):
    return True


def _false(i, f):
    return False


def compile_body(body: list, root: bool):
    """Compile a statement list to one closure returning the last value."""
    if not body:
        return _nil
    if len(body) == 1:
        return compile_node(body[0], root)
    comps = [compile_node(node, root) for node in body]
    if len(comps) == 2:
        first, last = comps

        def run2(i, f, first=first, last=last):
            first(i, f)
            return last(i, f)

        return run2
    init = comps[:-1]
    last = comps[-1]

    def run(i, f, init=init, last=last):
        for c in init:
            c(i, f)
        return last(i, f)

    return run


def compile_program(program: ast.Program):
    """Compile a whole program body (the root lexical scope)."""
    return compile_body(program.body, True)


def compile_node(node: ast.Node, root: bool):
    compiler = _COMPILERS.get(node.__class__)
    if compiler is None:
        raise RubyError("InterpError",
                        f"cannot evaluate {type(node).__name__}", node.line)
    return compiler(node, root)


# -- literals ---------------------------------------------------------------

def _c_nil(node, root):
    return _nil


def _c_true(node, root):
    return _true


def _c_false(node, root):
    return _false


def _c_scalar(node, root):
    value = node.value

    def run(i, f, value=value):
        return value

    return run


def _c_str(node, root):
    value = node.value

    def run(i, f, value=value):
        return RString(value)

    return run


def _c_sym(node, root):
    sym = Sym(node.name)

    def run(i, f, sym=sym):
        return sym

    return run


def _c_str_interp(node, root):
    comps = [part if isinstance(part, str) else compile_node(part, root)
             for part in node.parts]

    def run(i, f, comps=comps):
        chunks = []
        for part in comps:
            if part.__class__ is str:
                chunks.append(part)
            else:
                chunks.append(ruby_to_s(part(i, f)))
        return RString("".join(chunks))

    return run


def _c_array_lit(node, root):
    elems = [compile_node(e, root) for e in node.elements]

    def run(i, f, elems=elems):
        return RArray([c(i, f) for c in elems])

    return run


def _c_hash_lit(node, root):
    pairs = [(compile_node(k, root), compile_node(v, root))
             for k, v in node.pairs]

    def run(i, f, pairs=pairs):
        return RHash.from_pairs((k(i, f), v(i, f)) for k, v in pairs)

    return run


def _c_range_lit(node, root):
    low_c = compile_node(node.low, root)
    high_c = compile_node(node.high, root)
    exclusive = node.exclusive
    line = node.line

    def run(i, f):
        low = low_c(i, f)
        high = high_c(i, f)
        if not isinstance(low, int) or not isinstance(high, int):
            raise RubyError("TypeError", "only integer ranges are supported",
                            line)
        return RRange(low, high, exclusive)

    return run


# -- variables --------------------------------------------------------------

def _c_self(node, root):
    def run(i, f):
        return f.self_obj

    return run


def _c_local(node, root):
    name = node.name
    if root:
        def run(i, f, name=name):
            return f.env.vars.get(name)
    else:
        def run(i, f, name=name):
            env = f.env
            while env is not None:
                env_vars = env.vars
                if name in env_vars:
                    return env_vars[name]
                env = env.parent
            return None

    return run


def _c_ivar(node, root):
    name = node.name

    def run(i, f, name=name):
        holder = f.self_obj
        if isinstance(holder, RClass):
            return holder.cvars.get(name)
        if isinstance(holder, RObject):
            return holder.ivars.get(name)
        return None

    return run


def _c_gvar(node, root):
    name = node.name

    def run(i, f, name=name):
        return i.globals.get(name)

    return run


def _c_const(node, root):
    name = node.name
    line = node.line

    def run(i, f, name=name, line=line):
        return i.resolve_const(name, f, line)

    return run


def _c_defined(node, root):
    inner = compile_node(node.operand, root)

    def run(i, f, inner=inner):
        try:
            inner(i, f)
            return RString("expression")
        except (RaiseSignal, RubyError):
            return None

    return run


# -- assignment -------------------------------------------------------------

def compile_store(target: ast.Node, root: bool):
    """Compile an assignment target to ``store(i, f, value)``."""
    cls = target.__class__
    if cls is ast.LocalVar:
        name = target.name
        if root:
            def store(i, f, value, name=name):
                f.env.vars[name] = value
        else:
            def store(i, f, value, name=name):
                f.env.assign(name, value)
        return store
    if cls is ast.IVar:
        name = target.name
        line = target.line

        def store(i, f, value, name=name, line=line):
            holder = f.self_obj
            if isinstance(holder, RClass):
                holder.cvars[name] = value
            elif isinstance(holder, RObject):
                holder.ivars[name] = value
            else:
                raise RubyError("InterpError", "cannot set ivar here", line)

        return store
    if cls is ast.GVar:
        name = target.name

        def store(i, f, value, name=name):
            i.globals[name] = value

        return store
    if cls is ast.ConstRef:
        name = target.name

        def store(i, f, value, name=name):
            defining = f.defining_class
            if defining is not None:
                defining.consts[name] = value
            else:
                i.consts[name] = value
            if defining is i.classes.get("Object"):
                i.consts[name] = value

        return store
    line = target.line

    def store(i, f, value, line=line):
        raise RubyError("InterpError", "bad assignment target", line)

    return store


def _c_assign(node, root):
    value_c = compile_node(node.value, root)
    target = node.target
    if target.__class__ is ast.LocalVar and root:
        name = target.name

        def run(i, f, value_c=value_c, name=name):
            value = value_c(i, f)
            f.env.vars[name] = value
            return value

        return run
    store = compile_store(target, root)

    def run(i, f, value_c=value_c, store=store):
        value = value_c(i, f)
        store(i, f, value)
        return value

    return run


def _c_multi_assign(node, root):
    stores = [compile_store(t, root) for t in node.targets]
    if len(node.values) == 1:
        value_c = compile_node(node.values[0], root)

        def run(i, f, value_c=value_c, stores=stores):
            value = value_c(i, f)
            items = value.items if isinstance(value, RArray) else [value]
            n = len(items)
            for idx, store in enumerate(stores):
                store(i, f, items[idx] if idx < n else None)
            return RArray(items)

        return run
    value_cs = [compile_node(v, root) for v in node.values]

    def run(i, f, value_cs=value_cs, stores=stores):
        items = [c(i, f) for c in value_cs]
        n = len(items)
        for idx, store in enumerate(stores):
            store(i, f, items[idx] if idx < n else None)
        return RArray(items)

    return run


def _c_index_assign(node, root):
    recv_c = compile_node(node.receiver, root)
    arg_cs = [compile_node(a, root) for a in node.args]
    value_c = compile_node(node.value, root)
    line = node.line
    nid = node.node_id
    cache = [None, None, 0, 0, None]

    def run(i, f):
        recv = recv_c(i, f)
        args = [c(i, f) for c in arg_cs]
        value = value_c(i, f)
        args.append(value)
        _dispatch_cached(i, recv, "[]=", args, None, line, nid, cache)
        return value

    return run


def _c_attr_assign(node, root):
    recv_c = compile_node(node.receiver, root)
    value_c = compile_node(node.value, root)
    name = node.name + "="
    line = node.line
    nid = node.node_id
    cache = [None, None, 0, 0, None]

    def run(i, f):
        recv = recv_c(i, f)
        value = value_c(i, f)
        _dispatch_cached(i, recv, name, [value], None, line, nid, cache)
        return value

    return run


def _c_op_assign(node, root):
    target = node.target
    value_c = compile_node(node.value, root)
    store = compile_store(_as_assign_target(target), root)
    is_or = node.op == "||"
    if (target.__class__ is ast.MethodCall and target.receiver is None
            and not target.args):
        name = target.name
        if root:
            def read(i, f, name=name):
                return f.env.vars.get(name)
        else:
            def read(i, f, name=name):
                return f.env.lookup(name)
    else:
        target_c = compile_node(target, root)

        def read(i, f, target_c=target_c):
            try:
                return target_c(i, f)
            except RaiseSignal:
                return None

    def run(i, f):
        current = read(i, f)
        truthy = current is not None and current is not False
        if truthy if is_or else not truthy:
            return current
        value = value_c(i, f)
        store(i, f, value)
        return value

    return run


# -- control flow -----------------------------------------------------------

def _c_if(node, root):
    cond = compile_node(node.cond, root)
    then_b = compile_body(node.then_body, root)
    else_b = compile_body(node.else_body, root)

    def run(i, f, cond=cond, then_b=then_b, else_b=else_b):
        value = cond(i, f)
        if value is not None and value is not False:
            return then_b(i, f)
        return else_b(i, f)

    return run


def _c_while(node, root):
    cond = compile_node(node.cond, root)
    body = compile_body(node.body, root)
    is_until = node.is_until

    def run(i, f, cond=cond, body=body, is_until=is_until):
        while True:
            value = cond(i, f)
            test = value is not None and value is not False
            if is_until:
                test = not test
            if not test:
                break
            try:
                body(i, f)
            except BreakSignal as brk:
                return brk.value
            except NextSignal:
                continue
        return None

    return run


def _c_case(node, root):
    has_subject = node.subject is not None
    subject_c = compile_node(node.subject, root) if has_subject else None
    whens = [
        ([compile_node(v, root) for v in when.values],
         compile_body(when.body, root))
        for when in node.whens
    ]
    else_b = compile_body(node.else_body, root)

    def run(i, f):
        subject = subject_c(i, f) if has_subject else None
        for values, body in whens:
            for value_c in values:
                value = value_c(i, f)
                if has_subject:
                    matched = i.case_eq(value, subject)
                else:
                    matched = value is not None and value is not False
                if matched:
                    return body(i, f)
        return else_b(i, f)

    return run


def _c_return(node, root):
    if node.value is None:
        def run(i, f):
            raise ReturnSignal(None)
    else:
        value_c = compile_node(node.value, root)

        def run(i, f, value_c=value_c):
            raise ReturnSignal(value_c(i, f))

    return run


def _c_break(node, root):
    value_c = compile_node(node.value, root) if node.value else None

    def run(i, f, value_c=value_c):
        raise BreakSignal(value_c(i, f) if value_c else None)

    return run


def _c_next(node, root):
    value_c = compile_node(node.value, root) if node.value else None

    def run(i, f, value_c=value_c):
        raise NextSignal(value_c(i, f) if value_c else None)

    return run


def _c_and(node, root):
    left = compile_node(node.left, root)
    right = compile_node(node.right, root)

    def run(i, f, left=left, right=right):
        value = left(i, f)
        if value is None or value is False:
            return value
        return right(i, f)

    return run


def _c_or(node, root):
    left = compile_node(node.left, root)
    right = compile_node(node.right, root)

    def run(i, f, left=left, right=right):
        value = left(i, f)
        if value is not None and value is not False:
            return value
        return right(i, f)

    return run


def _c_not(node, root):
    operand = compile_node(node.operand, root)

    def run(i, f, operand=operand):
        value = operand(i, f)
        return value is None or value is False

    return run


# -- exceptions -------------------------------------------------------------

def _c_raise(node, root):
    line = node.line
    if not node.args:
        def run(i, f, line=line):
            raise RaiseSignal(i.make_exception(
                "RuntimeError", "unhandled exception", line))

        return run
    first_c = compile_node(node.args[0], root)
    second_c = compile_node(node.args[1], root) if len(node.args) > 1 else None

    def run(i, f):
        first = first_c(i, f)
        if isinstance(first, RClass):
            message = ""
            if second_c is not None:
                message = ruby_to_s(second_c(i, f))
            raise RaiseSignal(RException(first, message))
        if isinstance(first, RException):
            raise RaiseSignal(first)
        raise RaiseSignal(i.make_exception(
            "RuntimeError", ruby_to_s(first), line))

    return run


def _c_begin_rescue(node, root):
    body = compile_body(node.body, root)
    rescue_body = compile_body(node.rescue_body, root)
    ensure_body = compile_body(node.ensure_body, root) if node.ensure_body else None
    rescue_class = node.rescue_class
    rescue_var = node.rescue_var

    def run(i, f):
        try:
            result = body(i, f)
        except RaiseSignal as sig:
            matches = True
            if rescue_class is not None:
                wanted = i.classes.get(rescue_class)
                matches = wanted is not None and i.is_a(sig.exc, wanted)
            if not matches:
                if ensure_body is not None:
                    ensure_body(i, f)
                raise
            if rescue_var:
                f.env.assign(rescue_var, sig.exc)
            result = rescue_body(i, f)
        if ensure_body is not None:
            ensure_body(i, f)
        return result

    return run


# -- definitions ------------------------------------------------------------

def _c_class_def(node, root):
    body = compile_body(node.body, True)
    name = node.name
    superclass = node.superclass or "Object"

    def run(i, f):
        klass = i.classes.get(name)
        if klass is None:
            klass = i.define_class(name, superclass)
        body(i, Frame(klass, Env(), defining_class=klass))
        for hook in i.class_def_hooks:
            hook(i, klass)
        return None

    return run


def _c_module_def(node, root):
    body = compile_body(node.body, True)
    name = node.name

    def run(i, f):
        klass = i.define_class(name, "Object")
        body(i, Frame(klass, Env(), defining_class=klass))
        return None

    return run


def _c_method_def(node, root):
    from repro.runtime.objects import RMethod

    code = node.compiled
    if code is None:
        code = CompiledMethod(node.params, node.body)
        node.compiled = code
    name = node.name
    is_self = node.is_self
    sym = Sym(name)

    def run(i, f, node=node, code=code, name=name, is_self=is_self, sym=sym):
        owner = f.defining_class or i.classes["Object"]
        method = RMethod(name, params=node.params, body=node.body)
        method.code = code
        replaced = name in (owner.smethods if is_self else owner.imethods)
        owner.define(name, method, static=is_self)
        if i.registry is not None:
            i.registry.note_method_defined(owner.name, node, is_self,
                                           replaced)
        return sym

    return run


# -- calls ------------------------------------------------------------------

def _block_maker(node: ast.MethodCall, root: bool):
    """Compile the block (or block-pass argument) of a call site."""
    if node.block is not None:
        blk = node.block
        entry = blk.compiled
        if entry is None:
            entry = CompiledBlock(blk.params, blk.body)
            blk.compiled = entry
        params = blk.params
        body = blk.body

        def make(i, f, params=params, body=body, entry=entry):
            return RBlock(params, body, f.env, f.self_obj, compiled=entry)

        return make
    if node.block_arg is not None:
        arg_c = compile_node(node.block_arg, root)
        line = node.line

        def make(i, f, arg_c=arg_c, line=line):
            passed = arg_c(i, f)
            if isinstance(passed, Sym):
                return RBlock([], [], None, None, sym_proc=passed)
            if isinstance(passed, RBlock) or passed is None:
                return passed
            raise RubyError("TypeError", "block argument is not a Proc", line)

        return make
    return None


def _c_method_call(node, root):
    name = node.name
    line = node.line
    nid = node.node_id
    arg_cs = [compile_node(a, root) for a in node.args]
    make_block = _block_maker(node, root)
    cache = [None, None, 0, 0, None]

    if node.receiver is None:
        if not node.args and node.block is None:
            # a block-less, arg-less self-call may actually be a local read
            # (mirrors eval_MethodCall: the block-pass argument, if any, is
            # only consulted when the name is not a visible local)
            if root:
                def run(i, f, name=name, line=line, nid=nid,
                        make_block=make_block, cache=cache):
                    env_vars = f.env.vars
                    if name in env_vars:
                        return env_vars[name]
                    block = make_block(i, f) if make_block is not None else None
                    return _dispatch_cached(i, f.self_obj, name, [], block,
                                            line, nid, cache)
            else:
                def run(i, f, name=name, line=line, nid=nid,
                        make_block=make_block, cache=cache):
                    env = f.env
                    while env is not None:
                        env_vars = env.vars
                        if name in env_vars:
                            return env_vars[name]
                        env = env.parent
                    block = make_block(i, f) if make_block is not None else None
                    return _dispatch_cached(i, f.self_obj, name, [], block,
                                            line, nid, cache)

            return run

        def run(i, f, name=name, line=line, nid=nid, arg_cs=arg_cs,
                make_block=make_block, cache=cache):
            args = [c(i, f) for c in arg_cs]
            block = make_block(i, f) if make_block is not None else None
            return _dispatch_cached(i, f.self_obj, name, args, block,
                                    line, nid, cache)

        return run

    recv_c = compile_node(node.receiver, root)
    if make_block is None and len(arg_cs) == 1:
        arg_c, = arg_cs  # binary operators: no list comprehension per call

        def run(i, f, recv_c=recv_c, name=name, line=line, nid=nid,
                arg_c=arg_c, cache=cache):
            return _dispatch_cached(i, recv_c(i, f), name, [arg_c(i, f)],
                                    None, line, nid, cache)

        return run

    def run(i, f, recv_c=recv_c, name=name, line=line, nid=nid,
            arg_cs=arg_cs, make_block=make_block, cache=cache):
        recv = recv_c(i, f)
        args = [c(i, f) for c in arg_cs]
        block = make_block(i, f) if make_block is not None else None
        return _dispatch_cached(i, recv, name, args, block, line, nid, cache)

    return run


def _c_yield(node, root):
    arg_cs = [compile_node(a, root) for a in node.args]
    line = node.line

    def run(i, f, arg_cs=arg_cs, line=line):
        block = f.block
        if block is None:
            raise RaiseSignal(i.make_exception(
                "RuntimeError", "no block given (yield)", line))
        args = [c(i, f) for c in arg_cs]
        return i.call_block(block, args, line)

    return run


_COMPILERS = {
    ast.NilLit: _c_nil,
    ast.TrueLit: _c_true,
    ast.FalseLit: _c_false,
    ast.IntLit: _c_scalar,
    ast.FloatLit: _c_scalar,
    ast.StrLit: _c_str,
    ast.SymLit: _c_sym,
    ast.StrInterp: _c_str_interp,
    ast.ArrayLit: _c_array_lit,
    ast.HashLit: _c_hash_lit,
    ast.RangeLit: _c_range_lit,
    ast.SelfExpr: _c_self,
    ast.LocalVar: _c_local,
    ast.IVar: _c_ivar,
    ast.GVar: _c_gvar,
    ast.ConstRef: _c_const,
    ast.Defined: _c_defined,
    ast.Assign: _c_assign,
    ast.MultiAssign: _c_multi_assign,
    ast.IndexAssign: _c_index_assign,
    ast.AttrAssign: _c_attr_assign,
    ast.OpAssign: _c_op_assign,
    ast.If: _c_if,
    ast.While: _c_while,
    ast.Case: _c_case,
    ast.Return: _c_return,
    ast.Break: _c_break,
    ast.Next: _c_next,
    ast.AndOp: _c_and,
    ast.OrOp: _c_or,
    ast.NotOp: _c_not,
    ast.Raise: _c_raise,
    ast.BeginRescue: _c_begin_rescue,
    ast.ClassDef: _c_class_def,
    ast.ModuleDef: _c_module_def,
    ast.MethodDef: _c_method_def,
    ast.MethodCall: _c_method_call,
    ast.Yield: _c_yield,
}
