"""AST node definitions for mini-Ruby.

Nodes are plain dataclasses.  Operators (``+``, ``[]``, comparisons, …) are
desugared by the parser into :class:`MethodCall` nodes, mirroring Ruby where
``x[k]`` is ``x.[](k)`` — this is what lets comp types give precise types to
"operators" (§2.2).  Only short-circuit ``&&``/``||``/``!`` keep dedicated
nodes because they are control flow, not method calls.

Every node has a ``line`` for error reporting, and ``MethodCall`` nodes have
a stable ``node_id`` so the type checker can attach dynamic-check metadata
that the interpreter later consults (the rewriting step of §3.2).

Nodes are slotted (``@dataclass(slots=True)``) — they are allocated in bulk
by the parser and traversed constantly by the checker and both interpreter
backends, so the per-instance dict is pure overhead.  The ``compiled`` slot
is a cache used by the closure-compilation backend
(:mod:`repro.runtime.compile`): the closure lowered for a body-owning node
(``Program``, ``MethodDef``, ``BlockNode``, …) is stored on the node itself,
so a parse-cached AST shared by many universes is compiled exactly once.
Compiled closures are interpreter-agnostic (they take the VM as an
argument), which is what makes that sharing safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_NODE_COUNTER = itertools.count(1)


def fresh_node_id() -> int:
    """A unique id for call nodes (used to key inserted dynamic checks)."""
    return next(_NODE_COUNTER)


@dataclass(slots=True)
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, kw_only=True)
    # 1-based source column of the node's first token (0 when unknown)
    col: int = field(default=0, kw_only=True, compare=False, repr=False)
    # cache slot for the closure-compiled form of this node (see module doc)
    compiled: object = field(default=None, kw_only=True, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Literals and simple expressions
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class NilLit(Node):
    pass


@dataclass(slots=True)
class TrueLit(Node):
    pass


@dataclass(slots=True)
class FalseLit(Node):
    pass


@dataclass(slots=True)
class IntLit(Node):
    value: int = 0


@dataclass(slots=True)
class FloatLit(Node):
    value: float = 0.0


@dataclass(slots=True)
class StrLit(Node):
    value: str = ""


@dataclass(slots=True)
class StrInterp(Node):
    """A double-quoted string with ``#{}`` interpolation.

    ``parts`` alternates literal strings and expression nodes.
    """

    parts: list = field(default_factory=list)


@dataclass(slots=True)
class SymLit(Node):
    name: str = ""


@dataclass(slots=True)
class ArrayLit(Node):
    elements: list = field(default_factory=list)


@dataclass(slots=True)
class HashLit(Node):
    """A hash literal; ``pairs`` is a list of (key_node, value_node)."""

    pairs: list = field(default_factory=list)


@dataclass(slots=True)
class RangeLit(Node):
    low: Node = None
    high: Node = None
    exclusive: bool = False


@dataclass(slots=True)
class SelfExpr(Node):
    pass


@dataclass(slots=True)
class LocalVar(Node):
    name: str = ""


@dataclass(slots=True)
class IVar(Node):
    name: str = ""


@dataclass(slots=True)
class GVar(Node):
    name: str = ""


@dataclass(slots=True)
class ConstRef(Node):
    """A constant reference: a class name or a plain constant."""

    name: str = ""


# ---------------------------------------------------------------------------
# Calls and blocks
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class BlockNode(Node):
    """A code block ``{ |params| body }`` or ``do |params| body end``."""

    params: list = field(default_factory=list)
    body: list = field(default_factory=list)


@dataclass(slots=True)
class MethodCall(Node):
    """``receiver.name(args) { block }``; receiver None means a self-call."""

    receiver: Optional[Node] = None
    name: str = ""
    args: list = field(default_factory=list)
    block: Optional[BlockNode] = None
    block_arg: Optional[Node] = None  # `&expr` block-pass argument
    node_id: int = field(default_factory=fresh_node_id)


@dataclass(slots=True)
class Yield(Node):
    args: list = field(default_factory=list)


@dataclass(slots=True)
class AndOp(Node):
    left: Node = None
    right: Node = None


@dataclass(slots=True)
class OrOp(Node):
    left: Node = None
    right: Node = None


@dataclass(slots=True)
class NotOp(Node):
    operand: Node = None


@dataclass(slots=True)
class Defined(Node):
    """``defined?(expr)`` — used by apps to probe constants."""

    operand: Node = None


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Assign(Node):
    """Assignment to a local/ivar/gvar/const target."""

    target: Node = None
    value: Node = None


@dataclass(slots=True)
class MultiAssign(Node):
    """``a, b = e1, e2`` (parallel assignment)."""

    targets: list = field(default_factory=list)
    values: list = field(default_factory=list)


@dataclass(slots=True)
class IndexAssign(Node):
    """``recv[args] = value`` — desugars to ``recv.[]=(args..., value)``
    but keeps its own node so the checker can do weak updates."""

    receiver: Node = None
    args: list = field(default_factory=list)
    value: Node = None
    node_id: int = field(default_factory=fresh_node_id)


@dataclass(slots=True)
class AttrAssign(Node):
    """``recv.name = value`` — a call to the ``name=`` setter."""

    receiver: Node = None
    name: str = ""
    value: Node = None
    node_id: int = field(default_factory=fresh_node_id)


@dataclass(slots=True)
class OpAssign(Node):
    """``target op= value`` for ``||=``/``&&=`` (short-circuit semantics)."""

    target: Node = None
    op: str = ""
    value: Node = None


# ---------------------------------------------------------------------------
# Control flow and definitions
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class If(Node):
    cond: Node = None
    then_body: list = field(default_factory=list)
    else_body: list = field(default_factory=list)


@dataclass(slots=True)
class While(Node):
    cond: Node = None
    body: list = field(default_factory=list)
    is_until: bool = False


@dataclass(slots=True)
class CaseWhen(Node):
    """One ``when values then body`` arm of a case expression."""

    values: list = field(default_factory=list)
    body: list = field(default_factory=list)


@dataclass(slots=True)
class Case(Node):
    subject: Optional[Node] = None
    whens: list = field(default_factory=list)
    else_body: list = field(default_factory=list)


@dataclass(slots=True)
class Return(Node):
    value: Optional[Node] = None


@dataclass(slots=True)
class Break(Node):
    value: Optional[Node] = None


@dataclass(slots=True)
class Next(Node):
    value: Optional[Node] = None


@dataclass(slots=True)
class Param(Node):
    """A method/block parameter, optionally with a default expression."""

    name: str = ""
    default: Optional[Node] = None
    is_block: bool = False
    is_splat: bool = False


@dataclass(slots=True)
class MethodDef(Node):
    """``def name(params) body end``; ``is_self`` marks ``def self.name``."""

    name: str = ""
    params: list = field(default_factory=list)
    body: list = field(default_factory=list)
    is_self: bool = False


@dataclass(slots=True)
class ClassDef(Node):
    name: str = ""
    superclass: Optional[str] = None
    body: list = field(default_factory=list)


@dataclass(slots=True)
class ModuleDef(Node):
    name: str = ""
    body: list = field(default_factory=list)


@dataclass(slots=True)
class BeginRescue(Node):
    """``begin body rescue [Class =>] var; handler end`` (single clause)."""

    body: list = field(default_factory=list)
    rescue_class: Optional[str] = None
    rescue_var: Optional[str] = None
    rescue_body: list = field(default_factory=list)
    ensure_body: list = field(default_factory=list)


@dataclass(slots=True)
class Raise(Node):
    args: list = field(default_factory=list)


@dataclass(slots=True)
class Program(Node):
    body: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

#: fields that never hold child nodes: positions, call ids, compiled closures
_NOT_CHILDREN = frozenset({"line", "col", "compiled", "node_id"})
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def children(node: Node):
    """The nodes directly under ``node``, in field (source) order: node
    fields, node list items, and the parts of tuple items (hash pairs)."""
    names = _CHILD_FIELDS.get(type(node))
    if names is None:
        names = _CHILD_FIELDS[type(node)] = tuple(
            name for name in node.__dataclass_fields__
            if name not in _NOT_CHILDREN)
    for name in names:
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item
                elif isinstance(item, tuple):
                    for part in item:
                        if isinstance(part, Node):
                            yield part


def walk(node: Node):
    """Every node reachable from ``node`` (inclusive), iteratively."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(children(current))
