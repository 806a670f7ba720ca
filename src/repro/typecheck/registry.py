"""The annotation registry: RDL's global table of type signatures.

Running a program executes its ``type``/``var_type`` directives (they are
plain method calls, §2), which land here.  The registry records:

* method signatures, possibly several per method (overloads / intersection
  types), possibly containing comp positions;
* the label each annotation was filed under (``typecheck: :model``), so
  ``RDL.do_typecheck :model`` knows what to check;
* termination (``terminates: :+/:-/:blockdep``) and purity (``pure:``)
  effects used by the comp-type termination checker (§4, Fig. 6);
* instance/class/global variable types;
* which methods were *defined* (AST nodes), so the checker can find bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast_nodes as ast
from repro.rtypes import MethodType, RType, parse_method_type, parse_type
from repro.rtypes.kinds import Sym
from repro.runtime.objects import RClass, RHash, RString


@dataclass
class MethodKey:
    """Identifies a method: class, name, and instance-vs-class level."""

    class_name: str
    method_name: str
    static: bool = False

    def __hash__(self) -> int:
        return hash((self.class_name, self.method_name, self.static))

    def __str__(self) -> str:
        sep = "." if self.static else "#"
        return f"{self.class_name}{sep}{self.method_name}"


@dataclass(frozen=True)
class MethodAnnotation:
    """One ``type`` directive's payload.  Frozen: the library's entries are
    built once per process and shared by every universe."""

    signature: MethodType
    label: str | None = None
    terminates: str | None = None  # "+", "-", "blockdep"
    pure: str | None = None        # "+", "-"
    wrap: bool = True


@dataclass
class EffectInfo:
    """Termination/purity effects for a method (defaults are conservative)."""

    terminates: str = "-"
    pure: str = "-"


class AnnotationRegistry:
    """Global annotation state for one CompRDL instance."""

    def __init__(self) -> None:
        self.method_annotations: dict[MethodKey, list[MethodAnnotation]] = {}
        # method name -> the annotated keys of that name, in annotation order
        self.annotated_by_name: dict[str, list[MethodKey]] = {}
        self.pending: dict[str, list[MethodAnnotation]] = {}
        # label -> insertion-ordered set of keys (dict values unused)
        self.labels: dict[str, dict[MethodKey, None]] = {}
        self.ivar_types: dict[tuple[str, str], RType] = {}
        self.gvar_types: dict[str, RType] = {}
        self.const_types: dict[str, RType] = {}
        self.defined_methods: dict[MethodKey, ast.MethodDef] = {}
        self.typecheck_requests: list[str] = []
        self.helper_methods: set[str] = set()
        # ``listener(key, redefined)`` fires when a method is defined or
        # gains an annotation; ``redefined`` says the key already had an
        # implementation (for a definition) or annotations (for an
        # annotation) — the incremental scheduler uses it to dirty verdicts
        # that a ``load`` invalidated without any schema change
        self.method_listeners: list = []

    def adopt(self, base: "AnnotationRegistry") -> None:
        """Start this fresh registry from ``base``'s annotations.

        The annotations themselves are shared, but every list is this
        registry's own, so a later ``type``, ``def`` or ``comp_helper``
        lands here only.  Key order is ``base``'s insertion order.  No
        listener fires: a universe adopts before anything listens."""
        self.method_annotations = {key: list(annotations) for key, annotations
                                   in base.method_annotations.items()}
        self.annotated_by_name = {name: list(keys) for name, keys
                                  in base.annotated_by_name.items()}
        self.helper_methods = set(base.helper_methods)

    def add_method_listener(self, listener) -> None:
        if listener not in self.method_listeners:
            self.method_listeners.append(listener)

    def _notify_method_changed(self, key: MethodKey, redefined: bool) -> None:
        for listener in self.method_listeners:
            listener(key, redefined)

    # ------------------------------------------------------------------
    # directive handlers (called from native methods)
    # ------------------------------------------------------------------
    def handle_type_directive(self, interp, recv, args: list) -> None:
        """Process ``type [Class,] [:meth,] "sig" [, kwargs]``."""
        kwargs: dict[str, object] = {}
        if args and isinstance(args[-1], RHash):
            kwargs = {k.name if isinstance(k, Sym) else str(k): v
                      for k, v in args[-1].pairs()}
            args = args[:-1]

        target_class: str | None = None
        method_name: str | None = None
        sig_text: str | None = None

        for arg in args:
            if isinstance(arg, RClass):
                target_class = arg.name
            elif isinstance(arg, Sym):
                method_name = arg.name
            elif isinstance(arg, RString):
                sig_text = arg.val
        if sig_text is None:
            return

        annotation = self._build_annotation(sig_text, kwargs)
        static = bool(_truthy(kwargs.get("static")))
        if method_name is not None and method_name.startswith("self."):
            method_name = method_name[len("self."):]
            static = True

        if method_name is None:
            # annotates the *next* method defined in the current class
            class_name = self._class_name_of(interp, recv, target_class)
            self.pending.setdefault(class_name, []).append(annotation)
            return

        class_name = target_class or self._class_name_of(interp, recv, None)
        self.add_annotation(MethodKey(class_name, method_name, static), annotation)

    def _build_annotation(self, sig_text: str, kwargs: dict) -> MethodAnnotation:
        signature = parse_method_type(sig_text)
        label = _sym_name(kwargs.get("typecheck"))
        terminates = _effect_name(kwargs.get("terminates"))
        pure = _effect_name(kwargs.get("pure"))
        wrap = kwargs.get("wrap")
        return MethodAnnotation(
            signature=signature,
            label=label,
            terminates=terminates,
            pure=pure,
            wrap=True if wrap is None else bool(_truthy(wrap)),
        )

    @staticmethod
    def _class_name_of(interp, recv, explicit: str | None) -> str:
        if explicit is not None:
            return explicit
        if isinstance(recv, RClass):
            return recv.name
        return "Object"

    def handle_var_type(self, interp, recv, args: list) -> None:
        """Process ``var_type :@ivar, "T"`` / ``var_type :$gvar, "T"``."""
        if len(args) < 2:
            return
        name = args[0].name if isinstance(args[0], Sym) else str(args[0])
        if isinstance(args[0], RString):
            name = args[0].val
        type_text = args[1].val if isinstance(args[1], RString) else str(args[1])
        rtype = parse_type(type_text)
        if name.startswith("$"):
            self.gvar_types[name] = rtype
        else:
            if not name.startswith("@"):
                name = "@" + name
            class_name = self._class_name_of(interp, recv, None)
            self.ivar_types[(class_name, name)] = rtype

    def handle_comp_helper(self, interp, recv, args: list) -> None:
        """Process ``comp_helper :name`` marking a type-level helper method."""
        if args and isinstance(args[0], Sym):
            self.helper_methods.add(args[0].name)

    def request_typecheck(self, label: str) -> None:
        self.typecheck_requests.append(label)

    # ------------------------------------------------------------------
    # registration API (used by directives and by Python-side annotators)
    # ------------------------------------------------------------------
    def add_annotation(self, key: MethodKey, annotation: MethodAnnotation) -> None:
        annotations = self.method_annotations.get(key)
        if annotations is None:
            annotations = self.method_annotations[key] = []
            self.annotated_by_name.setdefault(key.method_name, []).append(key)
        redefined = bool(annotations)
        annotations.append(annotation)
        if annotation.label:
            # one entry per method regardless of how many of its annotations
            # carry the label: check_label and the parallel fleet both walk
            # this order, and verdict parity needs them to agree on the count
            self.labels.setdefault(annotation.label, {})[key] = None
        self._notify_method_changed(key, redefined)

    def annotate(
        self,
        class_name: str,
        method_name: str,
        signature: str | MethodType,
        static: bool = False,
        label: str | None = None,
        terminates: str | None = None,
        pure: str | None = None,
    ) -> None:
        """Python-side convenience used by the library annotation sets."""
        if isinstance(signature, str):
            signature = parse_method_type(signature)
        self.add_annotation(
            MethodKey(class_name, method_name, static),
            MethodAnnotation(signature, label=label, terminates=terminates, pure=pure),
        )

    # ------------------------------------------------------------------
    # interpreter hooks
    # ------------------------------------------------------------------
    def note_method_defined(self, class_name: str, node: ast.MethodDef,
                            static: bool, replaced: bool = False) -> None:
        """``replaced`` says the class already held a method of this name
        (a native one has no body here): either way the ``def`` replaces an
        implementation, so it is a redefinition.  Annotations alone are not."""
        key = MethodKey(class_name, node.name, static)
        redefined = replaced or key in self.defined_methods
        self.defined_methods[key] = node
        for annotation in self.pending.pop(class_name, []):
            self.add_annotation(key, annotation)
        self._notify_method_changed(key, redefined)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def superclass_chain(self, class_name: str, interp=None) -> list[str]:
        chain = [class_name]
        seen = {class_name}
        current = class_name
        while True:
            klass = interp.classes.get(current) if interp is not None else None
            if klass is not None and klass.superclass is not None:
                parent = klass.superclass.name
            elif current != "Object":
                parent = "Object"
            else:
                break
            if parent in seen:
                break
            chain.append(parent)
            seen.add(parent)
            current = parent
        return chain

    def lookup_method(
        self, class_name: str, method_name: str, static: bool, interp=None
    ) -> list[MethodAnnotation] | None:
        """Find annotations for a method, walking up the superclass chain."""
        for name in self.superclass_chain(class_name, interp):
            annotations = self.method_annotations.get(MethodKey(name, method_name, static))
            if annotations:
                return annotations
        return None

    def lookup_ivar(self, class_name: str, ivar: str, interp=None) -> RType | None:
        for name in self.superclass_chain(class_name, interp):
            rtype = self.ivar_types.get((name, ivar))
            if rtype is not None:
                return rtype
        return None

    def lookup_body(self, class_name: str, method_name: str, static: bool,
                    interp=None) -> ast.MethodDef | None:
        for name in self.superclass_chain(class_name, interp):
            node = self.defined_methods.get(MethodKey(name, method_name, static))
            if node is not None:
                return node
        return None

    def effect_of(self, class_name: str, method_name: str, static: bool = False,
                  interp=None) -> EffectInfo:
        """Termination/purity effects, consulting annotations then defaults."""
        annotations = self.lookup_method(class_name, method_name, static, interp)
        if annotations:
            terminates = next((a.terminates for a in annotations if a.terminates), None)
            pure = next((a.pure for a in annotations if a.pure), None)
            if terminates or pure:
                return EffectInfo(terminates or "-", pure or "-")
        from repro.comp.effects import default_effect

        return default_effect(class_name, method_name)

    def methods_for_label(self, label: str) -> list[MethodKey]:
        return list(self.labels.get(label, ()))


def _sym_name(value) -> str | None:
    if isinstance(value, Sym):
        return value.name
    if isinstance(value, RString):
        return value.val
    return None


def _effect_name(value) -> str | None:
    if isinstance(value, Sym):
        return value.name
    if isinstance(value, RString):
        return value.val
    return None


def _truthy(value) -> bool:
    return value is not None and value is not False
