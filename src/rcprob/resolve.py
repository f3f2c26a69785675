"""Name resolution against the model and well-formedness validation.

Qualified names in properties are resolved by walking containment from the
module root (WFREF-1/2), one `ResolvedRef` per segment, each made from its
parent's.  The same constructor makes the refs of the names a platform or
machine declares (`ModelScope`), so the flat and qualified names of a
declared variable are formed here alone.  One classifier types the
expressions of both files: those of a platform or machine with their names
resolved lexically (`ModelScope.lookup`), those of the property file as
qualified references.  `validate` runs every well-formedness condition
over a parsed model/property pair and returns an ordered, deterministic
diagnostic sequence; it never raises.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from . import ast as A
from . import model as M
from . import props as P
from .ast import Expr, QName
from .parsing import MAX_EXPANDED_HEIGHT

# --- diagnostics --------------------------------------------------------------


@dataclass
class Diagnostic:
    code: str
    severity: str  # "error" | "warning"
    message: str
    pos: tuple[int, int] = (0, 0)
    source: str = "spec"  # the file it is about: "model" | "spec"

    def to_json(self, file: str | None = None) -> str:
        rec = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "file": file,
            "line": self.pos[0],
            "col": self.pos[1],
        }
        return json.dumps(rec, sort_keys=True)

    def __str__(self):
        return f"{self.pos[0]}:{self.pos[1]}: {self.severity} [{self.code}] {self.message}"


class ResolveError(Exception):
    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


# --- type classes --------------------------------------------------------------


@dataclass(frozen=True)
class TypeClass:
    kind: str  # bool | num | set | enum | query | path | any
    param: object = None

    def __str__(self):
        if self.kind == "set":
            return f"set({self.param})"
        if self.kind == "enum":
            return f"enum({self.param})"
        return {"bool": "boolean", "num": "numeric", "query": "formulaQuery",
                "path": "pathFormula", "any": "any"}[self.kind]


BOOL = TypeClass("bool")
NUM = TypeClass("num")
QUERY = TypeClass("query")
PATH = TypeClass("path")
ANY = TypeClass("any")


def set_of(elem: TypeClass) -> TypeClass:
    return TypeClass("set", elem)


def enum_of(name: str) -> TypeClass:
    return TypeClass("enum", name)


def type_of_typeref(t: M.TypeRef, model: M.ModelAst) -> TypeClass:
    if t.name in ("int", "nat", "real"):
        return NUM
    if t.name == "bool":
        return BOOL
    if model.enum(t.name) is not None:
        return enum_of(t.name)
    return ANY


def _is_bool(tc):  # PATH counts as boolean in temporal contexts, handled separately
    return tc.kind in ("bool", "any")


def _is_num(tc):
    return tc.kind in ("num", "any")


def _same(a, b):
    if a.kind == "any" or b.kind == "any":
        return True
    return a == b


# --- resolved references --------------------------------------------------------


@dataclass
class ResolvedRef:
    """What a qualified name refers to.

    `kind` is module, platform, controllerInstance, machineInstance, enum,
    enumLiteral, constant, variable, event, operation, function, junction,
    state or transition, and `decl` its declaration: the enumeration of a
    literal, the name of a junction.  `path` holds the segments as written,
    so a name with a wrong head keeps it.  `type` is the type of a
    constant, variable, function result, event payload or literal.  `flat`
    is set for variables only: the state variable `platform.var` or
    `controller.machine.var`.  `owner` is the platform of a platform
    member, the controller of a machine or controller event, the machine of
    a machine variable or function, the (controller, machine) pair of a
    machine event, junction, state or transition, and None for the rest.

    This module alone forms the flat and qualified names of declared
    variables (`_member`); `build` and the PRISM emitter read them."""
    kind: str
    path: tuple[str, ...]
    decl: object = None
    type: TypeClass = ANY
    flat: str | None = None
    owner: object = None

    def qualified(self) -> str:
        return "::".join(self.path)


# the field of a declaration that holds its type, by kind
_TYPE_FIELDS = {"constant": "type", "variable": "type", "function": "result",
                "event": "payload"}


def _name(decl) -> str:
    if isinstance(decl, str):  # a junction or an enumeration literal
        return decl
    return decl.id if isinstance(decl, M.Transition) else decl.name


def _member(model: M.ModelAst, parent: ResolvedRef, kind: str, decl) -> ResolvedRef:
    """The ref of `decl`, a member of kind `kind` of what `parent` refers to."""
    path = parent.path + (_name(decl),)
    if kind == "enumLiteral":
        return ResolvedRef(kind, path, parent.decl, enum_of(parent.decl.name))
    typeref = getattr(decl, _TYPE_FIELDS[kind]) if kind in _TYPE_FIELDS else None
    tc = type_of_typeref(typeref, model) if typeref is not None else ANY
    owner, flat = parent.decl, None
    if parent.kind == "module":
        owner = None
    elif parent.kind == "machineInstance" and kind not in ("variable", "function"):
        owner = (parent.owner, parent.decl)
    if kind == "variable":
        at = (parent.owner, parent.decl) if parent.kind == "machineInstance" else (parent.decl,)
        flat = ".".join([*(node.name for node in at), decl.name])
    return ResolvedRef(kind, path, decl, tc, flat, owner)


def _enum_literal(model: M.ModelAst, segs: tuple[str, ...]) -> ResolvedRef | None:
    """The enumeration literal that `E::L` names, else None: a type
    reference, exempt from the module-rooted walk."""
    enum = model.enum(segs[0]) if len(segs) == 2 else None
    if enum is None or segs[1] not in enum.literals:
        return None
    return ResolvedRef("enumLiteral", segs, enum, enum_of(enum.name))


class Resolver:
    """Resolves qualified names and event references against a model."""

    def __init__(self, model: M.ModelAst, spec: P.SpecAst | None = None):
        self.model = model
        self.spec = spec if spec is not None else P.SpecAst()

    def resolve_fqn(self, qn: QName) -> tuple[ResolvedRef | None, list[Diagnostic]]:
        """Walk a qualified name from its first segment to its last, one
        child ref at a time.  A head other than the module is an error, but
        one that names a child of the module starts the walk; a bare name
        that names none is a property-file constant."""
        segs = qn.segments
        diags: list[Diagnostic] = []
        ref = _enum_literal(self.model, segs)
        if ref is not None:
            return ref, diags
        if segs[0] == self.model.name:
            ref = ResolvedRef("module", segs[:1], self.model)
        else:
            # the head looked up among the module's children, its path as written
            ref = self._child(ResolvedRef("module", (), self.model), segs[0])
            if ref is None and len(segs) == 1:
                decl = self.spec.find(P.ConstantDecl, segs[0])
                if decl is None:
                    diags.append(Diagnostic("SCOPE", "error", f"unknown name {segs[0]!r}",
                                            qn.pos))
                    return None, diags
                return ResolvedRef("constant", segs, decl,
                                   type_of_typeref(decl.type, self.model)), diags
            diags.append(Diagnostic(
                "WFREF-1", "error",
                f"first segment {segs[0]!r} must be the module {self.model.name!r}",
                qn.pos,
            ))
            if ref is None:
                ref = ResolvedRef("unknown", segs[:1])  # it names nothing, so has no children
        for name in segs[1:]:
            child = self._child(ref, name)
            if child is None:
                diags.append(Diagnostic(
                    "WFREF-2", "error", f"{name!r} is not a child of {ref.path[-1]!r}", qn.pos,
                ))
                return None, diags
            ref = child
        return ref, diags

    def _child(self, parent: ResolvedRef, name: str) -> ResolvedRef | None:
        """The ref of the child `name` of what `parent` refers to, None if
        it has none."""
        node = parent.decl
        if parent.kind == "module":
            members = (("platform", node.platforms), ("controllerInstance", node.controllers),
                       ("enum", node.enums))
        elif parent.kind == "platform":
            members = (("constant", node.constants), ("variable", node.variables),
                       ("event", node.events), ("operation", node.operations))
        elif parent.kind == "controllerInstance":
            members = (("machineInstance", node.machines), ("event", node.events))
        elif parent.kind == "machineInstance":
            members = (("variable", node.variables), ("event", node.events),
                       ("function", node.functions),
                       ("junction", (node.initial, *node.junctions)),
                       ("state", node.states), ("transition", node.transitions))
        elif parent.kind == "enum":
            members = (("enumLiteral", node.literals),)
        else:
            return None
        for kind, decls in members:
            for decl in decls:
                if _name(decl) == name:
                    return _member(self.model, parent, kind, decl)
        return None

    def resolve_event(self, ev: A.EventRef) -> tuple[ResolvedRef | None, list[Diagnostic]]:
        ref, diags = self.resolve_fqn(ev.name)
        if ref is not None and ref.kind != "event":
            diags.append(Diagnostic(
                "TYPE", "error", f"{ev.name} does not name an event", ev.name.pos,
            ))
            return None, diags
        if ref is not None and ev.valued and ref.decl.payload is None:
            diags.append(Diagnostic(
                "TYPE", "error",
                f"event {ev.name} has no payload, '.val' is not applicable",
                ev.name.pos,
            ))
            return None, diags
        return ref, diags


def resolve_fqn(model: M.ModelAst, spec: P.SpecAst, qn: QName) -> ResolvedRef:
    """Resolve one qualified name; raise ResolveError on any diagnostic."""
    ref, diags = Resolver(model, spec).resolve_fqn(qn)
    if diags:
        raise ResolveError(diags)
    return ref


# --- expression classification ---------------------------------------------------


@dataclass
class ClassifyCtx:
    resolver: Resolver
    params: frozenset = frozenset()
    modules: P.PModulesDecl | None = None
    definitions: P.DefinitionsDecl | None = None
    in_formula: bool = False
    _formula_stack: tuple = ()
    scope: ModelScope | None = None  # set for the expressions of a platform or machine


class _Classifier:
    def __init__(self, ctx: ClassifyCtx, diags: list[Diagnostic]):
        self.ctx = ctx
        self.diags = diags
        self.resolver = ctx.resolver

    def err(self, code, msg, pos):
        if self.ctx.scope is not None and code.startswith("WFExp"):
            code = "TYPE"  # the WFExp conditions are the property language's
        self.diags.append(Diagnostic(code, "error", msg, pos))

    def expect(self, e: Expr, want: TypeClass, what: str, pos):
        """Classify `e`, reporting a type other than `want` at `pos`."""
        t = self.classify(e)
        if not _same(t, want):
            self.err("TYPE", f"{what} must be {want}, got {t}", pos)

    def _lookup(self, e: A.Ref) -> tuple[ResolvedRef | None, list[Diagnostic]]:
        """What a name stands for, with the diagnostics of its resolution:
        lexically in a platform or machine, else as a qualified reference."""
        scope = self.ctx.scope
        if scope is None:
            return self.resolver.resolve_fqn(e.name)
        ref = scope.lookup(e.name)
        if ref is not None:
            return ref, []
        return None, [Diagnostic("SCOPE", "error", f"unknown name {e.name} in {scope.where}",
                                 e.pos)]

    def classify(self, e: Expr) -> TypeClass:
        ctx = self.ctx
        if isinstance(e, A.Lit):
            if isinstance(e.value, bool):
                return BOOL
            return NUM
        if isinstance(e, A.Ref):
            ref, diags = self._lookup(e)
            self.diags.extend(diags)
            if ref is None:
                return ANY
            if ref.kind in ("variable", "constant", "enumLiteral"):
                return ref.type
            if ref.kind in ("module", "platform", "controllerInstance",
                            "machineInstance", "state", "junction", "transition",
                            "event", "function", "operation", "enum"):
                self.err("TYPE", f"{e.name} is a {ref.kind}, not a value", e.pos)
            return ANY
        if isinstance(e, A.Unary):
            if e.op == "not":
                t = self.classify(e.operand)
                if t.kind == "path":
                    return PATH
                if not _is_bool(t):
                    self.err("WFExp-1", f"operand of 'not' must be boolean, got {t}", e.pos)
                return BOOL
            t = self.classify(e.operand)
            if not _is_num(t):
                self.err("WFExp-3", f"operand of unary '-' must be numeric, got {t}", e.pos)
            return NUM
        if isinstance(e, A.Binary):
            return self._binary(e)
        if isinstance(e, A.Cond):
            c = self.classify(e.cond)
            if not _is_bool(c):
                self.err("WFExp-1", f"conditional guard must be boolean, got {c}", e.pos)
            t1 = self.classify(e.then)
            t2 = self.classify(e.orelse)
            if not _same(t1, t2):
                self.err("TYPE", f"conditional branches differ: {t1} vs {t2}", e.pos)
            return t1 if t1.kind != "any" else t2
        if isinstance(e, A.SetExt):
            elems = [self.classify(x) for x in e.items]
            base = elems[0]
            for t in elems[1:]:
                if not _same(base, t):
                    self.err("WFExp-4", f"set extension mixes {base} and {t}", e.pos)
                if base.kind == "any":
                    base = t
            return set_of(base)
        if isinstance(e, A.SetRange):
            for part in (e.lo, e.hi, e.step):
                if part is not None and not _is_num(self.classify(part)):
                    self.err("WFExp-3", "set range bounds must be numeric", e.pos)
            return set_of(NUM)
        if isinstance(e, A.IsIn):
            return self._is_in(e)
        if isinstance(e, A.ModVarRef):
            return self._modvar(e)
        if isinstance(e, A.LabelRef):
            decl = self.resolver.spec.find(P.LabelDecl, e.name)
            if decl is None:
                self.err("SCOPE", f"unknown label #{e.name}", e.pos)
            return BOOL
        if isinstance(e, (A.DeadlockRef, A.InitRef)):
            return BOOL
        if isinstance(e, A.FormulaRef):
            decl = self.resolver.spec.find(P.FormulaDecl, e.name)
            if decl is None:
                self.err("SCOPE", f"unknown formula `{e.name}", e.pos)
                return ANY
            if decl in self.ctx._formula_stack:
                self.err("SCOPE", f"cyclic formula reference `{e.name}", e.pos)
                return ANY
            inner = _Classifier(
                dataclasses.replace(self.ctx, _formula_stack=self.ctx._formula_stack + (decl,)),
                self.diags,
            )
            return inner.classify(decl.body)
        if isinstance(e, A.ParamRef):
            if e.name not in ctx.params:
                self.err("SCOPE", f"``{e.name} does not name a declared parameter", e.pos)
            return ANY
        if isinstance(e, A.FunCall):
            return self._call(e)
        if isinstance(e, A.EventVal):
            ref, diags = self.resolver.resolve_event(e.event)
            self.diags.extend(diags)
            return ref.type if ref is not None else ANY
        if isinstance(e, A.Index):
            self.err("UNSUPPORTED", "array indexing is not supported", e.pos)
            return ANY
        if isinstance(e, (A.ProbFormula, A.RewardFormula)):
            return self._prob_or_reward(e)
        if isinstance(e, (A.Forall, A.Exists)):
            t = self.classify(e.path)
            if t.kind != "path":
                self.err("WFExp-6", "the bracket of Forall/Exists needs a path formula", e.pos)
            return BOOL
        if isinstance(e, A.Next):
            self.classify_bool_or_path(e.operand, e.pos)
            return PATH
        if isinstance(e, (A.Finally_, A.Globally)):
            self._bound(e.bound, e.pos)
            self.classify_bool_or_path(e.operand, e.pos)
            return PATH
        if isinstance(e, (A.Until, A.WeakUntil, A.Release)):
            self._bound(e.bound, e.pos)
            self.classify_bool_or_path(e.left, e.pos)
            self.classify_bool_or_path(e.right, e.pos)
            return PATH
        if isinstance(e, (A.Reachable, A.LTLReward, A.Cumul)):
            if isinstance(e, A.Cumul):
                if not _is_num(self.classify(e.operand)):
                    self.err("WFExp-7", "Cumul bound must be numeric", e.pos)
                self._stateless(e.operand, "a Cumul bound")
            else:
                self.classify_bool_or_path(e.operand, e.pos)
            return PATH
        if isinstance(e, A.TotalReward):
            return PATH
        raise AssertionError(type(e).__name__)

    def classify_bool_or_path(self, e: Expr, pos) -> TypeClass:
        t = self.classify(e)
        if t.kind == "path":
            return t
        if not _is_bool(t):
            self.err("WFExp-1", f"formula operand must be boolean, got {t}", pos)
        return BOOL

    def _binary(self, e: A.Binary) -> TypeClass:
        op = e.op
        if op in ("/\\", "\\/", "=>", "iff"):
            t1 = self.classify(e.left)
            t2 = self.classify(e.right)
            if t1.kind == "path" or t2.kind == "path":
                for t in (t1, t2):
                    if t.kind not in ("path", "bool", "any"):
                        self.err("WFExp-1", f"operands of {op!r} must be boolean, got {t}", e.pos)
                return PATH
            for t in (t1, t2):
                if not _is_bool(t):
                    self.err("WFExp-1", f"operands of {op!r} must be boolean, got {t}", e.pos)
            return BOOL
        if op in ("==", "!="):
            t1 = self.classify(e.left)
            t2 = self.classify(e.right)
            if not _same(t1, t2):
                self.err("WFExp-2", f"equality compares {t1} with {t2}", e.pos)
            return BOOL
        if op in ("<", "<=", ">", ">="):
            for side in (e.left, e.right):
                t = self.classify(side)
                if not _is_num(t):
                    self.err("WFExp-3", f"comparison operand must be numeric, got {t}", e.pos)
            return BOOL
        if op in ("+", "-", "*", "/", "%"):
            for side in (e.left, e.right):
                t = self.classify(side)
                if not _is_num(t):
                    self.err("WFExp-3", f"arithmetic operand must be numeric, got {t}", e.pos)
            return NUM
        raise AssertionError(op)

    def _is_in(self, e: A.IsIn) -> TypeClass:
        left, d1 = self.resolver.resolve_fqn(e.container)
        right, d2 = self.resolver.resolve_fqn(e.state)
        self.diags.extend(d1)
        self.diags.extend(d2)
        if left is None or right is None:
            return BOOL
        if left.kind != "machineInstance":
            self.err("WFExp-5",
                     f"the first reference of 'is in' must be a state machine, got {left.kind}",
                     e.pos)
            return BOOL
        if right.kind != "state" or right.owner[1] is not left.decl:
            self.err("WFExp-5",
                     f"{e.state} is not an immediate substate of {e.container}",
                     e.pos)
        return BOOL

    def _modvar(self, e: A.ModVarRef) -> TypeClass:
        decls = []
        if e.group is not None:
            group = self.resolver.spec.find(P.PModulesDecl, e.group)
            if group is None and self.ctx.modules is not None and self.ctx.modules.name == e.group:
                group = self.ctx.modules
            if group is None:
                self.err("SCOPE", f"unknown pmodules group {e.group!r}", e.pos)
                return ANY
            for mod in group.modules:
                if mod.name == e.module:
                    decls = [v for v in mod.variables if v.name == e.var]
        else:
            scopes = [self.ctx.modules] if self.ctx.modules is not None \
                else self.resolver.spec.of_kind(P.PModulesDecl)
            for group in scopes:
                for mod in group.modules:
                    decls.extend(v for v in mod.variables if v.name == e.var)
        if not decls:
            self.err("SCOPE", f"unknown module variable @{e.var}", e.pos)
            return ANY
        if len(decls) > 1:
            self.err("SCOPE", f"module variable @{e.var} is ambiguous", e.pos)
        v = decls[0]
        return BOOL if v.type == "bool" else NUM

    def _call(self, e: A.FunCall) -> TypeClass:
        """A call of a machine function, or in a property of a definitions
        function; a machine function's arguments must have its parameters'
        types."""
        scope, fdef, model_fn = self.ctx.scope, None, None
        if scope is not None:
            model_fn = scope.functions.get(e.name)
        else:
            if self.ctx.definitions is not None:
                for f in self.ctx.definitions.functions:
                    if f.name == e.name:
                        fdef = f
            if fdef is None:
                for decl in self.resolver.spec.of_kind(P.DefinitionsDecl):
                    for f in decl.functions:
                        if f.name == e.name:
                            fdef = f
            for _, mach in self.resolver.model.machines():
                for f in mach.functions:
                    if f.name == e.name:
                        model_fn = f
        name = e.name if scope is not None else f"&{e.name}"
        if fdef is None and model_fn is None:
            self.err("SCOPE", f"unknown function {name}", e.pos)
            return ANY
        params = fdef.params if fdef is not None else model_fn.params
        if len(e.args) != len(params):
            self.err("TYPE", f"{name} expects {len(params)} arguments, got {len(e.args)}", e.pos)
        self.arguments(name, e.args, model_fn.params if model_fn is not None else ())
        if model_fn is not None:
            return type_of_typeref(model_fn.result, self.resolver.model)
        return ANY

    def arguments(self, name: str, args, params):
        """Classify the arguments of a call, each against the type of its
        parameter in `params`, (name, TypeRef) pairs."""
        for i, a in enumerate(args):
            if i < len(params):
                tc = type_of_typeref(params[i][1], self.resolver.model)
                self.expect(a, tc, f"argument {params[i][0]} of {name}", a.pos)
            else:
                self.classify(a)

    def _bound(self, b: A.Bound | None, pos, what="a step bound"):
        if b is None:
            return
        t = self.classify(b.expr)
        if not _is_num(t):
            self.err("WFExp-7", f"bound must be numeric, got {t}", pos)
        self._stateless(b.expr, what)

    def _stateless(self, e: Expr, what: str):
        """Report an expression that must be a constant but reads a model or
        environment variable, `is in`, `.val`, `deadlock` or `init`, itself
        or through a label or formula."""
        for node in walk_uses(self.resolver.spec, e):
            if isinstance(node, A.Ref):
                ref = self._lookup(node)[0]
                reads = ref is not None and ref.kind == "variable"
            else:
                reads = isinstance(node, (A.IsIn, A.ModVarRef, A.EventVal, A.DeadlockRef,
                                          A.InitRef))
            if reads:
                self.err("TYPE", f"{what} cannot depend on the state", e.pos)
                return

    def _prob_or_reward(self, e) -> TypeClass:
        if isinstance(e, A.ProbFormula):
            t = self.classify(e.path)
            if t.kind != "path":
                self.err("WFExp-6", "the bracket of Prob needs a path formula", e.pos)
        else:
            if e.rewards is not None and self.resolver.spec.find(P.RewardsDecl, e.rewards) is None:
                self.err("SCOPE", f"unknown rewards {e.rewards!r}", e.pos)
            if not isinstance(e.path, A.REWARD_PATH_NODES):
                self.err("TYPE", "the bracket of Reward needs a reward path formula", e.pos)
            else:
                self.classify(e.path)
        if e.method is not None:
            for name, value in e.method.params.items():
                self._stateless(value, f"the sim parameter {name}")
            if e.method.pathlen is not None:
                self._stateless(e.method.pathlen, "pathlen")
        if e.bound is not None:
            self._bound(e.bound, e.pos, "a probability or reward bound")
            return BOOL
        return QUERY


def classify(model: M.ModelAst, spec: P.SpecAst, expr: Expr,
             params: frozenset = frozenset(),
             modules: P.PModulesDecl | None = None,
             definitions: P.DefinitionsDecl | None = None) -> TypeClass:
    """Classify one expression; raise ResolveError on the first type error."""
    diags: list[Diagnostic] = []
    ctx = ClassifyCtx(Resolver(model, spec), params, modules, definitions)
    tc = _Classifier(ctx, diags).classify(expr)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ResolveError(errors)
    return tc


# --- model scopes -------------------------------------------------------------------


class ModelScope:
    """Lexical scope of the expressions written in machine `mach` of `ctrl`,
    with the platform `ctrl` requires, or with neither in `platform` alone."""

    def __init__(self, model: M.ModelAst, ctrl: M.Controller | None = None,
                 mach: M.Machine | None = None, platform: M.Platform | None = None):
        if ctrl is not None:
            platform = model.platform(ctrl.requires) if ctrl.requires else None
        self.model = model
        self.where = f"machine {mach.name}" if mach is not None else f"platform {platform.name}"
        self.vars: dict[str, ResolvedRef] = {}
        self.consts: dict[str, ResolvedRef] = {}
        self.operations: dict[str, M.OperationDecl] = {}
        self.functions: dict[str, M.FunctionDecl] = {}
        self.events: dict[str, M.EventDecl] = {}
        root = ResolvedRef("module", (model.name,), model)
        if platform is not None:
            at = _member(model, root, "platform", platform)
            self._add(at, "constant", platform.constants, self.consts)
            self._add(at, "variable", platform.variables, self.vars)
            self.operations = {o.name: o for o in platform.operations}
        if mach is not None:
            at = _member(model, _member(model, root, "controllerInstance", ctrl),
                         "machineInstance", mach)
            self._add(at, "variable", mach.variables, self.vars)
            self.functions = {f.name: f for f in mach.functions}
            self.events = {e.name: e for e in mach.events}

    def _add(self, at: ResolvedRef, kind: str, decls, names: dict):
        for decl in decls:
            names[decl.name] = _member(self.model, at, kind, decl)

    def lookup(self, name: QName) -> ResolvedRef | None:
        """What a name stands for here: an enumeration literal `E::L`, or a
        constant or else a variable named by one segment; None for any other
        name."""
        segs = name.segments
        if len(segs) == 1:
            return self.consts.get(segs[0]) or self.vars.get(segs[0])
        return _enum_literal(self.model, segs)


# --- full validation --------------------------------------------------------------


def validate(model: M.ModelAst, spec: P.SpecAst) -> list[Diagnostic]:
    """Run every well-formedness check; returns a deterministic diagnostic list."""
    diags: list[Diagnostic] = []
    resolver = Resolver(model, spec)
    _validate_model(resolver, diags)
    for d in diags:
        d.source = "model"
    for st in spec.statements:
        if isinstance(st, P.ConstantDecl):
            _check_type_name(st.type, model, diags)
        elif isinstance(st, P.ConstantsConfig):
            _validate_config(resolver, st, diags)
        elif isinstance(st, P.LabelDecl):
            t = _classify_in(resolver, st.body, diags)
            if not _is_bool(t):
                diags.append(Diagnostic("TYPE", "error",
                                        f"label {st.name} must be boolean, got {t}", st.pos))
        elif isinstance(st, P.FormulaDecl):
            t = _classify_in(resolver, st.body, diags)
            if t.kind in ("path", "query"):
                diags.append(Diagnostic("TYPE", "error",
                                        f"formula {st.name} cannot be a {t}", st.pos))
        elif isinstance(st, P.RewardsDecl):
            _validate_rewards(resolver, st, diags)
        elif isinstance(st, P.DefinitionsDecl):
            _validate_defs(resolver, st, diags)
        elif isinstance(st, P.PModulesDecl):
            _validate_pmodules(resolver, st, diags)
        elif isinstance(st, P.ProbProperty):
            _validate_property(resolver, st, diags)
    _check_expanded_heights(resolver.spec, diags)
    return diags


def _check_type_name(t: M.TypeRef, model: M.ModelAst, diags):
    if t.name not in M.BASE_TYPES and model.enum(t.name) is None:
        diags.append(Diagnostic("TYPE", "error", f"unknown type {t.name!r}", t.pos))


def _classify_in(resolver, expr, diags, params=frozenset(), modules=None, definitions=None):
    ctx = ClassifyCtx(resolver, params, modules, definitions)
    return _Classifier(ctx, diags).classify(expr)


def _validate_model(resolver: Resolver, diags: list[Diagnostic]):
    model = resolver.model
    for e in model.enums:
        if len(set(e.literals)) != len(e.literals):
            diags.append(Diagnostic("TYPE", "error",
                                    f"enum {e.name} repeats a literal", e.pos))
    for conn in model.connections:
        if conn.is_async:
            diags.append(Diagnostic(
                "UNSUPPORTED", "error",
                "asynchronous connections are not supported; model buffering with an "
                "environment module instead", conn.pos))
    for p in model.platforms:
        for c in p.constants:
            _check_type_name(c.type, model, diags)
        scope = ModelScope(model, platform=p)
        _validate_vars(_Classifier(ClassifyCtx(resolver, scope=scope), diags), p.variables)
        for ev in p.events:
            if ev.payload is not None:
                _check_type_name(ev.payload, model, diags)
                if ev.payload.name == "real":
                    diags.append(Diagnostic("TYPE", "error",
                                            "real event payloads are not supported", ev.pos))
    for ctrl in model.controllers:
        for conn in ctrl.connections:
            if conn.is_async:
                diags.append(Diagnostic(
                    "UNSUPPORTED", "error",
                    "asynchronous connections are not supported; model buffering with an "
                    "environment module instead", conn.pos))
        for mach in ctrl.machines:
            scope = ModelScope(model, ctrl, mach)
            _validate_machine(_Classifier(ClassifyCtx(resolver, scope=scope), diags), mach)


def _validate_vars(cls: _Classifier, variables: list[M.VarDecl]):
    """Each variable has a known type, not real, and an initial value of it."""
    for v in variables:
        _check_type_name(v.type, cls.resolver.model, cls.diags)
        if v.type.name == "real":
            cls.err("TYPE", "real is restricted to constants and probabilities", v.pos)
        cls.expect(v.init, type_of_typeref(v.type, cls.resolver.model),
                   f"initial value of {v.name}", v.init.pos)
        cls._stateless(v.init, "an initial value")


def _validate_machine(cls: _Classifier, mach: M.Machine):
    _validate_vars(cls, mach.variables)
    for t in mach.transitions:
        if t.guard is not None:
            cls.expect(t.guard, BOOL, f"guard of {t.id}", t.pos)
        if t.prob is not None:
            cls.classify(t.prob)
            cls._stateless(t.prob, "a junction probability")
        if t.trigger is not None:
            _validate_comm(cls, t.trigger, f"transition {t.id}", t.pos)
        if t.action is not None:
            _validate_action(cls, t.action, f"transition {t.id}")
    for s in mach.states:
        for kind, action in (("entry", s.entry), ("exit", s.exit)):
            if action is not None:
                _validate_action(cls, action, f"{kind} of {s.name}")
    # junction branches must cover each junction
    for j in mach.junctions:
        if not any(t.source == j for t in mach.transitions):
            cls.err("SCOPE", f"probabilistic junction {j} has no outgoing transitions", mach.pos)
    _reachability_warning(mach, cls.diags)


def _validate_comm(cls: _Classifier, comm: M.Comm | M.Trigger, where: str, pos):
    """A communication, as an action or a trigger: a declared event, a
    payload for a value to carry and a variable to receive it in."""
    scope = cls.ctx.scope
    ev = scope.events.get(comm.event)
    if ev is None:
        cls.err("SCOPE", f"{where}: unknown event {comm.event!r}", pos)
        return
    if comm.op and ev.payload is None:
        way = "input" if comm.op == "?" else "output"
        cls.err("TYPE", f"{where}: {way} on untyped event {comm.event!r}", pos)
    payload = None if ev.payload is None else type_of_typeref(ev.payload, cls.resolver.model)
    if comm.op == "?":
        var = scope.vars.get(comm.var)
        if var is None:
            cls.err("SCOPE", f"{where}: unknown input variable {comm.var!r}", pos)
        elif payload is not None and not _same(var.type, payload):
            cls.err("TYPE", f"{where}: input variable {comm.var!r} of event "
                    f"{comm.event!r} must be {payload}, got {var.type}", pos)
    if comm.op == "!" and payload is not None:
        cls.expect(comm.value, payload, f"{where}: the value sent on {comm.event!r}", pos)


def _validate_action(cls: _Classifier, action: M.Action, where: str):
    scope = cls.ctx.scope
    if isinstance(action, M.Seq):
        for p in action.parts:
            _validate_action(cls, p, where)
    elif isinstance(action, M.Assign):
        if action.target not in scope.vars:
            cls.err("SCOPE", f"{where}: assignment to unknown variable {action.target!r}",
                    action.pos)
        else:
            cls.expect(action.expr, scope.vars[action.target].type,
                       f"{where}: the value assigned to {action.target!r}", action.pos)
    elif isinstance(action, M.Comm):
        _validate_comm(cls, action, where, action.pos)
    elif isinstance(action, M.OpCall):
        op = scope.operations.get(action.name)
        if op is None:
            cls.err("SCOPE", f"{where}: unknown operation {action.name!r}", action.pos)
            return
        if len(action.args) != len(op.params):
            cls.err("TYPE", f"{where}: {action.name} expects {len(op.params)} arguments, "
                    f"got {len(action.args)}", action.pos)
        cls.arguments(action.name, action.args, op.params)
    elif isinstance(action, M.IfAction):
        cls.expect(action.cond, BOOL, f"{where}: a conditional guard", action.pos)
        _validate_action(cls, action.then, where)
        _validate_action(cls, action.orelse, where)
        if not M.is_atomic(action):
            cls.err("UNSUPPORTED", f"{where}: conditional actions with non-atomic branches "
                    "are not supported", action.pos)
    elif not isinstance(action, M.Skip):
        raise AssertionError(type(action).__name__)


def _reachability_warning(mach: M.Machine, diags):
    succ: dict[str, set[str]] = {}
    for t in mach.transitions:
        succ.setdefault(t.source, set()).add(t.target)
    seen = {mach.initial}
    frontier = [mach.initial]
    while frontier:
        node = frontier.pop()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    for s in mach.states:
        if s.name not in seen:
            diags.append(Diagnostic("SCOPE", "warning",
                                    f"state {s.name} is unreachable in the node graph of "
                                    f"{mach.name}", s.pos))


def literal_value(expr):
    """The value of a configuration literal (a number, possibly negated, a
    boolean or an enumeration literal as "Enum::Literal"), else None."""
    if isinstance(expr, A.Lit):
        return expr.value
    if isinstance(expr, A.Unary) and expr.op == "neg":
        inner = literal_value(expr.operand)
        if inner is not None and not isinstance(inner, (bool, str)):
            return -inner
    if isinstance(expr, A.Ref) and len(expr.name.segments) == 2:
        return str(expr.name)  # enum literal
    return None


def _validate_config(resolver: Resolver, cfg: P.ConstantsConfig, diags):
    seen = set()
    for entry in cfg.entries:
        key = str(entry.name)
        if key in seen:
            diags.append(Diagnostic("SCOPE", "error",
                                    f"configuration {cfg.name} sets {key} twice", entry.pos))
        seen.add(key)
        ref, rdiags = resolver.resolve_fqn(entry.name)
        diags.extend(rdiags)
        if ref is not None and ref.kind != "constant":
            diags.append(Diagnostic("TYPE", "error",
                                    f"{key} is a {ref.kind}, not a constant", entry.pos))
            continue
        spec = entry.spec
        if isinstance(spec, P.Exactly):
            _classify_in(resolver, spec.value, diags)
            if literal_value(spec.value) is None:
                diags.append(Diagnostic("TYPE", "error",
                                        f"configuration value for {key} must be a literal",
                                        entry.pos))
        elif isinstance(spec, P.FromSet):
            if not spec.values:
                diags.append(Diagnostic("TYPE", "error",
                                        f"empty value set for {key}", entry.pos))
            for v in spec.values:
                if literal_value(v) is None:
                    diags.append(Diagnostic("TYPE", "error",
                                            f"set values for {key} must be literals", entry.pos))
        elif isinstance(spec, P.FromRange):
            lo = literal_value(spec.lo)
            hi = literal_value(spec.hi)
            step = literal_value(spec.step) if spec.step is not None else 1
            if lo is None or hi is None or step is None:
                diags.append(Diagnostic("TYPE", "error",
                                        f"range bounds for {key} must be literals", entry.pos))
                continue
            if step <= 0:
                diags.append(Diagnostic("TYPE", "error",
                                        f"range step for {key} must be positive", entry.pos))
            elif lo > hi:
                diags.append(Diagnostic("TYPE", "error",
                                        f"empty range for {key}: {lo} > {hi}", entry.pos))


def _validate_rewards(resolver: Resolver, decl: P.RewardsDecl, diags):
    for item in decl.items:
        if item.event is not None:
            _, ediags = resolver.resolve_event(item.event)
            diags.extend(ediags)
        t = _classify_in(resolver, item.guard, diags)
        if not _is_bool(t):
            diags.append(Diagnostic("TYPE", "error",
                                    f"reward guard in {decl.name} must be boolean", item.pos))
        tv = _classify_in(resolver, item.value, diags)
        if not _is_num(tv):
            diags.append(Diagnostic("TYPE", "error",
                                    f"reward value in {decl.name} must be numeric", item.pos))


def _validate_defs(resolver: Resolver, decl: P.DefinitionsDecl, diags):
    for f in decl.functions:
        if len(set(f.params)) != len(f.params):
            diags.append(Diagnostic("SCOPE", "error",
                                    f"pfunction {f.name} repeats a parameter", f.pos))
        _classify_in(resolver, f.body, diags, params=frozenset(f.params), definitions=decl)
    for op in decl.operations:
        if len(set(op.params)) != len(op.params):
            diags.append(Diagnostic("SCOPE", "error",
                                    f"poperation {op.name} repeats a parameter", op.pos))
        for target, value in op.assignments:
            ref, rdiags = resolver.resolve_fqn(target)
            diags.extend(rdiags)
            if ref is not None and ref.kind != "variable":
                diags.append(Diagnostic("TYPE", "error",
                                        f"poperation {op.name} assigns to {ref.kind} {target}",
                                        op.pos))
            _classify_in(resolver, value, diags, params=frozenset(op.params), definitions=decl)


def _validate_pmodules(resolver: Resolver, decl: P.PModulesDecl, diags):
    names = set()
    for mod in decl.modules:
        if mod.name in names:
            diags.append(Diagnostic("SCOPE", "error",
                                    f"duplicate pmodule name {mod.name!r}", mod.pos))
        names.add(mod.name)
        vnames = set()
        for v in mod.variables:
            if v.name in vnames:
                diags.append(Diagnostic("SCOPE", "error",
                                        f"pmodule {mod.name} repeats variable {v.name!r}", v.pos))
            vnames.add(v.name)
            if v.type != "bool":
                lo = literal_value(v.type[0])
                hi = literal_value(v.type[1])
                if lo is None or hi is None:
                    diags.append(Diagnostic("TYPE", "error",
                                            f"range bounds of @{v.name} must be literals", v.pos))
                elif lo > hi:
                    diags.append(Diagnostic("TYPE", "error",
                                            f"empty range for @{v.name}: {lo} > {hi}", v.pos))
        for cmd in mod.commands:
            if cmd.label is not None:
                _, ediags = resolver.resolve_event(cmd.label)
                diags.extend(ediags)
            t = _classify_in(resolver, cmd.guard, diags, modules=decl)
            if not _is_bool(t):
                diags.append(Diagnostic("TYPE", "error",
                                        f"guard in pmodule {mod.name} must be boolean", cmd.pos))
            with_prob = [u for u in cmd.updates if u.prob is not None]
            if with_prob and len(with_prob) != len(cmd.updates):
                diags.append(Diagnostic("TYPE", "error",
                                        f"pmodule {mod.name}: either all updates of a command "
                                        "carry probabilities or none do", cmd.pos))
            for u in cmd.updates:
                if u.var not in vnames:
                    diags.append(Diagnostic("SCOPE", "error",
                                            f"pmodule {mod.name}: update target @{u.var} is not "
                                            "declared in this module", u.pos))
                if u.prob is not None:
                    _classify_in(resolver, u.prob, diags, modules=decl)
                _classify_in(resolver, u.expr, diags, modules=decl)


def _effective_clause(resolver, clause, ref_kind, wf_code, what, diags, pos):
    """Resolve a with-clause to its statement, checking WFProp-2/3/4."""
    if clause is None:
        return None
    if clause.inline is not None:
        return clause.inline
    target = None
    for kind in (P.ConstantsConfig, P.DefinitionsDecl, P.PModulesDecl):
        found = resolver.spec.find(kind, clause.ref)
        if found is not None:
            target = found
            break
    if target is None:
        diags.append(Diagnostic("SCOPE", "error",
                                f"unknown {what} reference {clause.ref!r}", pos))
        return None
    if not isinstance(target, ref_kind):
        diags.append(Diagnostic(wf_code, "error",
                                f"{clause.ref!r} after 'with {what}' must name a "
                                f"{ref_kind.__name__}, found {type(target).__name__}", pos))
        return None
    return target


def property_context(resolver: Resolver, prop: P.ProbProperty, diags):
    """Resolve a property's with-clauses (WFProp-2/3/4)."""
    config = _effective_clause(resolver, prop.with_constants, P.ConstantsConfig,
                               "WFProp-2", "constants", diags, prop.pos)
    defs = _effective_clause(resolver, prop.with_definitions, P.DefinitionsDecl,
                             "WFProp-3", "definitions", diags, prop.pos)
    modules = _effective_clause(resolver, prop.with_modules, P.PModulesDecl,
                                "WFProp-4", "modules", diags, prop.pos)
    return config, defs, modules


def _validate_property(resolver: Resolver, prop: P.ProbProperty, diags):
    config, defs, modules = property_context(resolver, prop, diags)
    # inline with-clause content gets the same checks as named statements
    if prop.with_constants is not None and prop.with_constants.inline is not None:
        _validate_config(resolver, config, diags)
    if prop.with_definitions is not None and prop.with_definitions.inline is not None:
        _validate_defs(resolver, defs, diags)
    if prop.with_modules is not None and prop.with_modules.inline is not None:
        _validate_pmodules(resolver, modules, diags)
    t = _classify_in(resolver, prop.body, diags, modules=modules, definitions=defs)
    if not (_is_bool(t) or t.kind == "query"):
        diags.append(Diagnostic("WFProp-1", "error",
                                f"property {prop.name} must be boolean or a query, got {t}",
                                prop.pos))
    # completeness: all loose symbols must be covered by the attached context
    loose_consts, loose_funcs, loose_ops = M.loose_symbols(resolver.model)
    covered = set()
    if config is not None:
        for entry in config.entries:
            covered.add(entry.name.segments[-1])
    for name in sorted(loose_consts - covered):
        diags.append(Diagnostic("SCOPE", "error",
                                f"property {prop.name}: loose constant {name!r} is not covered "
                                "by its constant configuration", prop.pos))
    defined = set()
    if defs is not None:
        defined |= {f.name for f in defs.functions}
        defined |= {o.name for o in defs.operations}
    for name in sorted(loose_funcs - defined):
        diags.append(Diagnostic("SCOPE", "error",
                                f"property {prop.name}: loose function {name!r} is not defined "
                                "by its definitions", prop.pos))
    for name in sorted(loose_ops - defined):
        diags.append(Diagnostic("SCOPE", "error",
                                f"property {prop.name}: loose operation {name!r} is not defined "
                                "by its definitions", prop.pos))
    # property-file constants used by the body must be configured as well
    used = _spec_consts_used(resolver, prop.body)
    for name in sorted(used - covered):
        diags.append(Diagnostic("SCOPE", "error",
                                f"property {prop.name}: constant {name!r} is not covered "
                                "by its constant configuration", prop.pos))


def walk_uses(spec: P.SpecAst, body: Expr):
    """The nodes of body and of the labels and formulas of spec it uses,
    each once."""
    stack, seen = [body], set()
    while stack:
        for node in A.walk(stack.pop()):
            yield node
            decl = _declaration(spec, node)
            if decl is not None and id(decl) not in seen:
                seen.add(id(decl))
                stack.append(decl.body)


def _declaration(spec: P.SpecAst, node: Expr):
    """The declaration that a label or formula reference names, if any."""
    if isinstance(node, (A.LabelRef, A.FormulaRef)):
        return spec.find(P.LabelDecl if isinstance(node, A.LabelRef) else P.FormulaDecl,
                         node.name)
    return None


def _references(spec: P.SpecAst, body: Expr) -> list:
    """The declarations of the labels and formulas that body names, each once."""
    decls = (_declaration(spec, node) for node in A.walk(body))
    return list({id(decl): decl for decl in decls if decl is not None}.values())


def _expanded_height(spec: P.SpecAst, body: Expr, heights: dict) -> int:
    """The height of body with each label or formula reference one level
    above the body it names, whose height is `heights[id(decl)]` (0 where
    unknown)."""
    top, stack = 0, [(body, 0)]
    while stack:
        node, level = stack.pop()
        decl = _declaration(spec, node)
        if decl is not None:
            level += 1 + heights.get(id(decl), 0)
        top = max(top, level)
        stack.extend((x, level + 1) for x in A.subexpressions(node))
    return top


def _check_expanded_heights(spec: P.SpecAst, diags: list[Diagnostic]):
    """Refuse a label on a cycle of references, and a label, formula or
    property more than `MAX_EXPANDED_HEIGHT` levels high with the labels and
    formulas it references expanded: the engines recurse on the expanded
    tree.  Of a chain of references past the bound only the first
    declaration past it is named; a cycle of formulas alone is the
    classifier's to report."""
    decls = [*spec.of_kind(P.LabelDecl), *spec.of_kind(P.FormulaDecl)]
    heights: dict = {}
    for root in decls:
        # depth first, each declaration after the ones it references;
        # `at` holds the stack position of each declaration on it
        stack, at = [(root, iter(_references(spec, root.body)))], {id(root): 0}
        while stack and id(root) not in heights:
            decl, todo = stack[-1]
            ref = next((r for r in todo if id(r) not in heights), None)
            if ref is None:
                stack.pop()
                del at[id(decl)]
                heights[id(decl)] = _expanded_height(spec, decl.body, heights)
            elif id(ref) in at:
                label = next((d for d, _ in stack[at[id(ref)]:]
                              if isinstance(d, P.LabelDecl)), None)
                if label is not None:
                    diags.append(Diagnostic("SCOPE", "error",
                                            f"cyclic label reference #{label.name}", label.pos))
            else:
                at[id(ref)] = len(stack)
                stack.append((ref, iter(_references(spec, ref.body))))
    for st in [*decls, *spec.properties]:
        if _expanded_height(spec, st.body, heights) > MAX_EXPANDED_HEIGHT and all(
                heights[id(d)] <= MAX_EXPANDED_HEIGHT for d in _references(spec, st.body)):
            kind = {P.LabelDecl: "label", P.FormulaDecl: "formula"}.get(type(st), "property")
            diags.append(Diagnostic(
                "UNSUPPORTED", "error",
                f"{kind} {st.name} is more than {MAX_EXPANDED_HEIGHT} levels high with the "
                "labels and formulas it references expanded", st.pos))


# the fields that hold weights: junction branch and environment update probabilities
_WEIGHT_FIELDS = {(M.Transition, "prob"), (P.PUpdate, "prob")}


def _outer_exprs(node):
    """The outermost expressions at any depth below an AST node, but none in
    a weight field or a function definition."""
    if isinstance(node, Expr):
        yield node
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _outer_exprs(item)
    elif dataclasses.is_dataclass(node) and not isinstance(node, P.PFunctionDef):
        for f in dataclasses.fields(node):
            if (type(node), f.name) not in _WEIGHT_FIELDS:
                yield from _outer_exprs(getattr(node, f.name))


def weight_only_constants(resolver: Resolver, defs: P.DefinitionsDecl | None,
                          names) -> set[str]:
    """The constants among `names` that nothing reads but junction `prob`
    expressions and environment update probabilities, with the functions of
    `defs` they call: a change of their values changes the weights of a
    model and nothing else.  Any other expression of the model or the
    property file that reads a constant (a guard, an action, an initial
    value, a domain, an environment guard or update, a label, a formula, a
    reward item, a property) makes it structural, as does any name that
    ends in it, so that a doubt counts as a read."""
    functions = {f.name: f.body for f in defs.functions} if defs is not None else {}
    stack = list(_outer_exprs((resolver.model, resolver.spec)))
    read, called = set(), set()
    while stack:
        for node in walk_uses(resolver.spec, stack.pop()):
            if isinstance(node, A.Ref):
                read.add(node.name.segments[-1])
            elif isinstance(node, A.FunCall) and node.name in functions \
                    and node.name not in called:
                called.add(node.name)
                stack.append(functions[node.name])
    return set(names) - read


def _spec_consts_used(resolver: Resolver, body: Expr) -> set[str]:
    names = {s.name for s in resolver.spec.of_kind(P.ConstantDecl)}
    return {node.name.segments[0] for node in walk_uses(resolver.spec, body)
            if isinstance(node, A.Ref) and len(node.name.segments) == 1
            and node.name.segments[0] in names}
