"""Property language (`.rcp`): statements, parser, and pretty printer.

A property file is a sequence of statements: constant declarations,
constant configurations, labels, formulas, rewards, function/operation
definitions, environment module groups, and named properties.
"""

from __future__ import annotations

from . import ast as A
from .ast import Bound, EventRef, Expr, Pos, QName, SimMethodSpec
from .lexer import NAME, ParseError, TokenStream
from .parsing import ExprParser
from .model import TypeRef
from .record import Record, field


class Statement(Record):
    pos: Pos = field(default=(0, 0), kw_only=True, compare=False)


class ConstantDecl(Statement):
    name: str = ""
    type: TypeRef = None


# value specifications for constant configurations
class Exactly(Record, frozen=True):
    value: Expr


class FromSet(Record, frozen=True):
    values: tuple[Expr, ...]


class FromRange(Record, frozen=True):
    lo: Expr
    hi: Expr
    step: Expr | None


class ConfigEntry(Record):
    name: QName
    spec: object  # Exactly | FromSet | FromRange
    pos: Pos = field(default=(0, 0), compare=False)


class ConstantsConfig(Statement):
    name: str = ""
    entries: list[ConfigEntry] = field(default_factory=list)


class LabelDecl(Statement):
    name: str = ""
    body: Expr = None


class FormulaDecl(Statement):
    name: str = ""
    body: Expr = None


class RewardItem(Record):
    event: EventRef | None  # None = state reward
    guard: Expr = None
    value: Expr = None
    pos: Pos = field(default=(0, 0), compare=False)


class RewardsDecl(Statement):
    name: str = ""
    items: list[RewardItem] = field(default_factory=list)


class PFunctionDef(Record):
    name: str
    params: tuple[str, ...]
    body: Expr
    pos: Pos = field(default=(0, 0), compare=False)


class POperationDef(Record):
    name: str
    params: tuple[str, ...]
    assignments: tuple[tuple[QName, Expr], ...]
    pos: Pos = field(default=(0, 0), compare=False)


class DefinitionsDecl(Statement):
    name: str = ""
    functions: list[PFunctionDef] = field(default_factory=list)
    operations: list[POperationDef] = field(default_factory=list)


class PVariable(Record):
    name: str
    type: object  # "bool" | (lo Expr, hi Expr)
    init: Expr | None
    pos: Pos = field(default=(0, 0), compare=False)


class PUpdate(Record):
    prob: Expr | None
    var: str = ""
    expr: Expr = None
    pos: Pos = field(default=(0, 0), compare=False)


class PCommand(Record):
    label: EventRef | None
    guard: Expr = None
    updates: tuple[PUpdate, ...] = ()  # empty tuple = skip
    pos: Pos = field(default=(0, 0), compare=False)


class PModule(Record):
    name: str
    variables: list[PVariable] = field(default_factory=list)
    commands: list[PCommand] = field(default_factory=list)
    pos: Pos = field(default=(0, 0), compare=False)


class PModulesDecl(Statement):
    name: str = ""
    modules: list[PModule] = field(default_factory=list)


class WithClause(Record):
    """`with ...` attachment: either a name reference or inline content."""

    ref: str | None = None
    inline: object = None  # ConstantsConfig | DefinitionsDecl | PModulesDecl


class ProbProperty(Statement):
    name: str = ""
    body: Expr = None
    with_constants: WithClause | None = None
    with_definitions: WithClause | None = None
    with_modules: WithClause | None = None


class SpecAst(Record):
    statements: list[Statement] = field(default_factory=list)

    def of_kind(self, cls):
        return [s for s in self.statements if isinstance(s, cls)]

    def find(self, cls, name: str):
        for s in self.statements:
            if isinstance(s, cls) and s.name == name:
                return s
        return None

    @property
    def properties(self) -> list[ProbProperty]:
        return self.of_kind(ProbProperty)


# --- parser ------------------------------------------------------------------


class SpecParser:
    def __init__(self, text: str):
        self.ts = TokenStream(text)
        self.expr = ExprParser(self.ts, spec_mode=True)

    def parse(self) -> SpecAst:
        out = SpecAst()
        while not self.ts.at_eof():
            out.statements.append(self._statement())
        _check_unique_names(out)
        return out

    def _statement(self) -> Statement:
        ts = self.ts
        if ts.at_name("const"):
            return self._const_decl()
        if ts.at_name("constants"):
            return self._constants_config()
        if ts.at_name("label"):
            tok = ts.advance()
            name = ts.expect_name("label name").text
            ts.expect("=")
            return LabelDecl(name, self._expr(), pos=(tok.line, tok.col))
        if ts.at_name("formula"):
            tok = ts.advance()
            name = ts.expect_name("formula name").text
            ts.expect("=")
            return FormulaDecl(name, self._expr(), pos=(tok.line, tok.col))
        if ts.at_name("rewards"):
            return self._rewards()
        if ts.at_name("defs"):
            return self._defs()
        if ts.at_name("pmodules"):
            tok = ts.advance()
            name = ts.expect_name().text
            ts.expect(":")
            modules = [self._pmodule()]
            while ts.at_name("pmodule"):
                modules.append(self._pmodule())
            return PModulesDecl(name, modules, pos=(tok.line, tok.col))
        if ts.at_name("prob"):
            return self._property()
        raise ts.error(f"expected a statement keyword, found {ts.current.text!r}")

    def _expr(self) -> Expr:
        return self.expr.parse()

    def _const_decl(self) -> ConstantDecl:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        self.ts.expect(":")
        tname = self.ts.expect_name("type").text
        while self.ts.at("::"):
            self.ts.advance()
            tname = self.ts.expect_name("type").text
        self.ts.accept(";")
        return ConstantDecl(name, TypeRef(tname), pos=(tok.line, tok.col))

    def _config_entries(self) -> list[ConfigEntry]:
        entries = [self._config_entry()]
        while True:
            if self.ts.accept(","):
                if self.ts.at_name("and"):
                    self.ts.advance()
                entries.append(self._config_entry())
            elif self.ts.at_name("and"):
                self.ts.advance()
                entries.append(self._config_entry())
            else:
                break
        return entries

    def _constants_config(self) -> ConstantsConfig:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        self.ts.expect(":")
        return ConstantsConfig(name, self._config_entries(), pos=(tok.line, tok.col))

    def _config_entry(self) -> ConfigEntry:
        qn = self.expr.parse_qname()
        if self.ts.at_name("set"):
            self.ts.advance()
            self.ts.expect_keyword("to")
            return ConfigEntry(qn, Exactly(self._expr()), pos=qn.pos)
        if self.ts.at_name("from"):
            self.ts.advance()
            self.ts.expect_keyword("set")
            setexpr = self._expr()
            if isinstance(setexpr, A.SetExt):
                return ConfigEntry(qn, FromSet(setexpr.items), pos=qn.pos)
            if isinstance(setexpr, A.SetRange):
                return ConfigEntry(qn, FromRange(setexpr.lo, setexpr.hi, setexpr.step), pos=qn.pos)
            raise self.ts.error("expected a set literal after 'from set'")
        raise self.ts.error("expected 'set to' or 'from set' in a constant configuration")

    def _rewards(self) -> RewardsDecl:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        self.ts.expect("=")
        items = []
        while not self.ts.at_name("endrewards"):
            ipos = (self.ts.current.line, self.ts.current.col)
            event = None
            if self.ts.accept("["):
                if not self.ts.at("]"):
                    event = self.expr.parse_event_ref()
                self.ts.expect("]")
            guard = self._expr()
            self.ts.expect(":")
            value = self._expr()
            self.ts.expect(";")
            items.append(RewardItem(event, guard, value, pos=ipos))
        self.ts.expect_keyword("endrewards")
        return RewardsDecl(name, items, pos=(tok.line, tok.col))

    def _defs(self) -> DefinitionsDecl:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        self.ts.expect(":")
        decl = DefinitionsDecl(name, pos=(tok.line, tok.col))
        self._def_items(decl)
        if not decl.functions and not decl.operations:
            raise self.ts.error("defs needs at least one pfunction or poperation")
        return decl

    def _def_items(self, decl: DefinitionsDecl):
        while True:
            if self.ts.at_name("pfunction"):
                decl.functions.append(self._pfunction())
            elif self.ts.at_name("poperation"):
                decl.operations.append(self._poperation())
            else:
                break

    def _def_params(self) -> tuple[str, ...]:
        self.ts.expect("(")
        params = []
        if not self.ts.at(")"):
            params.append(self.ts.expect_name("parameter").text)
            while self.ts.accept(","):
                params.append(self.ts.expect_name("parameter").text)
        self.ts.expect(")")
        return tuple(params)

    def _pfunction(self) -> PFunctionDef:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        params = self._def_params()
        self.ts.expect("=")
        self.ts.expect("{")
        self.ts.expect_keyword("return")
        body = self._expr()
        self.ts.expect("}")
        return PFunctionDef(name, params, body, pos=(tok.line, tok.col))

    def _poperation(self) -> POperationDef:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        params = self._def_params()
        self.ts.expect("=")
        self.ts.expect("{")
        assignments = [self._passignment()]
        while self.ts.at_name("and"):
            self.ts.advance()
            assignments.append(self._passignment())
        self.ts.expect("}")
        return POperationDef(name, params, tuple(assignments), pos=(tok.line, tok.col))

    def _passignment(self) -> tuple[QName, Expr]:
        self.ts.expect("(")
        target = self.expr.parse_qname()
        self.ts.expect("=")
        value = self._expr()
        self.ts.expect(")")
        return (target, value)

    def _pmodule(self) -> PModule:
        tok = self.ts.expect_keyword("pmodule")
        mod = PModule(self.ts.expect_name().text, pos=(tok.line, tok.col))
        self.ts.expect("{")
        # variables first: NAME ':' ...
        while self.ts.current.kind == NAME and self.ts.peek().text == ":":
            vtok = self.ts.advance()
            self.ts.expect(":")
            if self.ts.at_name("bool"):
                self.ts.advance()
                vtype = "bool"
            else:
                self.ts.expect("[")
                lo = self._expr()
                self.ts.expect_keyword("to")
                hi = self._expr()
                self.ts.expect("]")
                vtype = (lo, hi)
            init = None
            if self.ts.at_name("init"):
                self.ts.advance()
                init = self._expr()
            self.ts.expect(";")
            mod.variables.append(PVariable(vtok.text, vtype, init, pos=(vtok.line, vtok.col)))
        while self.ts.at("["):
            mod.commands.append(self._pcommand())
        self.ts.expect("}")
        if not mod.commands:
            raise ParseError(f"pmodule {mod.name} needs at least one command", tok.line, tok.col)
        return mod

    def _pcommand(self) -> PCommand:
        tok = self.ts.expect("[")
        label = None
        if not self.ts.at("]"):
            label = self.expr.parse_event_ref()
        self.ts.expect("]")
        guard = self._expr()
        self.ts.expect("->")
        updates = []
        if self.ts.at_name("skip"):
            self.ts.advance()
        else:
            updates.append(self._pupdate())
            while self.ts.accept("&"):
                updates.append(self._pupdate())
        self.ts.expect(";")
        return PCommand(label, guard, tuple(updates), pos=(tok.line, tok.col))

    def _pupdate(self) -> PUpdate:
        tok = self.ts.expect("(")
        prob = None
        # `(expr : @v = e)` carries a branch probability; `(@v = e)` does not.
        if not self.ts.at("@"):
            prob = self._expr()
            self.ts.expect(":")
        self.ts.expect("@")
        var = self.ts.expect_name("module variable").text
        self.ts.expect("=")
        expr = self._expr()
        self.ts.expect(")")
        return PUpdate(prob, var, expr, pos=(tok.line, tok.col))

    def _property(self) -> ProbProperty:
        tok = self.ts.advance()
        self.ts.expect_keyword("property")
        name = self.ts.expect_name("property name").text
        self.ts.expect(":")
        body = self._expr()
        prop = ProbProperty(name, body, pos=(tok.line, tok.col))
        while self.ts.at_name("with"):
            self.ts.advance()
            kind = self.ts.expect_name("'constants', 'definitions' or 'modules'").text
            if kind == "constants":
                if prop.with_constants is not None:
                    raise self.ts.error("duplicate 'with constants'")
                prop.with_constants = self._with_constants()
            elif kind == "definitions":
                if prop.with_definitions is not None:
                    raise self.ts.error("duplicate 'with definitions'")
                prop.with_definitions = self._with_definitions()
            elif kind == "modules":
                if prop.with_modules is not None:
                    raise self.ts.error("duplicate 'with modules'")
                prop.with_modules = self._with_modules()
            else:
                raise self.ts.error(f"unknown with-clause {kind!r}")
        return prop

    def _with_constants(self) -> WithClause:
        # A lone identifier is a reference; a qualified name followed by
        # `set to`/`from set` starts inline entries.
        save = self.ts.pos
        qn = self.expr.parse_qname()
        if self.ts.at_name("set") or self.ts.at_name("from"):
            self.ts.pos = save
            inline = ConstantsConfig("", self._config_entries())
            return WithClause(None, inline)
        if len(qn.segments) != 1:
            raise self.ts.error("a 'with constants' reference must be a plain name")
        return WithClause(qn.segments[0], None)

    def _with_definitions(self) -> WithClause:
        if self.ts.at_name("pfunction") or self.ts.at_name("poperation"):
            decl = DefinitionsDecl("")
            self._def_items(decl)
            return WithClause(None, decl)
        return WithClause(self.ts.expect_name().text, None)

    def _with_modules(self) -> WithClause:
        if self.ts.at_name("pmodule"):
            modules = [self._pmodule()]
            while self.ts.at_name("pmodule"):
                modules.append(self._pmodule())
            return WithClause(None, PModulesDecl("", modules))
        return WithClause(self.ts.expect_name().text, None)


def _check_unique_names(spec: SpecAst):
    per_kind: dict[type, set[str]] = {}
    for st in spec.statements:
        names = per_kind.setdefault(type(st), set())
        if st.name in names:
            raise ParseError(
                f"duplicate {type(st).__name__} name {st.name!r}", st.pos[0], st.pos[1]
            )
        names.add(st.name)


def parse_spec(text: str) -> SpecAst:
    """Parse `.rcp` text into a SpecAst with per-kind unique names."""
    return SpecParser(text).parse()


def parse_expression(text: str, in_formula: bool = False) -> Expr:
    """Parse a standalone property expression.

    With `in_formula` set, temporal operators are allowed at the top level
    (as inside the brackets of a P/R/A/E formula).
    """
    ts = TokenStream(text)
    parser = ExprParser(ts, spec_mode=True)
    if in_formula:
        parser.formula_depth = 1
    expr = parser.parse()
    if not ts.at_eof():
        raise ts.error(f"trailing input {ts.current.text!r}")
    return expr


def parse_sim_method(text: str) -> SimMethodSpec:
    """Parse a standalone `using sim with ...` clause."""
    ts = TokenStream(text)
    parser = ExprParser(ts, spec_mode=True)
    spec = parser.parse_sim_method()
    if not ts.at_eof():
        raise ts.error(f"trailing input {ts.current.text!r}")
    return spec


# --- pretty printing ---------------------------------------------------------

_TEMPORAL_PREC = 3


def pretty_pexpr(e: Expr, parent: int = 0) -> str:
    s, prec = _pp(e)
    if prec < parent:
        return f"({s})"
    return s


def _bound_str(b: Bound | None) -> str:
    return f"{b.op}{pretty_pexpr(b.expr, 10)}" if b else ""


def _query_str(q: str) -> str:
    return {"=?": "=?", "min=?": " min =?", "max=?": " max =?"}[q]


def _method_str(m: SimMethodSpec | None) -> str:
    if m is None:
        return ""
    parts = [f"{k}={pretty_pexpr(v)}" for k, v in m.params.items()]
    if m.pathlen is not None:
        parts.append(f"pathlen={pretty_pexpr(m.pathlen)}")
    at = f" at {', '.join(parts)}" if parts else ""
    return f" using sim with {m.method}{at}"


def _pp(e: Expr) -> tuple[str, int]:
    if isinstance(e, A.Lit):
        from .model import pretty_expr as mp

        return mp(e), 11
    if isinstance(e, A.Ref):
        return str(e.name), 11
    if isinstance(e, A.Unary):
        if e.op == "not":
            return f"not {pretty_pexpr(e.operand, 6)}", 6
        return f"-{pretty_pexpr(e.operand, 10)}", 10
    if isinstance(e, A.Binary):
        prec = A.BINARY_PREC[e.op]
        op = e.op
        if op == "=>":  # right-associative
            left = pretty_pexpr(e.left, prec + 1)
            right = pretty_pexpr(e.right, prec)
        elif prec == 7:  # relationals do not chain
            left = pretty_pexpr(e.left, prec + 1)
            right = pretty_pexpr(e.right, prec + 1)
        else:
            left = pretty_pexpr(e.left, prec)
            right = pretty_pexpr(e.right, prec + 1)
        return f"{left} {op} {right}", prec
    if isinstance(e, A.Cond):
        return (f"if {pretty_pexpr(e.cond)} then {pretty_pexpr(e.then)} "
                f"else {pretty_pexpr(e.orelse)} end"), 0
    if isinstance(e, A.SetExt):
        return "{" + ", ".join(pretty_pexpr(x) for x in e.items) + "}", 11
    if isinstance(e, A.SetRange):
        s = f"{{{pretty_pexpr(e.lo)} to {pretty_pexpr(e.hi)}"
        if e.step is not None:
            s += f" by step {pretty_pexpr(e.step)}"
        return s + "}", 11
    if isinstance(e, A.IsIn):
        return f"{e.container} is in {e.state}", 7
    if isinstance(e, A.ModVarRef):
        if e.group:
            return f"@{e.group}::{e.module}::{e.var}", 11
        return f"@{e.var}", 11
    if isinstance(e, A.LabelRef):
        return f"#{e.name}", 11
    if isinstance(e, A.DeadlockRef):
        return "deadlock", 11
    if isinstance(e, A.InitRef):
        return "init", 11
    if isinstance(e, A.FormulaRef):
        return f"`{e.name}", 11
    if isinstance(e, A.ParamRef):
        return f"``{e.name}", 11
    if isinstance(e, A.FunCall):
        return f"&{e.name}({', '.join(pretty_pexpr(a) for a in e.args)})", 11
    if isinstance(e, A.EventVal):
        ev = e.event
        return f"{ev.name}.{ev.direction}.val", 11
    if isinstance(e, A.Index):
        idx = ", ".join(pretty_pexpr(i) for i in e.indexes)
        return f"{pretty_pexpr(e.base, 11)}[{idx}]", 11
    if isinstance(e, A.ProbFormula):
        bq = _query_str(e.query) if e.query else _bound_str(e.bound)
        return f"Prob{bq} of [{pretty_pexpr(e.path)}]{_method_str(e.method)}", 11
    if isinstance(e, A.RewardFormula):
        rn = f" {{{e.rewards}}}" if e.rewards else ""
        bq = _query_str(e.query) if e.query else _bound_str(e.bound)
        return f"Reward{rn} {bq} of [{pretty_pexpr(e.path)}]{_method_str(e.method)}", 11
    if isinstance(e, A.Forall):
        return f"Forall [{pretty_pexpr(e.path)}]", 11
    if isinstance(e, A.Exists):
        return f"Exists [{pretty_pexpr(e.path)}]", 11
    if isinstance(e, A.Next):
        return f"Next {pretty_pexpr(e.operand, _TEMPORAL_PREC)}", _TEMPORAL_PREC
    if isinstance(e, A.Finally_):
        return f"Finally{_bound_str(e.bound)} {pretty_pexpr(e.operand, _TEMPORAL_PREC)}", _TEMPORAL_PREC
    if isinstance(e, A.Globally):
        return f"Globally{_bound_str(e.bound)} {pretty_pexpr(e.operand, _TEMPORAL_PREC)}", _TEMPORAL_PREC
    if isinstance(e, (A.Until, A.WeakUntil, A.Release)):
        word = {A.Until: "Until", A.WeakUntil: "Weak Until", A.Release: "Release"}[type(e)]
        left = pretty_pexpr(e.left, _TEMPORAL_PREC + 1)
        right = pretty_pexpr(e.right, _TEMPORAL_PREC)
        return f"{left} {word}{_bound_str(e.bound)} {right}", _TEMPORAL_PREC
    if isinstance(e, A.Reachable):
        return f"Reachable {pretty_pexpr(e.operand, _TEMPORAL_PREC)}", _TEMPORAL_PREC
    if isinstance(e, A.LTLReward):
        return f"LTL {pretty_pexpr(e.operand, _TEMPORAL_PREC)}", _TEMPORAL_PREC
    if isinstance(e, A.Cumul):
        return f"Cumul {pretty_pexpr(e.operand, _TEMPORAL_PREC)}", _TEMPORAL_PREC
    if isinstance(e, A.TotalReward):
        return "Total", 11
    raise TypeError(f"cannot pretty-print node {type(e).__name__}")


def _pretty_entry(entry: ConfigEntry) -> str:
    if isinstance(entry.spec, Exactly):
        return f"{entry.name} set to {pretty_pexpr(entry.spec.value)}"
    if isinstance(entry.spec, FromSet):
        items = ", ".join(pretty_pexpr(v) for v in entry.spec.values)
        return f"{entry.name} from set {{{items}}}"
    step = f" by step {pretty_pexpr(entry.spec.step)}" if entry.spec.step is not None else ""
    return (f"{entry.name} from set {{{pretty_pexpr(entry.spec.lo)} to "
            f"{pretty_pexpr(entry.spec.hi)}{step}}}")


def _pretty_defs_items(decl: DefinitionsDecl, indent: str) -> list[str]:
    out = []
    for f in decl.functions:
        out.append(f"{indent}pfunction {f.name}({', '.join(f.params)}) = "
                   f"{{ return {pretty_pexpr(f.body)} }}")
    for op in decl.operations:
        body = " and ".join(f"({t} = {pretty_pexpr(v)})" for t, v in op.assignments)
        out.append(f"{indent}poperation {op.name}({', '.join(op.params)}) = {{ {body} }}")
    return out


def _pretty_pmodule(mod: PModule, indent: str) -> list[str]:
    out = [f"{indent}pmodule {mod.name} {{"]
    for v in mod.variables:
        t = "bool" if v.type == "bool" else f"[{pretty_pexpr(v.type[0])} to {pretty_pexpr(v.type[1])}]"
        init = f" init {pretty_pexpr(v.init)}" if v.init is not None else ""
        out.append(f"{indent}  {v.name} : {t}{init};")
    for c in mod.commands:
        label = str(c.label) if c.label else ""
        if c.updates:
            ups = " & ".join(
                (f"({pretty_pexpr(u.prob)}: @{u.var} = {pretty_pexpr(u.expr)})"
                 if u.prob is not None else f"(@{u.var} = {pretty_pexpr(u.expr)})")
                for u in c.updates
            )
        else:
            ups = "skip"
        out.append(f"{indent}  [{label}] {pretty_pexpr(c.guard)} -> {ups};")
    out.append(f"{indent}}}")
    return out


def pretty_spec(spec: SpecAst) -> str:
    out: list[str] = []
    for st in spec.statements:
        if isinstance(st, ConstantDecl):
            out.append(f"const {st.name} : {st.type}")
        elif isinstance(st, ConstantsConfig):
            out.append(f"constants {st.name}:")
            for i, entry in enumerate(st.entries):
                sep = "," if i < len(st.entries) - 1 else ""
                out.append(f"  {_pretty_entry(entry)}{sep}")
        elif isinstance(st, LabelDecl):
            out.append(f"label {st.name} = {pretty_pexpr(st.body)}")
        elif isinstance(st, FormulaDecl):
            out.append(f"formula {st.name} = {pretty_pexpr(st.body)}")
        elif isinstance(st, RewardsDecl):
            out.append(f"rewards {st.name} =")
            for item in st.items:
                ev = f"[{item.event}] " if item.event else ""
                out.append(f"  {ev}{pretty_pexpr(item.guard)} : {pretty_pexpr(item.value)};")
            out.append("endrewards")
        elif isinstance(st, DefinitionsDecl):
            out.append(f"defs {st.name}:")
            out.extend(_pretty_defs_items(st, "  "))
        elif isinstance(st, PModulesDecl):
            out.append(f"pmodules {st.name}:")
            for mod in st.modules:
                out.extend(_pretty_pmodule(mod, ""))
        elif isinstance(st, ProbProperty):
            out.append(f"prob property {st.name}:")
            out.append(f"  {pretty_pexpr(st.body)}")
            for kind, clause in (("constants", st.with_constants),
                                 ("definitions", st.with_definitions),
                                 ("modules", st.with_modules)):
                if clause is None:
                    continue
                if clause.ref is not None:
                    out.append(f"  with {kind} {clause.ref}")
                elif kind == "constants":
                    entries = ", ".join(_pretty_entry(x) for x in clause.inline.entries)
                    out.append(f"  with {kind} {entries}")
                elif kind == "definitions":
                    out.append(f"  with {kind}")
                    out.extend(_pretty_defs_items(clause.inline, "    "))
                else:
                    out.append(f"  with {kind}")
                    for mod in clause.inline.modules:
                        out.extend(_pretty_pmodule(mod, "    "))
        else:
            raise TypeError(type(st).__name__)
        out.append("")
    return "\n".join(out)
