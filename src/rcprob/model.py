"""Textual state-machine model format (`.rcm`): AST, parser, pretty printer.

The format carries exactly what the Markov construction consumes: one module
with platforms (shared constants/variables/events/operations), controllers
with machines (variables, events, loose function signatures, nodes and
transitions), directed connections, and enumeration declarations.
"""

from __future__ import annotations

from fractions import Fraction

from .ast import BINARY_PREC, Expr, Pos
from .lexer import ParseError, TokenStream
from .parsing import ExprParser
from .record import Record, field

BASE_TYPES = ("int", "nat", "bool", "real")


class TypeRef(Record, frozen=True):
    name: str  # base type or enum name
    pos: Pos = field(default=(0, 0), compare=False)

    def __str__(self):
        return self.name


class ConstDecl(Record):
    name: str
    type: TypeRef
    value: Expr | None  # None = loose
    pos: Pos = field(default=(0, 0), compare=False)


class VarDecl(Record):
    name: str
    type: TypeRef
    init: Expr
    pos: Pos = field(default=(0, 0), compare=False)


class EventDecl(Record):
    name: str
    payload: TypeRef | None
    pos: Pos = field(default=(0, 0), compare=False)


class OperationDecl(Record):
    name: str
    params: tuple[tuple[str, TypeRef], ...]
    pos: Pos = field(default=(0, 0), compare=False)


class FunctionDecl(Record):
    name: str
    params: tuple[tuple[str, TypeRef], ...]
    result: TypeRef
    pos: Pos = field(default=(0, 0), compare=False)


# --- actions -----------------------------------------------------------------


class Action(Record):
    pos: Pos = field(default=(0, 0), kw_only=True, compare=False)


class Skip(Action):
    pass


class Assign(Action):
    target: str = ""
    expr: Expr = None


class Comm(Action):
    """Event communication: sync `e`, output `e!v`, or input `e?x`."""

    event: str = ""
    op: str = ""  # "" sync, "!" output, "?" input
    value: Expr | None = None  # expression for "!", None otherwise
    var: str | None = None  # bound variable for "?"


class OpCall(Action):
    name: str = ""
    args: tuple[Expr, ...] = ()


class Seq(Action):
    parts: tuple[Action, ...] = ()


class IfAction(Action):
    cond: Expr = None
    then: Action = None
    orelse: Action = None


def atomic_parts(action: Action | None) -> list[Action]:
    """Flatten an action into its sequence of atomic constituents.

    `skip` contributes nothing; a conditional is one constituent when both
    branches are atomic, otherwise it is rejected at instantiation time.
    """
    if action is None or isinstance(action, Skip):
        return []
    if isinstance(action, Seq):
        out = []
        for p in action.parts:
            out.extend(atomic_parts(p))
        return out
    return [action]


def is_atomic(action: Action | None) -> bool:
    if action is None or isinstance(action, (Skip, Assign, Comm, OpCall)):
        return True
    if isinstance(action, IfAction):
        return is_atomic(action.then) and is_atomic(action.orelse)
    return False


# --- nodes and transitions ---------------------------------------------------


class StateNode(Record):
    name: str
    entry: Action | None = None
    exit: Action | None = None
    pos: Pos = field(default=(0, 0), compare=False)


class Trigger(Record):
    event: str
    op: str  # "" sync, "?" input, "!" output
    var: str | None = None
    value: Expr | None = None
    pos: Pos = field(default=(0, 0), compare=False)


class Transition(Record):
    id: str
    source: str
    target: str
    trigger: Trigger | None = None
    guard: Expr | None = None
    prob: Expr | None = None
    action: Action | None = None
    pos: Pos = field(default=(0, 0), compare=False)


class Machine(Record):
    name: str
    variables: list[VarDecl] = field(default_factory=list)
    events: list[EventDecl] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)
    initial: str = ""
    junctions: list[str] = field(default_factory=list)
    states: list[StateNode] = field(default_factory=list)
    transitions: list[Transition] = field(default_factory=list)
    pos: Pos = field(default=(0, 0), compare=False)

    def node_names(self) -> set[str]:
        return {self.initial, *self.junctions, *(s.name for s in self.states)}

    def state(self, name: str) -> StateNode | None:
        for s in self.states:
            if s.name == name:
                return s
        return None


class Connection(Record):
    src_node: str
    src_event: str
    dst_node: str
    dst_event: str
    is_async: bool = False
    pos: Pos = field(default=(0, 0), compare=False)

    def __str__(self):
        return f"{self.src_node}.{self.src_event} -> {self.dst_node}.{self.dst_event}"


class Platform(Record):
    name: str
    constants: list[ConstDecl] = field(default_factory=list)
    variables: list[VarDecl] = field(default_factory=list)
    events: list[EventDecl] = field(default_factory=list)
    operations: list[OperationDecl] = field(default_factory=list)
    pos: Pos = field(default=(0, 0), compare=False)


class Controller(Record):
    name: str
    requires: str | None = None
    events: list[EventDecl] = field(default_factory=list)
    machines: list[Machine] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)
    pos: Pos = field(default=(0, 0), compare=False)


class EnumDecl(Record):
    name: str
    literals: tuple[str, ...]
    pos: Pos = field(default=(0, 0), compare=False)


class ModelAst(Record):
    name: str
    platforms: list[Platform] = field(default_factory=list)
    controllers: list[Controller] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)
    enums: list[EnumDecl] = field(default_factory=list)
    pos: Pos = field(default=(0, 0), compare=False)

    def platform(self, name: str) -> Platform | None:
        for p in self.platforms:
            if p.name == name:
                return p
        return None

    def controller(self, name: str) -> Controller | None:
        for c in self.controllers:
            if c.name == name:
                return c
        return None

    def enum(self, name: str) -> EnumDecl | None:
        for e in self.enums:
            if e.name == name:
                return e
        return None

    def machines(self):
        for c in self.controllers:
            for m in c.machines:
                yield c, m


# --- parser ------------------------------------------------------------------


class ModelParser:
    def __init__(self, text: str):
        self.ts = TokenStream(text)
        self.expr = ExprParser(self.ts, spec_mode=False)

    def parse(self) -> ModelAst:
        tok = self.ts.expect_keyword("module")
        name = self.ts.expect_name("module name").text
        module = ModelAst(name, pos=(tok.line, tok.col))
        self.ts.expect("{")
        while not self.ts.at("}"):
            if self.ts.at_name("platform"):
                module.platforms.append(self._platform())
            elif self.ts.at_name("controller"):
                module.controllers.append(self._controller())
            elif self.ts.at_name("connection"):
                module.connections.append(self._connection())
            elif self.ts.at_name("enum"):
                module.enums.append(self._enum())
            else:
                raise self.ts.error(
                    f"expected platform/controller/connection/enum, found {self.ts.current.text!r}"
                )
        self.ts.expect("}")
        if not self.ts.at_eof():
            raise self.ts.error("exactly one top-level module per file")
        _check_model(module)
        return module

    def _type(self) -> TypeRef:
        tok = self.ts.expect_name("type")
        name = tok.text
        while self.ts.at("::"):  # qualified forms like core::int collapse to the tail
            self.ts.advance()
            name = self.ts.expect_name("type").text
        return TypeRef(name, (tok.line, tok.col))

    def _platform(self) -> Platform:
        tok = self.ts.advance()
        p = Platform(self.ts.expect_name("platform name").text, pos=(tok.line, tok.col))
        self.ts.expect("{")
        while not self.ts.at("}"):
            if self.ts.at_name("const"):
                p.constants.append(self._const())
            elif self.ts.at_name("var"):
                p.variables.append(self._var())
            elif self.ts.at_name("event"):
                p.events.append(self._event())
            elif self.ts.at_name("operation"):
                p.operations.append(self._operation())
            else:
                raise self.ts.error(f"expected const/var/event/operation, found {self.ts.current.text!r}")
        self.ts.expect("}")
        return p

    def _const(self) -> ConstDecl:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        self.ts.expect(":")
        typ = self._type()
        value = None
        if self.ts.accept("="):
            value = self.expr.parse()
        self.ts.expect(";")
        return ConstDecl(name, typ, value, (tok.line, tok.col))

    def _var(self) -> VarDecl:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        self.ts.expect(":")
        typ = self._type()
        self.ts.expect("=")
        init = self.expr.parse()
        self.ts.expect(";")
        return VarDecl(name, typ, init, (tok.line, tok.col))

    def _event(self) -> EventDecl:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        payload = None
        if self.ts.accept(":"):
            payload = self._type()
        self.ts.expect(";")
        return EventDecl(name, payload, (tok.line, tok.col))

    def _operation(self) -> OperationDecl:
        tok = self.ts.advance()
        name = self.ts.expect_name().text
        params = self._params()
        self.ts.expect(";")
        return OperationDecl(name, params, (tok.line, tok.col))

    def _params(self) -> tuple:
        self.ts.expect("(")
        params = []
        if not self.ts.at(")"):
            while True:
                pname = self.ts.expect_name("parameter name").text
                self.ts.expect(":")
                params.append((pname, self._type()))
                if not self.ts.accept(","):
                    break
        self.ts.expect(")")
        return tuple(params)

    def _controller(self) -> Controller:
        tok = self.ts.advance()
        c = Controller(self.ts.expect_name("controller name").text, pos=(tok.line, tok.col))
        self.ts.expect("{")
        while not self.ts.at("}"):
            if self.ts.at_name("requires"):
                self.ts.advance()
                c.requires = self.ts.expect_name("platform name").text
                self.ts.expect(";")
            elif self.ts.at_name("event"):
                c.events.append(self._event())
            elif self.ts.at_name("machine"):
                c.machines.append(self._machine())
            elif self.ts.at_name("connection"):
                c.connections.append(self._connection())
            else:
                raise self.ts.error(
                    f"expected requires/event/machine/connection, found {self.ts.current.text!r}"
                )
        self.ts.expect("}")
        return c

    def _machine(self) -> Machine:
        tok = self.ts.advance()
        m = Machine(self.ts.expect_name("machine name").text, pos=(tok.line, tok.col))
        self.ts.expect("{")
        while not self.ts.at("}"):
            if self.ts.at_name("var"):
                m.variables.append(self._var())
            elif self.ts.at_name("event"):
                m.events.append(self._event())
            elif self.ts.at_name("function"):
                t = self.ts.advance()
                name = self.ts.expect_name().text
                params = self._params()
                self.ts.expect(":")
                result = self._type()
                self.ts.expect(";")
                m.functions.append(FunctionDecl(name, params, result, (t.line, t.col)))
            elif self.ts.at_name("initial"):
                t = self.ts.advance()
                if m.initial:
                    raise ParseError("exactly one initial junction per machine", t.line, t.col)
                m.initial = self.ts.expect_name().text
                self.ts.expect(";")
            elif self.ts.at_name("pjunction"):
                self.ts.advance()
                m.junctions.append(self.ts.expect_name().text)
                self.ts.expect(";")
            elif self.ts.at_name("state"):
                m.states.append(self._state())
            elif self.ts.at_name("machine"):
                raise self.ts.error("nested machines are not supported (one region per machine)")
            elif self.ts.at_name("transition"):
                m.transitions.append(self._transition())
            else:
                raise self.ts.error(
                    f"expected var/event/function/initial/pjunction/state/transition, found {self.ts.current.text!r}"
                )
        self.ts.expect("}")
        if not m.initial:
            raise ParseError(f"machine {m.name} has no initial junction", tok.line, tok.col)
        return m

    def _state(self) -> StateNode:
        tok = self.ts.advance()
        node = StateNode(self.ts.expect_name("state name").text, pos=(tok.line, tok.col))
        while self.ts.at("{"):
            self.ts.advance()
            kind = self.ts.expect_name("'entry' or 'exit'")
            if kind.text == "entry":
                if node.entry is not None:
                    raise self.ts.error("duplicate entry action")
                node.entry = self._action()
            elif kind.text == "exit":
                if node.exit is not None:
                    raise self.ts.error("duplicate exit action")
                node.exit = self._action()
            else:
                raise self.ts.error(f"expected 'entry' or 'exit', found {kind.text!r}")
            self.ts.expect("}")
        self.ts.expect(";")
        return node

    def _transition(self) -> Transition:
        tok = self.ts.advance()
        tid = self.ts.expect_name("transition name").text
        self.ts.expect("{")
        self.ts.expect_keyword("from")
        source = self.ts.expect_name().text
        self.ts.expect_keyword("to")
        target = self.ts.expect_name().text
        trigger = guard = prob = action = None
        while not self.ts.at("}"):
            if self.ts.at_name("trigger"):
                t = self.ts.advance()
                ev = self.ts.expect_name("event name").text
                if self.ts.accept("?"):
                    var = self.ts.expect_name("input variable").text
                    trigger = Trigger(ev, "?", var=var, pos=(t.line, t.col))
                elif self.ts.accept("!"):
                    trigger = Trigger(ev, "!", value=self.expr.parse(), pos=(t.line, t.col))
                else:
                    trigger = Trigger(ev, "", pos=(t.line, t.col))
            elif self.ts.at_name("guard"):
                self.ts.advance()
                guard = self.expr.parse()
            elif self.ts.at_name("prob"):
                self.ts.advance()
                prob = self.expr.parse()
            elif self.ts.at_name("action"):
                self.ts.advance()
                action = self._action()
            else:
                raise self.ts.error(
                    f"expected trigger/guard/prob/action, found {self.ts.current.text!r}"
                )
        self.ts.expect("}")
        return Transition(tid, source, target, trigger, guard, prob, action, (tok.line, tok.col))

    def _action(self) -> Action:
        parts = [self._atomic_action()]
        while self.ts.accept(";"):
            parts.append(self._atomic_action())
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts), pos=parts[0].pos)

    def _atomic_action(self) -> Action:
        ts = self.ts
        tok = ts.current
        pos = (tok.line, tok.col)
        if ts.at_name("skip"):
            ts.advance()
            return Skip(pos=pos)
        if ts.at_name("if"):
            ts.advance()
            cond = self.expr.parse()
            ts.expect_keyword("then")
            then = self._action()
            ts.expect_keyword("else")
            orelse = self._action()
            ts.expect_keyword("end")
            return IfAction(cond, then, orelse, pos=pos)
        name = ts.expect_name("action").text
        if ts.accept("="):
            return Assign(name, self.expr.parse(), pos=pos)
        if ts.accept("!"):
            return Comm(name, "!", value=self.expr.parse(), pos=pos)
        if ts.accept("?"):
            return Comm(name, "?", var=ts.expect_name("input variable").text, pos=pos)
        if ts.at("("):
            ts.advance()
            args = []
            if not ts.at(")"):
                args.append(self.expr.parse())
                while ts.accept(","):
                    args.append(self.expr.parse())
            ts.expect(")")
            return OpCall(name, tuple(args), pos=pos)
        return Comm(name, "", pos=pos)

    def _connection(self) -> Connection:
        tok = self.ts.advance()
        src_node = self.ts.expect_name().text
        self.ts.expect(".")
        src_event = self.ts.expect_name().text
        self.ts.expect("->")
        dst_node = self.ts.expect_name().text
        self.ts.expect(".")
        dst_event = self.ts.expect_name().text
        is_async = False
        if self.ts.at_name("async"):
            self.ts.advance()
            is_async = True
        self.ts.expect(";")
        return Connection(src_node, src_event, dst_node, dst_event, is_async, (tok.line, tok.col))

    def _enum(self) -> EnumDecl:
        tok = self.ts.advance()
        name = self.ts.expect_name("enum name").text
        self.ts.expect("{")
        literals = [self.ts.expect_name().text]
        while self.ts.accept(","):
            literals.append(self.ts.expect_name().text)
        self.ts.expect("}")
        return EnumDecl(name, tuple(literals), (tok.line, tok.col))


def _dup_check(names, what, pos):
    seen = set()
    for n in names:
        if n in seen:
            raise ParseError(f"duplicate {what} {n!r}", pos[0], pos[1])
        seen.add(n)


def _check_model(module: ModelAst):
    """Structural invariants enforced straight after parsing.  What the ends
    of a connection name is checked at validation (`resolve.validate`),
    under the one scoping rule of `resolve.Resolver.endpoint`."""
    _dup_check(
        [p.name for p in module.platforms] + [c.name for c in module.controllers]
        + [e.name for e in module.enums],
        "name in module",
        module.pos,
    )
    for p in module.platforms:
        _dup_check(
            [d.name for d in p.constants] + [d.name for d in p.variables]
            + [d.name for d in p.events] + [d.name for d in p.operations],
            f"name in platform {p.name}",
            p.pos,
        )
    for c in module.controllers:
        _dup_check(
            [e.name for e in c.events] + [m.name for m in c.machines],
            f"name in controller {c.name}",
            c.pos,
        )
        if c.requires is not None and module.platform(c.requires) is None:
            raise ParseError(f"controller {c.name} requires unknown platform {c.requires!r}",
                             c.pos[0], c.pos[1])
        for m in c.machines:
            _check_machine(m)


def _check_machine(m: Machine):
    _dup_check(
        [v.name for v in m.variables] + [e.name for e in m.events]
        + [f.name for f in m.functions] + [m.initial] + m.junctions
        + [s.name for s in m.states] ,
        f"name in machine {m.name}",
        m.pos,
    )
    _dup_check([t.id for t in m.transitions], f"transition in machine {m.name}", m.pos)
    nodes = m.node_names()
    junctions = set(m.junctions)
    initial_out = []
    for t in m.transitions:
        if t.source not in nodes:
            raise ParseError(f"transition {t.id}: unknown source node {t.source!r}", *t.pos)
        if t.target not in nodes:
            raise ParseError(f"transition {t.id}: unknown target node {t.target!r}", *t.pos)
        if t.prob is not None and t.source not in junctions:
            raise ParseError(f"transition {t.id}: probability on non-probabilistic source", *t.pos)
        if t.prob is None and t.source in junctions:
            raise ParseError(f"transition {t.id}: missing probability on junction branch", *t.pos)
        if t.source in junctions and t.trigger is not None:
            raise ParseError(f"transition {t.id}: trigger on a probabilistic junction branch", *t.pos)
        if t.source in junctions and t.guard is not None:
            raise ParseError(f"transition {t.id}: guard on a probabilistic junction branch", *t.pos)
        if t.source == m.initial:
            initial_out.append(t)
            if t.guard is not None or t.trigger is not None:
                raise ParseError(
                    f"transition {t.id}: the initial junction transition must be unguarded and untriggered",
                    *t.pos,
                )
        if t.target == m.initial:
            raise ParseError(f"transition {t.id}: the initial junction cannot be a target", *t.pos)
    if len(initial_out) != 1:
        raise ParseError(
            f"machine {m.name}: the initial junction needs exactly one outgoing transition",
            *m.pos,
        )


def parse_model(text: str) -> ModelAst:
    """Parse `.rcm` text into a validated ModelAst."""
    return ModelParser(text).parse()


def loose_symbols(model: ModelAst):
    """Return (loose constants, loose functions, loose operations) by name."""
    consts = set()
    for p in model.platforms:
        for c in p.constants:
            if c.value is None:
                consts.add(c.name)
    functions = set()
    operations = set()
    for p in model.platforms:
        for op in p.operations:
            operations.add(op.name)
    for _, m in model.machines():
        for f in m.functions:
            functions.add(f.name)
    return consts, functions, operations


# --- pretty printer ----------------------------------------------------------

def pretty_expr(e: Expr, parent_prec: int = 0) -> str:
    from . import ast as A

    if isinstance(e, A.Lit):
        v = e.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, Fraction):  # a real, whole or not, prints with its point
            return _fraction_literal(v)
        return str(v)
    if isinstance(e, A.Ref):
        return str(e.name)
    if isinstance(e, A.Unary):
        if e.op == "not":
            inner = pretty_expr(e.operand, 6)
            return f"not {inner}"
        return "-" + pretty_expr(e.operand, 10)
    if isinstance(e, A.Binary):
        prec = BINARY_PREC[e.op]
        op = "iff" if e.op == "iff" else e.op
        left_prec = prec + 1 if prec == 7 else prec  # relationals do not chain
        s = f"{pretty_expr(e.left, left_prec)} {op} {pretty_expr(e.right, prec + 1)}"
        return f"({s})" if prec < parent_prec else s
    if isinstance(e, A.Cond):
        s = (f"if {pretty_expr(e.cond)} then {pretty_expr(e.then)} "
             f"else {pretty_expr(e.orelse)} end")
        return f"({s})" if parent_prec > 0 else s
    if isinstance(e, A.FunCall):
        args = ", ".join(pretty_expr(a) for a in e.args)
        return f"{e.name}({args})"
    raise TypeError(f"cannot pretty-print model expression node {type(e).__name__}")


def _fraction_literal(v: Fraction) -> str:
    # Decimal literal when the denominator divides a power of ten, else a quotient.
    den = v.denominator
    k = 0
    while den % 2 == 0:
        den //= 2
        k += 1
    while den % 5 == 0:
        den //= 5
        k += 1
    if den == 1:
        scaled = v * 10 ** max(k, 1)
        digits = str(abs(scaled.numerator)).rjust(max(k, 1) + 1, "0")
        head, tail = digits[: len(digits) - max(k, 1)], digits[len(digits) - max(k, 1):]
        sign = "-" if v < 0 else ""
        return f"{sign}{head}.{tail}"
    return f"({v.numerator} / {v.denominator})"


def pretty_action(a: Action) -> str:
    if isinstance(a, Skip):
        return "skip"
    if isinstance(a, Assign):
        return f"{a.target} = {pretty_expr(a.expr)}"
    if isinstance(a, Comm):
        if a.op == "!":
            return f"{a.event} ! {pretty_expr(a.value)}"
        if a.op == "?":
            return f"{a.event} ? {a.var}"
        return a.event
    if isinstance(a, OpCall):
        return f"{a.name}({', '.join(pretty_expr(x) for x in a.args)})"
    if isinstance(a, Seq):
        return "; ".join(pretty_action(p) for p in a.parts)
    if isinstance(a, IfAction):
        return (f"if {pretty_expr(a.cond)} then {pretty_action(a.then)} "
                f"else {pretty_action(a.orelse)} end")
    raise TypeError(type(a).__name__)


def pretty_model(m: ModelAst) -> str:
    out = [f"module {m.name} {{"]
    for p in m.platforms:
        out.append(f"  platform {p.name} {{")
        for c in p.constants:
            v = f" = {pretty_expr(c.value)}" if c.value is not None else ""
            out.append(f"    const {c.name} : {c.type}{v};")
        for v in p.variables:
            out.append(f"    var {v.name} : {v.type} = {pretty_expr(v.init)};")
        for e in p.events:
            t = f" : {e.payload}" if e.payload else ""
            out.append(f"    event {e.name}{t};")
        for o in p.operations:
            ps = ", ".join(f"{n} : {t}" for n, t in o.params)
            out.append(f"    operation {o.name}({ps});")
        out.append("  }")
    for c in m.controllers:
        out.append(f"  controller {c.name} {{")
        if c.requires:
            out.append(f"    requires {c.requires};")
        for e in c.events:
            t = f" : {e.payload}" if e.payload else ""
            out.append(f"    event {e.name}{t};")
        for mach in c.machines:
            out.append(f"    machine {mach.name} {{")
            for v in mach.variables:
                out.append(f"      var {v.name} : {v.type} = {pretty_expr(v.init)};")
            for e in mach.events:
                t = f" : {e.payload}" if e.payload else ""
                out.append(f"      event {e.name}{t};")
            for f in mach.functions:
                ps = ", ".join(f"{n} : {t}" for n, t in f.params)
                out.append(f"      function {f.name}({ps}) : {f.result};")
            out.append(f"      initial {mach.initial};")
            for j in mach.junctions:
                out.append(f"      pjunction {j};")
            for s in mach.states:
                parts = [f"state {s.name}"]
                if s.entry is not None:
                    parts.append(f"{{ entry {pretty_action(s.entry)} }}")
                if s.exit is not None:
                    parts.append(f"{{ exit {pretty_action(s.exit)} }}")
                out.append("      " + " ".join(parts) + ";")
            for t in mach.transitions:
                bits = [f"from {t.source} to {t.target}"]
                if t.trigger is not None:
                    tr = t.trigger
                    if tr.op == "?":
                        bits.append(f"trigger {tr.event} ? {tr.var}")
                    elif tr.op == "!":
                        bits.append(f"trigger {tr.event} ! {pretty_expr(tr.value)}")
                    else:
                        bits.append(f"trigger {tr.event}")
                if t.guard is not None:
                    bits.append(f"guard {pretty_expr(t.guard)}")
                if t.prob is not None:
                    bits.append(f"prob {pretty_expr(t.prob)}")
                if t.action is not None:
                    bits.append(f"action {pretty_action(t.action)}")
                out.append(f"      transition {t.id} {{ " + " ".join(bits) + " }")
            out.append("    }")
        for conn in c.connections:
            out.append(f"    connection {conn}{' async' if conn.is_async else ''};")
        out.append("  }")
    for conn in m.connections:
        out.append(f"  connection {conn}{' async' if conn.is_async else ''};")
    for e in m.enums:
        out.append(f"  enum {e.name} {{ {', '.join(e.literals)} }}")
    out.append("}")
    return "\n".join(out) + "\n"
