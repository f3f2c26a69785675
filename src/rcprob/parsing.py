"""Recursive-descent expression parser shared by the model and property languages.

Precedence, loosest first:

    iff  <  =>  <  temporal (Next/Finally/Globally/Until/Weak Until/Release)
         <  \\/  <  /\\  <  not  <  relational / is in  <  + -  <  * / %
         <  unary -  <  indexing  <  primary

Temporal operators bind looser than the boolean connectives, so
``Finally a /\\ b`` is ``Finally (a /\\ b)``, while ``=>`` binds looser still,
so ``Globally Finally a => Globally Finally b`` is an implication between two
path formulas.  Temporal operators are only legal inside the ``[...]`` of a
Prob/Reward/Forall/Exists formula.
"""

from __future__ import annotations

from . import ast
from .ast import (
    Bound,
    Cond,
    DeadlockRef,
    EventRef,
    EventVal,
    Exists,
    Expr,
    Finally_,
    Forall,
    FormulaRef,
    FunCall,
    Globally,
    Index,
    InitRef,
    IsIn,
    LabelRef,
    Lit,
    ModVarRef,
    Next,
    ParamRef,
    ProbFormula,
    QName,
    Ref,
    Release,
    RewardFormula,
    Reachable,
    LTLReward,
    Cumul,
    TotalReward,
    SetExt,
    SetRange,
    SimMethodSpec,
    Unary,
    Until,
    WeakUntil,
    Binary,
)
from .lexer import NAME, NUMBER, OP, ParseError, TokenStream

_REL_OPS = ("==", "!=", "<", "<=", ">", ">=")
_BOUND_OPS = ("<", "<=", ">", ">=")
_TEMPORAL_HEADS = ("Next", "Finally", "Globally")
_STATE_FORMULA_HEADS = ("Prob", "Reward", "Forall", "Exists")
# Deeper input is a ParseError, so that neither the parser nor an engine that
# recurses on the tree runs out of stack.  The parser's own recursion opens a
# level at each bracket, call argument, `if` part, prefix operator, `=>` and
# temporal operator: at most MAX_NESTING.  The tree it builds has at most
# MAX_HEIGHT levels of nodes: a chain of binary operators, which the parser
# reads in a loop, is as high as it is long, and the engines recurse on it.
# Under `rcprob check` they gave out at chains of about 490 operators.
MAX_NESTING = 50
MAX_HEIGHT = 250
# A label or formula reference stands for the tree it names, and the engines
# recurse on the expanded tree, where a reference counts one level:
# `resolve.validate` bounds its height by MAX_EXPANDED_HEIGHT.  That leaves a
# tree at MAX_HEIGHT room to reference labels up to 49 levels high, and keeps
# well below the engines' limit: they ran expanded trees of 453 levels and
# gave out at about 490.
MAX_EXPANDED_HEIGHT = 300
_TOO_DEEP = f"expression nested deeper than {MAX_NESTING} levels"
_TOO_HIGH = f"expression more than {MAX_HEIGHT} operators deep"


def _too_high(root: Expr) -> bool:
    """Whether a node of the tree lies more than `MAX_HEIGHT` levels below
    its root."""
    stack = [(root, 0)]
    while stack:
        node, level = stack.pop()
        if level > MAX_HEIGHT:
            return True
        stack.extend((x, level + 1) for x in ast.subexpressions(node))
    return False


class ExprParser:
    """Parses expressions from a token stream.

    `spec_mode` enables the property-language constructs (labels, formula and
    parameter references, module variables, `&` calls, temporal and state
    formulas, sets, `is in`).  With it off, only the model expression subset
    is accepted and calls are written without `&`.
    """

    def __init__(self, ts: TokenStream, spec_mode: bool = True):
        self.ts = ts
        self.spec_mode = spec_mode
        self.formula_depth = 0
        self.depth = 0  # levels open around the current token

    # --- entry points --------------------------------------------------

    def parse(self) -> Expr:
        return self._nested(self._iff)

    def _nested(self, rule) -> Expr:
        """Parse by `rule` one level deeper, opened by the last token; the
        outermost level also checks the height of the tree, and refuses one
        too high at its first token."""
        if self.depth > MAX_NESTING:
            opener = self.ts.peek(-1)
            raise ParseError(_TOO_DEEP, opener.line, opener.col)
        first = self.ts.current
        self.depth += 1
        expr = rule()
        self.depth -= 1
        if not self.depth and _too_high(expr):
            raise ParseError(_TOO_HIGH, first.line, first.col)
        return expr

    def parse_qname(self) -> QName:
        tok = self.ts.expect_name()
        segments = [tok.text]
        while self.ts.at("::"):
            self.ts.advance()
            segments.append(self.ts.expect_name().text)
        return QName(tuple(segments), (tok.line, tok.col))

    def parse_event_ref(self) -> EventRef:
        qn = self.parse_qname()
        self.ts.expect(".")
        dir_tok = self.ts.expect_name("'in' or 'out'")
        if dir_tok.text not in ("in", "out"):
            raise self.ts.error(f"expected event direction 'in' or 'out', found {dir_tok.text!r}")
        valued = False
        if self.ts.at(".") and self.ts.peek().text == "val":
            self.ts.advance()
            self.ts.advance()
            valued = True
        return EventRef(qn, dir_tok.text, valued)

    def parse_sim_method(self) -> SimMethodSpec:
        pos_tok = self.ts.expect_keyword("using")
        self.ts.expect_keyword("sim")
        self.ts.expect_keyword("with")
        method_tok = self.ts.expect_name("simulation method")
        method = method_tok.text
        if method not in ("CI", "ACI", "APMC", "SPRT"):
            raise self.ts.error(f"unknown simulation method {method!r}")
        spec = SimMethodSpec(method=method, pos=(pos_tok.line, pos_tok.col))
        allowed = ast.allowed_sim_params(method) | {"pathlen"}
        if self.ts.at_name("at"):
            self.ts.advance()
            while True:
                self.ts.accept(",")
                if self.ts.at_name("and"):
                    self.ts.advance()
                if not (self.ts.current.kind == NAME and self.ts.peek().text == "="):
                    break
                name_tok = self.ts.advance()
                self.ts.expect("=")
                value = self._nested(self._additive)
                pname = name_tok.text
                if pname not in allowed:
                    raise self.ts.error(
                        f"parameter {pname!r} is not valid for method {method}"
                    )
                store = spec.params if pname != "pathlen" else None
                if pname == "pathlen":
                    if spec.pathlen is not None:
                        raise self.ts.error("duplicate pathlen")
                    spec.pathlen = value
                else:
                    if pname in spec.params:
                        raise self.ts.error(f"duplicate parameter {pname!r}")
                    store[pname] = value
        return spec

    # --- precedence ladder ----------------------------------------------

    def _iff(self) -> Expr:
        left = self._implies()
        while self.spec_mode and self.ts.at_name("iff"):
            tok = self.ts.advance()
            right = self._implies()
            left = Binary("iff", left, right, pos=(tok.line, tok.col))
        return left

    def _implies(self) -> Expr:
        left = self._temporal()
        if self.spec_mode and self.ts.at("=>"):
            tok = self.ts.advance()
            right = self._nested(self._implies)
            return Binary("=>", left, right, pos=(tok.line, tok.col))
        return left

    def _temporal(self) -> Expr:
        if self.spec_mode and self.ts.current.kind == NAME:
            word = self.ts.current.text
            if word in _TEMPORAL_HEADS:
                tok = self.ts.advance()
                self._require_formula_ctx(word, tok)
                if word == "Next":
                    if self.ts.current.text in _BOUND_OPS:
                        raise self.ts.error("bounded Next is not supported")
                    return Next(self._nested(self._temporal), pos=(tok.line, tok.col))
                bound = self._maybe_bound()
                operand = self._nested(self._temporal)
                cls = Finally_ if word == "Finally" else Globally
                return cls(bound, operand, pos=(tok.line, tok.col))
        left = self._or()
        if self.spec_mode and self.ts.current.kind == NAME:
            word = self.ts.current.text
            if word == "Until" or (word == "Weak" and self.ts.peek().text == "Until") or word == "Release":
                tok = self.ts.advance()
                if word == "Weak":
                    self.ts.advance()
                self._require_formula_ctx(word, tok)
                bound = self._maybe_bound()
                right = self._nested(self._temporal)
                cls = {"Until": Until, "Weak": WeakUntil, "Release": Release}[word]
                return cls(left, bound, right, pos=(tok.line, tok.col))
        return left

    def _require_formula_ctx(self, word, tok):
        if self.formula_depth == 0:
            raise self.ts.error(
                f"temporal operator {word!r} outside a formula bracket"
            )

    def _maybe_bound(self) -> Bound | None:
        if self.ts.current.text in _BOUND_OPS and self.ts.current.kind == OP:
            op = self.ts.advance().text
            return Bound(op, self._unary())
        return None

    def _or(self) -> Expr:
        left = self._and()
        while self.ts.at("\\/"):
            tok = self.ts.advance()
            left = Binary("\\/", left, self._and(), pos=(tok.line, tok.col))
        return left

    def _and(self) -> Expr:
        left = self._not()
        while self.ts.at("/\\"):
            tok = self.ts.advance()
            left = Binary("/\\", left, self._not(), pos=(tok.line, tok.col))
        return left

    def _not(self) -> Expr:
        if self.ts.at_name("not"):
            tok = self.ts.advance()
            return Unary("not", self._nested(self._not), pos=(tok.line, tok.col))
        return self._relational()

    def _relational(self) -> Expr:
        left = self._additive()
        if self.spec_mode and self.ts.at_name("is") and self.ts.peek().text == "in":
            tok = self.ts.advance()
            self.ts.advance()
            right = self._additive()
            if not isinstance(left, Ref) or not isinstance(right, Ref):
                raise self.ts.error("'is in' expects qualified names on both sides")
            return IsIn(left.name, right.name, pos=(tok.line, tok.col))
        if self.ts.current.kind == OP and self.ts.current.text in _REL_OPS:
            tok = self.ts.advance()
            right = self._additive()
            return Binary(tok.text, left, right, pos=(tok.line, tok.col))
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while self.ts.current.kind == OP and self.ts.current.text in ("+", "-"):
            tok = self.ts.advance()
            left = Binary(tok.text, left, self._multiplicative(), pos=(tok.line, tok.col))
        return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while self.ts.current.kind == OP and self.ts.current.text in ("*", "/", "%"):
            tok = self.ts.advance()
            left = Binary(tok.text, left, self._unary(), pos=(tok.line, tok.col))
        return left

    def _unary(self) -> Expr:
        if self.ts.at("-"):
            tok = self.ts.advance()
            return Unary("neg", self._nested(self._unary), pos=(tok.line, tok.col))
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._primary()
        while self.spec_mode and self.ts.at("["):
            tok = self.ts.advance()
            indexes = [self.parse()]
            while self.ts.accept(","):
                indexes.append(self.parse())
            self.ts.expect("]")
            expr = Index(expr, tuple(indexes), pos=(tok.line, tok.col))
        return expr

    # --- primaries -------------------------------------------------------

    def _primary(self) -> Expr:
        ts = self.ts
        tok = ts.current
        pos = (tok.line, tok.col)
        if tok.kind == NUMBER:
            ts.advance()
            return Lit(tok.value, pos=pos)
        if tok.kind == OP:
            if tok.text == "(":
                ts.advance()
                inner = self.parse()
                ts.expect(")")
                return inner
            if self.spec_mode and tok.text == "{":
                return self._set_expr()
            if self.spec_mode and tok.text == "#":
                ts.advance()
                return LabelRef(ts.expect_name("label name").text, pos=pos)
            if self.spec_mode and tok.text == "``":
                ts.advance()
                return ParamRef(ts.expect_name("parameter name").text, pos=pos)
            if self.spec_mode and tok.text == "`":
                ts.advance()
                return FormulaRef(ts.expect_name("formula name").text, pos=pos)
            if self.spec_mode and tok.text == "@":
                return self._module_var(pos)
            if self.spec_mode and tok.text == "&":
                ts.advance()
                name = ts.expect_name("function name").text
                ts.expect("(")
                args = [self.parse()]
                while ts.accept(","):
                    args.append(self.parse())
                ts.expect(")")
                return FunCall(name, tuple(args), pos=pos)
        if tok.kind == NAME:
            word = tok.text
            if word == "true":
                ts.advance()
                return Lit(True, pos=pos)
            if word == "false":
                ts.advance()
                return Lit(False, pos=pos)
            if word == "if":
                return self._conditional(pos)
            if self.spec_mode:
                if word == "deadlock":
                    ts.advance()
                    return DeadlockRef(pos=pos)
                if word == "init":
                    ts.advance()
                    return InitRef(pos=pos)
                if word in _STATE_FORMULA_HEADS:
                    return self._state_formula(word)
                if word in ("Reachable", "LTL", "Cumul", "Total"):
                    return self._reward_path(word)
            if not self.spec_mode and ts.peek().text == "(" and ts.peek().kind == OP:
                ts.advance()
                ts.expect("(")
                args = [self.parse()]
                while ts.accept(","):
                    args.append(self.parse())
                ts.expect(")")
                return FunCall(word, tuple(args), pos=pos)
            qn = self.parse_qname()
            if self.spec_mode and ts.at(".") and ts.peek().text in ("in", "out"):
                ts.advance()
                direction = ts.advance().text
                ts.expect(".")
                val_tok = ts.expect_name("'val'")
                if val_tok.text != "val":
                    raise ts.error("an event reference in an expression needs a '.val' suffix")
                return EventVal(EventRef(qn, direction, True), pos=pos)
            return Ref(qn, pos=pos)
        raise ts.error(f"unexpected token {tok.text!r} in expression")

    def _conditional(self, pos) -> Expr:
        self.ts.advance()
        cond = self.parse()
        self.ts.expect_keyword("then")
        then = self.parse()
        self.ts.expect_keyword("else")
        orelse = self.parse()
        self.ts.expect_keyword("end")
        return Cond(cond, then, orelse, pos=pos)

    def _set_expr(self) -> Expr:
        tok = self.ts.expect("{")
        pos = (tok.line, tok.col)
        first = self.parse()
        if self.ts.at_name("to"):
            self.ts.advance()
            hi = self.parse()
            step = None
            if self.ts.at_name("by"):
                self.ts.advance()
                self.ts.expect_keyword("step")
                step = self.parse()
            self.ts.expect("}")
            return SetRange(first, hi, step, pos=pos)
        items = [first]
        while self.ts.accept(","):
            items.append(self.parse())
        self.ts.expect("}")
        return SetExt(tuple(items), pos=pos)

    def _module_var(self, pos) -> Expr:
        self.ts.advance()
        first = self.ts.expect_name("module variable").text
        if self.ts.at("::"):
            self.ts.advance()
            second = self.ts.expect_name().text
            self.ts.expect("::")
            third = self.ts.expect_name().text
            return ModVarRef(first, second, third, pos=pos)
        return ModVarRef(None, None, first, pos=pos)

    def _bound_or_query(self) -> tuple[Bound | None, str | None]:
        ts = self.ts
        if ts.current.text in ("=?", "?="):
            ts.advance()
            return None, ast.QUERY_PLAIN
        if ts.at_name("min") or ts.at_name("max"):
            kind = ts.advance().text
            if ts.current.text not in ("=?", "?="):
                raise ts.error(f"expected '=?' after {kind!r}")
            ts.advance()
            return None, (ast.QUERY_MIN if kind == "min" else ast.QUERY_MAX)
        if ts.current.kind == OP and ts.current.text in _BOUND_OPS:
            op = ts.advance().text
            return Bound(op, self._additive()), None
        raise ts.error("expected a probability bound or query")

    def _state_formula(self, word: str) -> Expr:
        ts = self.ts
        tok = ts.advance()
        pos = (tok.line, tok.col)
        if word in ("Forall", "Exists"):
            ts.expect("[")
            self.formula_depth += 1
            body = self.parse()
            self.formula_depth -= 1
            ts.expect("]")
            cls = Forall if word == "Forall" else Exists
            return cls(body, pos=pos)
        if word == "Prob":
            bound, query = self._bound_or_query()
            ts.expect_keyword("of")
            ts.expect("[")
            self.formula_depth += 1
            body = self.parse()
            self.formula_depth -= 1
            ts.expect("]")
            method = self.parse_sim_method() if ts.at_name("using") else None
            return ProbFormula(bound, query, body, method, pos=pos)
        # Reward
        rname = None
        if ts.accept("{"):
            rname = ts.expect_name("rewards name").text
            ts.expect("}")
        bound, query = self._bound_or_query()
        ts.expect_keyword("of")
        ts.expect("[")
        self.formula_depth += 1
        body = self.parse()
        self.formula_depth -= 1
        ts.expect("]")
        method = self.parse_sim_method() if ts.at_name("using") else None
        return RewardFormula(rname, bound, query, body, method, pos=pos)

    def _reward_path(self, word: str) -> Expr:
        tok = self.ts.advance()
        pos = (tok.line, tok.col)
        self._require_formula_ctx(word, tok)
        if word == "Total":
            return TotalReward(pos=pos)
        self.formula_depth += 1 if word == "LTL" else 0
        operand = self.parse()
        self.formula_depth -= 1 if word == "LTL" else 0
        cls = {"Reachable": Reachable, "LTL": LTLReward, "Cumul": Cumul}[word]
        return cls(operand, pos=pos)
