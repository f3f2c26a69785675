"""Expression and formula AST nodes shared by the model and property languages."""

from __future__ import annotations

from .record import Record, field

Pos = tuple[int, int]


class QName(Record, frozen=True):
    """Qualified name with `::`-separated segments, unresolved at parse time."""

    segments: tuple[str, ...]
    pos: Pos = field(default=(0, 0), compare=False)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("qualified name needs at least one segment")

    def __str__(self):
        return "::".join(self.segments)


class EventRef(Record, frozen=True):
    """An event endpoint with an explicit direction (`name.in` / `name.out`)."""

    name: QName
    direction: str  # "in" | "out"
    valued: bool = False  # True when written with a `.val` suffix

    def __str__(self):
        s = f"{self.name}.{self.direction}"
        return s + ".val" if self.valued else s


class Bound(Record, frozen=True):
    op: str  # > >= < <=
    expr: "Expr"


# Queries are plain strings: "=?", "min=?", "max=?".
QUERY_PLAIN = "=?"
QUERY_MIN = "min=?"
QUERY_MAX = "max=?"


class Expr(Record):
    pos: Pos = field(default=(0, 0), kw_only=True, compare=False)


class Lit(Expr):
    value: object = None  # bool | int | Fraction


class Ref(Expr):
    name: QName = None


class Unary(Expr):
    op: str = ""  # "not" | "neg"
    operand: Expr = None


class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


# Binding strength of the binary operators, for the printers of both
# languages and of PRISM.
BINARY_PREC = {
    "iff": 1, "=>": 2,
    "\\/": 4, "/\\": 5,
    "==": 7, "!=": 7, "<": 7, "<=": 7, ">": 7, ">=": 7,
    "+": 8, "-": 8, "*": 9, "/": 9, "%": 9,
}


class Cond(Expr):
    cond: Expr = None
    then: Expr = None
    orelse: Expr = None


class SetExt(Expr):
    items: tuple[Expr, ...] = ()


class SetRange(Expr):
    lo: Expr = None
    hi: Expr = None
    step: Expr | None = None


class IsIn(Expr):
    container: QName = None
    state: QName = None


class ModVarRef(Expr):
    """`@v` or `@Group::Module::v` reference to an environment-module variable."""

    group: str | None = None
    module: str | None = None
    var: str = ""


class LabelRef(Expr):
    name: str = ""


class DeadlockRef(Expr):
    pass


class InitRef(Expr):
    pass


class FormulaRef(Expr):
    name: str = ""


class ParamRef(Expr):
    name: str = ""


class FunCall(Expr):
    name: str = ""
    args: tuple[Expr, ...] = ()


class EventVal(Expr):
    event: EventRef = None


class Index(Expr):
    """Array indexing; parsed for completeness, rejected by validation."""

    base: Expr = None
    indexes: tuple[Expr, ...] = ()


# --- state formulas ---------------------------------------------------------


class ProbFormula(Expr):
    bound: Bound | None = None
    query: str | None = None
    path: Expr = None
    method: "SimMethodSpec | None" = None


class RewardFormula(Expr):
    rewards: str | None = None
    bound: Bound | None = None
    query: str | None = None
    path: Expr = None  # a reward-path node
    method: "SimMethodSpec | None" = None


class Forall(Expr):
    path: Expr = None


class Exists(Expr):
    path: Expr = None


# --- path formulas ----------------------------------------------------------


class Next(Expr):
    operand: Expr = None


class Finally_(Expr):
    bound: Bound | None = None
    operand: Expr = None


class Globally(Expr):
    bound: Bound | None = None
    operand: Expr = None


class Until(Expr):
    left: Expr = None
    bound: Bound | None = None
    right: Expr = None


class WeakUntil(Expr):
    left: Expr = None
    bound: Bound | None = None
    right: Expr = None


class Release(Expr):
    left: Expr = None
    bound: Bound | None = None
    right: Expr = None


# --- reward path formulas ---------------------------------------------------


class Reachable(Expr):
    operand: Expr = None


class LTLReward(Expr):
    operand: Expr = None


class Cumul(Expr):
    operand: Expr = None


class TotalReward(Expr):
    pass


PATH_NODES = (Next, Finally_, Globally, Until, WeakUntil, Release)
REWARD_PATH_NODES = (Reachable, LTLReward, Cumul, TotalReward)


class SimMethodSpec(Record):
    """A statistical checking method with its parameters."""

    method: str = "CI"  # CI | ACI | APMC | SPRT
    params: dict = field(default_factory=dict)  # name -> Expr
    pathlen: Expr | None = None
    pos: Pos = field(default=(0, 0), compare=False)


_METHOD_PARAMS = {
    "CI": {"w", "alpha", "n"},
    "ACI": {"w", "alpha", "n"},
    "APMC": {"epsilon", "delta", "n"},
    "SPRT": {"alpha", "delta"},
}


def allowed_sim_params(method: str) -> set[str]:
    return set(_METHOD_PARAMS[method])


def walk(expr: Expr, stop: tuple = ()):
    """Yield expr and every sub-expression, pre-order, the parameters and
    path length of a simulation method included, but none below a node of
    the types in `stop`."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if node is None or not isinstance(node, Expr):
            continue
        yield node
        if not isinstance(node, stop):
            stack.extend(subexpressions(node))


def subexpressions(node: Expr) -> list[Expr]:
    """The sub-expressions of a node, in source order, the parameters and
    path length of a simulation method included."""
    children = []
    if isinstance(node, Unary):
        children = [node.operand]
    elif isinstance(node, Binary):
        children = [node.left, node.right]
    elif isinstance(node, Cond):
        children = [node.cond, node.then, node.orelse]
    elif isinstance(node, SetExt):
        children = list(node.items)
    elif isinstance(node, SetRange):
        children = [node.lo, node.hi, node.step]
    elif isinstance(node, FunCall):
        children = list(node.args)
    elif isinstance(node, Index):
        children = [node.base, *node.indexes]
    elif isinstance(node, (ProbFormula, RewardFormula)):
        children = [node.path]
        if node.bound:
            children.append(node.bound.expr)
        if node.method is not None:
            children.extend([*node.method.params.values(), node.method.pathlen])
    elif isinstance(node, (Forall, Exists)):
        children = [node.path]
    elif isinstance(node, (Next, Reachable, LTLReward, Cumul)):
        children = [node.operand]
    elif isinstance(node, (Finally_, Globally)):
        children = [node.operand]
        if node.bound:
            children.append(node.bound.expr)
    elif isinstance(node, (Until, WeakUntil, Release)):
        children = [node.left, node.right]
        if node.bound:
            children.append(node.bound.expr)
    return [c for c in children if c is not None]
