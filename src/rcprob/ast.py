"""Expression and formula AST nodes shared by the model and property languages."""

from __future__ import annotations

from dataclasses import dataclass, field

Pos = tuple[int, int]


@dataclass(frozen=True)
class QName:
    """Qualified name with `::`-separated segments, unresolved at parse time."""

    segments: tuple[str, ...]
    pos: Pos = field(default=(0, 0), compare=False)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("qualified name needs at least one segment")

    def __str__(self):
        return "::".join(self.segments)


@dataclass(frozen=True)
class EventRef:
    """An event endpoint with an explicit direction (`name.in` / `name.out`)."""

    name: QName
    direction: str  # "in" | "out"
    valued: bool = False  # True when written with a `.val` suffix

    def __str__(self):
        s = f"{self.name}.{self.direction}"
        return s + ".val" if self.valued else s


@dataclass(frozen=True)
class Bound:
    op: str  # > >= < <=
    expr: "Expr"


# Queries are plain strings: "=?", "min=?", "max=?".
QUERY_PLAIN = "=?"
QUERY_MIN = "min=?"
QUERY_MAX = "max=?"


@dataclass
class Expr:
    pos: Pos = field(default=(0, 0), kw_only=True, compare=False)


@dataclass
class Lit(Expr):
    value: object = None  # bool | int | Fraction


@dataclass
class Ref(Expr):
    name: QName = None


@dataclass
class Unary(Expr):
    op: str = ""  # "not" | "neg"
    operand: Expr = None


@dataclass
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


@dataclass
class Cond(Expr):
    cond: Expr = None
    then: Expr = None
    orelse: Expr = None


@dataclass
class SetExt(Expr):
    items: tuple[Expr, ...] = ()


@dataclass
class SetRange(Expr):
    lo: Expr = None
    hi: Expr = None
    step: Expr | None = None


@dataclass
class IsIn(Expr):
    container: QName = None
    state: QName = None


@dataclass
class ModVarRef(Expr):
    """`@v` or `@Group::Module::v` reference to an environment-module variable."""

    group: str | None = None
    module: str | None = None
    var: str = ""


@dataclass
class LabelRef(Expr):
    name: str = ""


@dataclass
class DeadlockRef(Expr):
    pass


@dataclass
class InitRef(Expr):
    pass


@dataclass
class FormulaRef(Expr):
    name: str = ""


@dataclass
class ParamRef(Expr):
    name: str = ""


@dataclass
class FunCall(Expr):
    name: str = ""
    args: tuple[Expr, ...] = ()


@dataclass
class EventVal(Expr):
    event: EventRef = None


@dataclass
class Index(Expr):
    """Array indexing; parsed for completeness, rejected by validation."""

    base: Expr = None
    indexes: tuple[Expr, ...] = ()


# --- state formulas ---------------------------------------------------------


@dataclass
class ProbFormula(Expr):
    bound: Bound | None = None
    query: str | None = None
    path: Expr = None
    method: "SimMethodSpec | None" = None


@dataclass
class RewardFormula(Expr):
    rewards: str | None = None
    bound: Bound | None = None
    query: str | None = None
    path: Expr = None  # a reward-path node
    method: "SimMethodSpec | None" = None


@dataclass
class Forall(Expr):
    path: Expr = None


@dataclass
class Exists(Expr):
    path: Expr = None


# --- path formulas ----------------------------------------------------------


@dataclass
class Next(Expr):
    operand: Expr = None


@dataclass
class Finally_(Expr):
    bound: Bound | None = None
    operand: Expr = None


@dataclass
class Globally(Expr):
    bound: Bound | None = None
    operand: Expr = None


@dataclass
class Until(Expr):
    left: Expr = None
    bound: Bound | None = None
    right: Expr = None


@dataclass
class WeakUntil(Expr):
    left: Expr = None
    bound: Bound | None = None
    right: Expr = None


@dataclass
class Release(Expr):
    left: Expr = None
    bound: Bound | None = None
    right: Expr = None


# --- reward path formulas ---------------------------------------------------


@dataclass
class Reachable(Expr):
    operand: Expr = None


@dataclass
class LTLReward(Expr):
    operand: Expr = None


@dataclass
class Cumul(Expr):
    operand: Expr = None


@dataclass
class TotalReward(Expr):
    pass


PATH_NODES = (Next, Finally_, Globally, Until, WeakUntil, Release)
REWARD_PATH_NODES = (Reachable, LTLReward, Cumul, TotalReward)


@dataclass
class SimMethodSpec:
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
