"""Instantiation and explicit-state Markov model construction.

A machine transition unfolds into a chain of Markov micro-steps: an
initiation step that takes the per-machine lock, one step per atomic action
constituent (exit actions, then transition actions, then entry actions),
intermediate program-counter points between them, and a final step that
enters the target state and releases the lock.  Transitions without any
action collapse to a single step.  Probabilistic junctions branch at the
junction step with exact rational weights.  Multiple simultaneously enabled
steps become separate actions (mdp) or a uniform mixture (dtmc).  Each
machine compiles these micro-steps once into a step table (`Step`,
`MachineRT.compile_steps`), which the PRISM emitter prints as PRISM commands
and the explorer as the Python source of one successors function
(`_Explorer`); both print the expressions of the steps from the same Terms.

Communication is synchronous over connection closures: the transitive
closure of connections over one event is a single synchronisation set; a
send meeting a matching enabled trigger of another machine steps jointly,
with the exchanged value bound in the same step and latched for `.val`
observations.  Instantiation links the step tables into these joint steps
(`Entry`), which the explorer and the emitter print.
Environment modules gate and join steps through their command labels, and
interleave through their unlabelled commands.
"""

from __future__ import annotations

import copy
import itertools
import operator
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from . import ast as A
from . import model as M
from . import props as P
from .record import Record, field
from .resolve import ModelScope, Resolver, literal_value

LOCK_FREE = 0
EXIT_NONE = "NONE"
EXIT_ACT = "Sub_ACT"
EXIT_EXITED = "Sub_EXITED"

DEFAULT_STATE_CAP = 10_000_000


class BuildError(ValueError):
    pass


class EvalError(ValueError):
    pass


# --- constant sweeps ----------------------------------------------------------


def _literal(expr: A.Expr):
    value = literal_value(expr)
    if value is None:
        raise BuildError(f"configuration values must be literals, got {type(expr).__name__}")
    return value


def expand_sweep(config: P.ConstantsConfig | None) -> list[dict[str, object]]:
    """Expand a constant configuration into concrete valuations.

    The result is the Cartesian product of all entries, in declaration
    order with the rightmost entry varying fastest; range endpoints are
    inclusive where `lo + k*step <= hi`.
    """
    if config is None or not config.entries:
        return [{}]
    axes = []
    for entry in config.entries:
        name = entry.name.segments[-1]
        spec = entry.spec
        if isinstance(spec, P.Exactly):
            values = [_literal(spec.value)]
        elif isinstance(spec, P.FromSet):
            if not spec.values:
                raise BuildError(f"empty value set for {entry.name}")
            values = [_literal(v) for v in spec.values]
        else:
            lo = _literal(spec.lo)
            hi = _literal(spec.hi)
            step = _literal(spec.step) if spec.step is not None else 1
            if step <= 0:
                raise BuildError(f"range step for {entry.name} must be positive")
            values = []
            v = lo
            while v <= hi:
                values.append(v)
                v = v + step
        axes.append((name, values))
    out = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        out.append({name: value for (name, _), value in zip(axes, combo)})
    return out


# --- value helpers -------------------------------------------------------------


def _int_div(a, b):
    if b == 0:
        raise EvalError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return Fraction(a) / Fraction(b)


def _real_div(a, b):
    if b == 0:
        raise EvalError("division by zero")
    return Fraction(a) / Fraction(b)


def _int_mod(a, b):
    if b == 0:
        raise EvalError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        return a - _int_div(a, b) * b
    raise EvalError("'%' needs integer operands")


def _implies(a, b):
    return (not a) or b


def _no_state():
    raise EvalError("expression needs a state")


def _fold(op, value, *operands):
    """`op` folded left over `value` and the values of `operands`, each a
    function called after the operations before it, as nested calls would
    evaluate them."""
    for operand in operands:
        value = op(value, operand())
    return value


# Python precedence levels of the generated source, loosest first
_PY_COND, _PY_OR, _PY_AND, _PY_NOT, _PY_CMP, _PY_SUM, _PY_PRODUCT, _PY_NEG, _PY_ATOM = \
    2, 3, 4, 5, 6, 11, 12, 13, 16
_PY_ARITH = {"+": _PY_SUM, "-": _PY_SUM, "*": _PY_PRODUCT}
_PY_CALLS = {"/": "_int_div", "%": "_int_mod", "=>": "_implies"}
# the functions a chain of one operator folds with (`ClosedModel._py_chain`)
_PY_FOLDS = {**_PY_CALLS, "iff": "_eq", "==": "_eq", "!=": "_ne", "<": "_lt", "<=": "_le",
             ">": "_gt", ">=": "_ge"}


def _paren(printed: tuple, level: int) -> str:
    """The text of a printed expression where one of binding `level` goes."""
    text, prec = printed[0], printed[1]
    return f"({text})" if prec < level else text


def _truth(printed: tuple, level: int) -> str:
    """The text of a printed expression as a bool, as `/\\`, `\\/` and `iff`
    take their operands."""
    return _paren(printed, level) if printed[2] else f"bool({printed[0]})"


def _compile_py(source: str, namespace: dict, mode: str):
    """Compile generated source; an expression too deep for Python's parser
    is a build error."""
    try:
        return eval(compile(source, "<rcprob>", mode), namespace)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise BuildError(f"expression too deep to compile to Python: {exc}") from exc


class VarInfo(Record, frozen=True):
    name: str  # flat identity
    kind: str  # shared | machine | lock | pc | exit | env | latch
    domain: tuple  # ("int",) ("nat",) ("bool",) ("enum", literals) ("range", lo, hi) ("pc",) ("lock",) ("exit",)
    init: object
    qualified: str  # its name in the name map; a declared variable's is its resolved name


def _default_for(domain):
    k = domain[0]
    if k in ("int", "nat"):
        return 0
    if k == "bool":
        return False
    if k == "enum":
        return domain[1][0]
    if k == "range":
        return domain[1]
    raise AssertionError(domain)


def _check_domain(info: VarInfo, value):
    k = info.domain[0]
    text = M.pretty_expr(A.Lit(value))  # a whole real prints as 1.0, which no int is
    if k == "nat":
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise EvalError(f"nat variable {info.name} cannot take value {text}")
    elif k == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise EvalError(f"int variable {info.name} cannot take value {text}")
    elif k == "bool":
        if not isinstance(value, bool):
            raise EvalError(f"bool variable {info.name} cannot take value {text}")
    elif k == "enum":
        if value not in info.domain[1]:
            raise EvalError(f"enum variable {info.name} cannot take value {text}")
    elif k == "range":
        if not isinstance(value, int) or isinstance(value, bool) \
                or not (info.domain[1] <= value <= info.domain[2]):
            raise EvalError(
                f"variable {info.name} range [{info.domain[1]}..{info.domain[2]}] "
                f"violated by {text}")


def _domain_of_typeref(t: M.TypeRef, model: M.ModelAst):
    if t.name == "int":
        return ("int",)
    if t.name == "nat":
        return ("nat",)
    if t.name == "bool":
        return ("bool",)
    enum = model.enum(t.name)
    if enum is not None:
        return ("enum", tuple(f"{enum.name}::{lit}" for lit in enum.literals))
    raise BuildError(f"unsupported state variable type {t.name!r}")


# --- event closures -------------------------------------------------------------


class Closure(Record):
    cid: str  # the least qualified name of its events
    tags: frozenset[tuple[str, str]]  # (endpoint, "in"/"out") per connection edge
    payload: M.TypeRef | None
    latch: str | None  # flat latch variable, typed closures only


class ClosureTable:
    """The closures of a model's events, each event keyed by its qualified
    name (`ResolvedRef.qualified`).  The connections, with their ends as
    `Resolver.connections` resolves them, join events into closures.
    `validate` refuses a connection end that names no event, and a
    connection that joins events of different payload types."""

    def __init__(self, resolver: Resolver):
        self.events = {ref.qualified(): ref for ref in resolver.events()}
        joined = {key: {key} for key in self.events}  # the events joined to each so far
        edges = []
        for conn, src, dst in resolver.connections():
            if src is None or dst is None:
                raise BuildError(f"connection {conn}: an end names no event")
            src, dst = src.qualified(), dst.qualified()
            members = joined[src] | joined[dst]
            for key in members:
                joined[key] = members
            edges.append((src, dst))
        self.by_endpoint: dict[str, Closure] = {}
        self.closures: list[Closure] = []
        for cid in sorted(self.events):
            if cid in self.by_endpoint:
                continue
            members = joined[cid]
            tags = frozenset(tag for src, dst in edges if src in members
                             for tag in ((src, "out"), (dst, "in")))
            payload = self.events[cid].decl.payload  # validated: every member's
            # a latch where some machine engages a typed event of the closure
            in_use = payload is not None and any(
                isinstance(ref.owner, tuple) and _engages(ref.owner[1], ref.decl.name)
                for ref in map(self.events.get, members))
            closure = Closure(cid, tags, payload, f"latch.{cid}" if in_use else None)
            self.closures.append(closure)
            for key in members:
                self.by_endpoint[key] = closure

    def endpoint_dir(self, key: str) -> set[str]:
        """Connection roles of an endpoint: subset of {'in','out'}."""
        closure = self.by_endpoint[key]
        return {d for (ep, d) in closure.tags if ep == key}


def _engages(mach: M.Machine, event: str) -> bool:
    """Whether machine `mach` engages `event` through a trigger or a
    communication action."""
    if any(t.trigger is not None and t.trigger.event == event for t in mach.transitions):
        return True
    actions = [t.action for t in mach.transitions]
    actions += [a for s in mach.states for a in (s.entry, s.exit)]
    while actions:
        action = actions.pop()
        if isinstance(action, M.Comm) and action.event == event:
            return True
        if isinstance(action, M.Seq):
            actions += action.parts
        elif isinstance(action, M.IfAction):
            actions += (action.then, action.orelse)
    return False


# --- exact weights ---------------------------------------------------------------

ONE = 0  # node ONE is the weight 1


class WeightTable:
    """The weights of a closed model, as nodes with exact values.

    A node is the weight 1 (node ONE), a leaf, or the product or sum of two
    nodes.  A leaf is one junction branch or environment update branch,
    numbered once, in instantiation order, whatever its value, with the
    Term of its `prob` expression as its `source`; the explorer makes each
    product of an environment join and each sum of two branches to one
    destination once per pair of node ids.  The nodes of a build therefore
    hold for every configuration that instantiates the model alike with
    zero at the same leaves (`zero_leaves`), and `MarkovModel.reweigh`
    evaluates them for each.

    `weights[n]` is the exact value of node n under this model's own
    configuration, computed when the node is made, and `zero` holds the
    nodes whose value is 0, so that exploring a state does no `Fraction`
    arithmetic, hashing or comparison."""

    def __init__(self):
        self.weights: list[Fraction] = []  # per node
        self.ops: list = []  # per node: None for a leaf, else (operator, a, b)
        self.source: list[Term | None] = []  # per node
        self.zero: set[int] = set()
        self._made: dict[tuple, int] = {}
        self.leaf(Fraction(1))  # ONE

    def leaf(self, p: Fraction, source: Term | None = None) -> int:
        n = len(self.weights)
        self.weights.append(p)
        self.ops.append(None)
        self.source.append(source)
        if not p:
            self.zero.add(n)
        return n

    def product(self, a: int, b: int) -> int:
        if a == ONE or b == ONE:
            return b if a == ONE else a
        return self._node(operator.mul, a, b)

    def sum(self, a: int, b: int) -> int:
        return self._node(operator.add, a, b)

    def _node(self, op, a: int, b: int) -> int:
        n = self._made.get((op, a, b))
        if n is None:
            n = self._made[op, a, b] = self.leaf(op(self.weights[a], self.weights[b]))
            self.ops[n] = (op, a, b)
        return n

    def zero_leaves(self) -> tuple[int, ...]:
        """The leaves whose value is 0: their branches are dropped."""
        return tuple(n for n in sorted(self.zero) if self.ops[n] is None)

    def evaluate(self, leaves: WeightTable) -> list[Fraction]:
        """Every node's exact value with the leaf values of `leaves`, which
        numbers its leaves as this table does."""
        values: list[Fraction] = []
        for n, op in enumerate(self.ops):
            if op is None:
                values.append(leaves.weights[n])
            else:
                f, a, b = op
                values.append(f(values[a], values[b]))
        return values


# --- closed model ----------------------------------------------------------------


class Term(Record, frozen=True, eq=False):
    """An expression of the model with what evaluating or printing it
    needs: the machine scope its bare names resolve in (None: qualified
    names), the terms its parameters stand for, whether it is `real`, such
    as a probability, and so divides exactly, and `source`, its Python
    source as a function of the state, printed when the term is made and
    compiled in `namespace` on first use of `fn`."""
    expr: A.Expr
    scope: ModelScope | None
    params: tuple  # ((name, Term), ...)
    real: bool
    source: str
    namespace: dict = field(repr=False)

    @cached_property
    def fn(self):
        """The function state -> value of the term."""
        return _compile_py(self.source, self.namespace, "eval")


# the update of a conditional action, one per variable: `c ? t : e`
_IF_UPDATE = A.Cond(A.ParamRef("c"), A.ParamRef("t"), A.ParamRef("e"))


class CommSpec(Record):
    closure: Closure
    direction: str  # "in" | "out"
    value: Term | None = None  # the sent value
    bind_idx: int | None = None  # receiver variable index


LOCK_HELD = "*"  # a lock guard that any held lock meets; no transition id is "*"


class Step(Record, eq=False):
    """One micro-step of a machine, fixed when the machine is compiled.

    Its control guard is on the program counter `pc`, the `lock`
    (LOCK_FREE for an initiation, a transition id, LOCK_HELD, or None where
    the pc alone implies a held lock) and the `exit` flag (None:
    unconstrained); an initiation adds its transition's `guard`.
    `branches` are the weighted updates of the control variables, and
    `updates` the (variable index, Term) updates of the action constituent
    it runs; `comm` is the communication of its trigger or constituent.

    Linking the machines (`ClosedModel._link`) gives each step the entries
    it takes part in, which the closed model keeps (`solo`, `joints`).  A
    step that cannot be linked keeps the `error`, which taking it raises."""
    tag: str
    pc: str
    lock: object
    exit: str | None
    branches: tuple  # ((weight node, ((var index, value), ...)), ...)
    guard: Term | None = None
    updates: tuple = ()
    comm: CommSpec | None = None
    error: BuildError | None = None

    @property
    def control(self) -> tuple:
        return self.branches[0][1]


class Entry(Record, eq=False):
    """One entry of the step table: one step that the explorer takes and
    the emitter prints, as one PRISM command per machine.  `parts` holds a
    step of each machine that takes part, the initiating one first, each
    with the updates it adds (a bound or latched value); `closure` is the
    event closure it communicates on, whose connection tags environment
    modules join on.  A step without communication is an entry alone.  A
    joint step that cannot be made keeps the `error`, which taking it
    raises."""
    tag: str
    parts: tuple  # ((Step, ((var index, Term), ...)), ...)
    closure: Closure | None = None
    error: BuildError | None = None

    def __post_init__(self):
        # its branches are its one step's control updates
        self.plain = self.closure is None and not self.parts[0][0].updates


_NO_TAGS = frozenset()  # shared by the untagged moves: a fresh one is 216 bytes each


class MachineRT:
    def __init__(self, closed: "ClosedModel", ctrl: M.Controller, mach: M.Machine):
        self.ctrl = ctrl
        self.mach = mach
        self.name = f"{ctrl.name}.{mach.name}"
        self.scope = closed.scopes[self.name]
        self.lk_i = closed.index[f"{self.name}.lk"]
        self.pc_i = closed.index[f"{self.name}.pc"]
        self.exit_i = closed.index.get(f"{self.name}.exit")
        self.junctions = set(mach.junctions)
        self.states = {s.name: s for s in mach.states}
        self.trans_by_id = {t.id: t for t in mach.transitions}
        self.trans_from: dict[str, list[M.Transition]] = {}
        for t in sorted(mach.transitions, key=lambda t: t.id):
            self.trans_from.setdefault(t.source, []).append(t)
        self.uses_closures: set[str] = set()
        # per transition: its action constituents, and its guard and trigger
        self.parts: dict[str, list[dict]] = {}
        self.initiation: dict[str, tuple[Term | None, CommSpec | None]] = {}
        # the Step fields that each atomic action fills (`_constituent`)
        self.entry: dict[str, list[dict]] = {}
        self.exit: dict[str, list[dict]] = {}
        self.junction_weights: dict[str, list[tuple[M.Transition, int]]] = {}  # weight leaves

    # --- program counter naming -------------------------------------------

    def entering_pc(self, state: str) -> str:
        return f"{state}_entering"

    def entry_pc(self, state: str, k: int) -> str:
        return f"{state}_entry_{k}"

    def exit_pc(self, state: str, k: int) -> str:
        return f"{state}_exit_{k}"

    def act_pc(self, tid: str, k: int) -> str:
        t = self.trans_by_id[tid]
        if t.source in self.junctions:
            return f"{tid}_act_{k + 1}"
        return f"{tid}_act" if k == 0 else f"{tid}_act_{k}"

    # --- step table -----------------------------------------------------------

    def _chain_pc(self, t: M.Transition, k: int = 0) -> str:
        """Where the chain of `t` goes before its k-th action constituent:
        that constituent, else the target junction, else the target's
        entering point."""
        if k < len(self.parts[t.id]):
            return self.act_pc(t.id, k)
        return t.target if t.target in self.junctions else self.entering_pc(t.target)

    def compile_steps(self):
        """Build the step table, in the order the PRISM emitter prints it:
        `steps` lists every step, `initiations` the steps of each free node
        and `locked` those of each locked (pc, exit flag) position."""
        pc, lk, ex = self.pc_i, self.lk_i, self.exit_i
        by_id = sorted(self.mach.transitions, key=lambda t: t.id)
        steps: list[Step] = []

        def step(tag, at, lock, exit_, updates, part=(), **kw):
            return Step(f"{self.name}.{tag}", at, lock, exit_, ((ONE, tuple(updates)),),
                        **dict(part, **kw))

        for t in by_id:
            if t.source in self.junctions:
                continue  # junction branches are one step at the junction
            if self.exit.get(t.source):
                updates = [(lk, t.id), (ex, EXIT_ACT)]
            elif self.parts[t.id] or t.target in self.junctions or self.entry.get(t.target):
                updates = [(lk, t.id), (pc, self._chain_pc(t))]
            else:
                updates = [(pc, t.target)]
            guard, trigger = self.initiation[t.id]
            steps.append(step(t.id, t.source, LOCK_FREE, EXIT_NONE if ex is not None else None,
                              updates, guard=guard, comm=trigger))
        for j in sorted(self.junctions):
            branches = tuple((w, ((pc, self._chain_pc(t)),)) for t, w in self.junction_weights[j])
            steps.append(Step(f"{self.name}.{j}", j, LOCK_HELD, None, branches))
        for t in by_id:
            for k, part in enumerate(self.parts[t.id]):
                steps.append(step(f"{t.id}@act{k}", self.act_pc(t.id, k), None, None,
                                  [(pc, self._chain_pc(t, k + 1))], part))
        chunks = {}
        for s in sorted(self.states):
            chunk = chunks[s] = []
            entry = self.entry[s]
            for k, part in enumerate(entry):
                at = self.entering_pc(s) if k == 0 else self.entry_pc(s, k)
                post = [(pc, s), (lk, LOCK_FREE)] if k + 1 == len(entry) \
                    else [(pc, self.entry_pc(s, k + 1))]
                chunk.append(step(f"enter_{s}@{k}", at, None, None, post, part))
            exit_ = self.exit[s]
            if not exit_:
                continue
            for t in self.trans_from.get(s, ()):  # each runs the exit chain under its lock
                for k, part in enumerate(exit_):
                    post = [(pc, self.exit_pc(s, k + 1))]
                    if k + 1 == len(exit_):
                        post.append((ex, EXIT_EXITED))
                    chunk.append(step(f"{t.id}@exit{k}", self.exit_pc(s, k) if k else s,
                                      t.id, EXIT_ACT, post, part))
                chunk.append(step(f"{t.id}@exit_done", self.exit_pc(s, len(exit_)), t.id,
                                  EXIT_EXITED, [(pc, self._chain_pc(t)), (ex, EXIT_NONE)]))
        targets = {v for chunk in [steps, *chunks.values()] for st in chunk
                   for _, updates in st.branches for i, v in updates if i == pc}
        for s, chunk in chunks.items():
            if not self.entry[s] and self.entering_pc(s) in targets:
                chunk.insert(0, step(f"enter_{s}", self.entering_pc(s), None, None,
                                     [(pc, s), (lk, LOCK_FREE)]))
            steps.extend(chunk)
        self.steps = steps
        self.initiations: dict[str, list[Step]] = {}
        self.locked: dict[tuple, list[Step]] = {}
        for st in steps:
            if st.lock == LOCK_FREE:
                self.initiations.setdefault(st.pc, []).append(st)
            else:
                key = (st.pc, EXIT_NONE if st.exit is None else st.exit)
                self.locked.setdefault(key, []).append(st)
        # every state's entering point counts, used or not, so that pc codes
        # stay put when a transition into the state changes
        self.static_pcs = sorted(self.mach.node_names() | {st.pc for st in steps}
                                 | {self.entering_pc(s) for s in self.states})


class EnvCommandRT(Record):
    tag: str
    label_tag: tuple[str, str] | None  # (endpoint, dir)
    guard: Term
    branches: list[tuple[int, list]]  # (weight node, [(var index, Term)])


class ClosedModel:
    """A model with every loose symbol bound, ready for state exploration."""

    def __init__(self, model: M.ModelAst, consts: dict[str, object],
                 defs: P.DefinitionsDecl | None, env: P.PModulesDecl | None,
                 kind: str, spec: P.SpecAst | None = None):
        if kind not in ("dtmc", "mdp"):
            raise BuildError(f"kind must be 'dtmc' or 'mdp', got {kind!r}")
        self.model = model
        self.kind = kind
        self.defs = defs
        self.env = env
        self.spec = spec if spec is not None else P.SpecAst()
        self.resolver = Resolver(model, self.spec)
        self.closures = ClosureTable(self.resolver)
        self.weight_table = WeightTable()
        # the globals of the generated source: its helpers, and the values
        # without a Python literal under the names `_py_value` gives them
        self.namespace = {"EvalError": EvalError, "_int_div": _int_div, "_int_mod": _int_mod,
                          "_real_div": _real_div, "_implies": _implies, "_no_state": _no_state,
                          "_fold": _fold, "_eq": operator.eq, "_ne": operator.ne,
                          "_lt": operator.lt, "_le": operator.le, "_gt": operator.gt,
                          "_ge": operator.ge}
        self._spec_terms: dict[tuple[int, bool], tuple[A.Expr, Term]] = {}  # `spec_expr`

        self.consts: dict[str, object] = {}
        loose_consts, loose_funcs, loose_ops = M.loose_symbols(model)
        declared = {}
        for p in model.platforms:
            for c in p.constants:
                if c.name in declared:
                    raise BuildError(f"constant name {c.name!r} is declared twice across platforms")
                declared[c.name] = c
        for name, value in consts.items():
            self.consts[name] = value
        for name, c in declared.items():
            if c.value is not None and name not in self.consts:
                self.consts[name] = _literal(c.value)
        missing = sorted(loose_consts - set(self.consts))
        if missing:
            raise BuildError(f"loose constants not covered: {', '.join(missing)}")

        self.functions: dict[str, P.PFunctionDef] = {}
        self.operations: dict[str, P.POperationDef] = {}
        if defs is not None:
            for f in defs.functions:
                self.functions[f.name] = f
            for o in defs.operations:
                self.operations[o.name] = o
        missing = sorted(loose_funcs - set(self.functions))
        if missing:
            raise BuildError(f"loose functions not defined: {', '.join(missing)}")
        missing = sorted(loose_ops - set(self.operations))
        if missing:
            raise BuildError(f"loose operations not defined: {', '.join(missing)}")

        self._layout_vars()
        self._compile_machines()
        self._compile_env()

    # --- variable layout ---------------------------------------------------

    def _layout_vars(self):
        model = self.model
        self.vars: list[VarInfo] = []
        self.index: dict[str, int] = {}

        def add(info: VarInfo, pos: tuple = (0, 0)):
            try:
                _check_domain(info, info.init)
            except EvalError as exc:
                where = f", declared at line {pos[0]}" if pos[0] else ""
                raise BuildError(f"bad initial value: {exc}{where}") from exc
            self.index[info.name] = len(self.vars)
            self.vars.append(info)

        def declare(scope: ModelScope, variables, kind: str):
            for v in variables:
                ref = scope.vars[v.name]
                add(VarInfo(ref.flat, kind, _domain_of_typeref(v.type, model),
                            self._const_value(v.init, f"initial value of {v.name}"),
                            ref.qualified()), v.pos)

        for p in model.platforms:
            declare(ModelScope(self.resolver, platform=p), p.variables, "shared")
        self.scopes: dict[str, ModelScope] = {}  # of each machine, by its name
        for ctrl in model.controllers:
            for mach in ctrl.machines:
                base = f"{ctrl.name}.{mach.name}"
                qualified = f"{model.name}::{ctrl.name}::{mach.name}"
                self.scopes[base] = ModelScope(self.resolver, ctrl, mach)
                declare(self.scopes[base], mach.variables, "machine")
                add(VarInfo(f"{base}.lk", "lock", ("lock",), LOCK_FREE, f"{qualified}::lk"))
                add(VarInfo(f"{base}.pc", "pc", ("pc",), mach.initial, f"{qualified}::pc"))
                if any(s.exit is not None for s in mach.states):
                    add(VarInfo(f"{base}.exit", "exit", ("exit",), EXIT_NONE,
                                f"{qualified}::exit"))
        if self.env is not None:
            for mod in self.env.modules:
                for v in mod.variables:
                    if v.type == "bool":
                        domain = ("bool",)
                        default = False
                    else:
                        lo = self._const_value(v.type[0], "range bound")
                        hi = self._const_value(v.type[1], "range bound")
                        if not isinstance(lo, int) or not isinstance(hi, int) or lo > hi:
                            raise BuildError(f"bad range for environment variable {v.name}")
                        domain = ("range", lo, hi)
                        default = lo
                    init = self._const_value(v.init, f"init of @{v.name}") \
                        if v.init is not None else default
                    add(VarInfo(f"env.{mod.name}.{v.name}", "env", domain, init,
                                f"{mod.name}::{v.name}"))
        for closure in self.closures.closures:
            if closure.latch is not None:
                domain = _domain_of_typeref(closure.payload, model)
                add(VarInfo(closure.latch, "latch", domain, _default_for(domain),
                            f"{closure.cid}::val"))

    def _const_value(self, expr: A.Expr, what: str):
        try:
            return self.term(expr).fn(None)
        except EvalError as exc:
            raise BuildError(f"{what} must be constant: {exc}") from exc

    def var_named(self, flat: str) -> VarInfo:
        return self.vars[self.index[flat]]

    def initial_state(self) -> tuple:
        return tuple(v.init for v in self.vars)

    @cached_property
    def successors(self):
        """The successors function of this model's Markov model, printed and
        compiled when the model is first explored (`_Explorer`)."""
        return _Explorer(self).successors

    # --- Python source of expressions ------------------------------------------

    def _py(self, e: A.Expr, scope: ModelScope | None, params: dict | None, read,
            fstack: tuple = (), real: bool = False) -> tuple[str, int, bool]:
        """Print an expression as Python source: its text, the precedence of
        its outermost operator and whether its value is a bool.

        With a machine `scope`, bare names resolve lexically (model
        expressions); without it, names resolve as qualified references
        (property expressions).  `params` maps parameter names to the
        printed arguments, and `read(i)` gives the text that reads variable
        i.  A `real` expression, such as a probability, divides exactly;
        otherwise `/` on two integers truncates (`_int_div`).  `/\\` and
        `\\/` give a bool and evaluate their right operand only when
        needed; every other operator evaluates both of its operands."""
        def go(x, level=0):
            return _paren(self._py(x, scope, params, read, fstack, real), level)

        if isinstance(e, A.Lit):
            return self._py_value(e.value)
        if isinstance(e, A.Ref):
            kind, name = self.name_of(e, scope)
            if kind == "var":
                return self._py_read(self.index[name], read)
            if kind == "const":
                if name not in self.consts:
                    raise BuildError(f"constant {e.name} has no value in this configuration")
                return self._py_value(self.consts[name])
            return self._py_value(name)
        if isinstance(e, A.Unary):
            if e.op == "not":
                return f"not {go(e.operand, _PY_NOT)}", _PY_NOT, True
            return f"-{go(e.operand, _PY_NEG)}", _PY_NEG, False
        if isinstance(e, A.Binary) and e.op in _PY_FOLDS and isinstance(e.left, A.Binary) \
                and e.left.op == e.op:
            return self._py_chain(e, scope, params, read, fstack, real)
        if isinstance(e, A.Binary):
            left = self._py(e.left, scope, params, read, fstack, real)
            right = self._py(e.right, scope, params, read, fstack, real)
            if e.op in ("/\\", "\\/"):
                word, level = ("and", _PY_AND) if e.op == "/\\" else ("or", _PY_OR)
                return f"{_truth(left, level)} {word} {_truth(right, level)}", level, True
            if e.op == "iff":
                return f"{_truth(left, _PY_CMP + 1)} == {_truth(right, _PY_CMP + 1)}", \
                    _PY_CMP, True
            if e.op in _PY_ARITH:
                level = _PY_ARITH[e.op]
                return f"{_paren(left, level)} {e.op} {_paren(right, level + 1)}", level, False
            if e.op in _PY_CALLS:
                fn = "_real_div" if real and e.op == "/" else _PY_CALLS[e.op]
                return f"{fn}({left[0]}, {right[0]})", _PY_ATOM, e.op == "=>" and right[2]
            # a comparison; one in an operand is bracketed, as Python chains them
            return f"{_paren(left, _PY_CMP + 1)} {e.op} {_paren(right, _PY_CMP + 1)}", \
                _PY_CMP, True
        if isinstance(e, A.Cond):
            cond = self._py(e.cond, scope, params, read, fstack, real)
            then = self._py(e.then, scope, params, read, fstack, real)
            orelse = self._py(e.orelse, scope, params, read, fstack, real)
            return (f"({_paren(then, _PY_OR)} if {_paren(cond, _PY_OR)} "
                    f"else {_paren(orelse, _PY_COND)})", _PY_ATOM, then[2] and orelse[2])
        if isinstance(e, A.FunCall):
            if e.name in fstack:
                raise BuildError(f"recursive function {e.name!r}")
            fdef = self.functions.get(e.name)
            if fdef is None:
                raise BuildError(f"function {e.name!r} has no definition")
            if len(e.args) != len(fdef.params):
                raise BuildError(
                    f"{e.name} expects {len(fdef.params)} arguments, got {len(e.args)}")
            args = {p: self._py(a, scope, params, read, fstack, real)
                    for p, a in zip(fdef.params, e.args)}
            return self._py(fdef.body, None, args, read, fstack + (e.name,), real)
        if isinstance(e, A.ParamRef):
            if params is None or e.name not in params:
                raise BuildError(f"``{e.name} is not a parameter in scope")
            return params[e.name]
        if isinstance(e, A.IsIn):
            machine, target = self.is_in(e)
            return f"{read(self.index[f'{machine}.pc'])} == {target!r}", _PY_CMP, True
        if isinstance(e, A.LabelRef):
            decl = self.spec.find(P.LabelDecl, e.name)
            if decl is None:
                raise BuildError(f"unknown label #{e.name}")
            return self._py(decl.body, None, None, read, fstack)
        if isinstance(e, A.FormulaRef):
            decl = self.spec.find(P.FormulaDecl, e.name)
            if decl is None:
                raise BuildError(f"unknown formula `{e.name}")
            if e.name in fstack:
                raise BuildError(f"cyclic formula reference `{e.name}")
            return self._py(decl.body, None, params, read, fstack + (e.name,), real)
        if isinstance(e, A.ModVarRef):
            return self._py_read(self.index[self.env_var(e)], read)
        if isinstance(e, A.EventVal):
            return self._py_read(self.index[self.event_latch(e)], read)
        raise BuildError(f"cannot evaluate {type(e).__name__} in a state expression")

    def _py_chain(self, e: A.Binary, scope, params, read, fstack, real) -> tuple[str, int, bool]:
        """A left-deep chain of one operator, such as `a / b / c`, as one
        call of `_fold` over its operands rather than one nested call or
        bracket per operator, which Python's parser limits to 200.  Each
        operand after the first is a function of no arguments, so that the
        operands and operations run in the order nested calls would run
        them and the first `EvalError` is the same."""
        operands = []
        while isinstance(e.left, A.Binary) and e.left.op == e.op:
            operands.append(e.right)
            e = e.left
        operands += [e.right, e.left]
        printed = [self._py(x, scope, params, read, fstack, real) for x in reversed(operands)]
        fn = "_real_div" if real and e.op == "/" else _PY_FOLDS[e.op]
        texts = [_truth(p, _PY_COND) if e.op == "iff" else p[0] for p in printed]
        return (f"_fold({fn}, {texts[0]}, " + ", ".join(f"lambda: {t}" for t in texts[1:]) + ")",
                _PY_ATOM, e.op not in ("/", "%") and (e.op != "=>" or printed[-1][2]))

    def _py_read(self, i: int, read) -> tuple[str, int, bool]:
        return read(i), _PY_ATOM, self.vars[i].domain[0] == "bool"

    def _py_value(self, value) -> tuple[str, int, bool]:
        """A value (bool, int, enumeration literal or `Fraction`) as printed
        source: a literal, or for a `Fraction` a name in the namespace made
        of its numerator and denominator."""
        if isinstance(value, bool):
            return repr(value), _PY_ATOM, True
        if isinstance(value, int) and value < 0:
            return repr(value), _PY_NEG, False
        if isinstance(value, (int, str)):
            return repr(value), _PY_ATOM, False
        name = f"_q{value.numerator}_{value.denominator}".replace("-", "m")
        self.namespace[name] = value
        return name, _PY_ATOM, False

    def _py_term(self, t: Term, read) -> tuple[str, int, bool]:
        """Print a term, its parameters standing for the terms they name."""
        params = {name: self._py_term(sub, read) for name, sub in t.params}
        return self._py(t.expr, t.scope, params, read, real=t.real)

    def name_of(self, e: A.Ref, scope: ModelScope | None) -> tuple[str, str]:
        """What a name stands for, as ("enum", literal), ("const", name) or
        ("var", flat variable).  With a machine `scope`, names resolve
        lexically (model expressions); without it, a bare name is a
        constant and others resolve as qualified references (property
        expressions)."""
        segs = e.name.segments
        if scope is not None:
            ref = scope.lookup(e.name)
            if ref is None:
                raise BuildError(f"unknown name {e.name} in {scope.where}")
        elif len(segs) == 1 and segs[0] in self.consts:
            return "const", segs[0]
        else:
            ref, diags = self.resolver.resolve_fqn(e.name)
            if ref is None or any(d.severity == "error" for d in diags):
                raise BuildError(f"cannot resolve {e.name}: " + "; ".join(str(d) for d in diags))
        if ref.kind in ("variable", "constant", "enumLiteral"):
            return {"variable": ("var", ref.flat), "constant": ("const", ref.path[-1]),
                    "enumLiteral": ("enum", "::".join(ref.path))}[ref.kind]
        raise BuildError(f"{e.name} ({ref.kind}) is not usable in a state expression")

    def is_in(self, e: A.IsIn) -> tuple[str, str]:
        """The machine (as "controller.machine") and the state of `is in`."""
        left, d1 = self.resolver.resolve_fqn(e.container)
        right, d2 = self.resolver.resolve_fqn(e.state)
        if left is None or right is None or left.kind != "machineInstance" \
                or right.kind != "state":
            raise BuildError(f"bad 'is in' operands: {e.container} is in {e.state}")
        return f"{left.owner.name}.{left.decl.name}", right.decl.name

    def env_var(self, e: A.ModVarRef) -> str:
        """The flat variable of an environment variable reference."""
        if self.env is None:
            raise BuildError(f"@{e.var}: no environment modules in this configuration")
        candidates = [f"env.{mod.name}.{v.name}" for mod in self.env.modules
                      if e.module is None or mod.name == e.module
                      for v in mod.variables if v.name == e.var]
        if not candidates:
            raise BuildError(f"unknown environment variable @{e.var}")
        if len(candidates) > 1:
            raise BuildError(f"environment variable @{e.var} is ambiguous")
        return candidates[0]

    def event_latch(self, e: A.EventVal) -> str:
        """The latch variable of an event's `.val`."""
        ref, diags = self.resolver.resolve_event(e.event)
        if ref is None:
            raise BuildError(f"cannot resolve event {e.event}: "
                             + "; ".join(str(d) for d in diags))
        closure = self.closures.by_endpoint.get(ref.qualified())
        if closure is None or closure.latch is None:
            raise BuildError(f"event {e.event} carries no value")
        return closure.latch

    def spec_expr(self, e: A.Expr, real: bool = False):
        """A property expression as a function state -> value; a `real`
        one, such as a probability bound or a reward, divides exactly.  It
        is compiled once per expression node, which the cache pins so that
        its id is not reused: simulation asks again each time its paths
        reach new states."""
        key = (id(e), real)
        if key not in self._spec_terms:
            self._spec_terms[key] = (e, self.term(e, real=real))
        return self._spec_terms[key][1].fn

    # --- machines ------------------------------------------------------------

    def _compile_machines(self):
        self.machines: list[MachineRT] = []
        for ctrl in self.model.controllers:
            for mach in ctrl.machines:
                self.machines.append(self._compile_machine(ctrl, mach))
        self.closure_users: dict[str, list[MachineRT]] = {}
        for m in self.machines:
            for cid in m.uses_closures:
                self.closure_users.setdefault(cid, []).append(m)
        self._link()

    def _compile_machine(self, ctrl, mach) -> MachineRT:
        rt = MachineRT(self, ctrl, mach)
        for s in mach.states:
            rt.entry[s.name] = [self._constituent(rt, a) for a in M.atomic_parts(s.entry)]
            rt.exit[s.name] = [self._constituent(rt, a) for a in M.atomic_parts(s.exit)]
        for t in mach.transitions:
            rt.parts[t.id] = [self._constituent(rt, a) for a in M.atomic_parts(t.action)]
            guard = self.term(t.guard, rt.scope) if t.guard is not None else None
            rt.initiation[t.id] = (guard, self._comm_spec(rt, t.trigger) if t.trigger else None)
        weights = self.weight_table.weights
        for j in mach.junctions:
            leaves = rt.junction_weights[j] = []
            for t in rt.trans_from.get(j, []):
                w = self._weight_leaf(t.prob, rt.scope, f"probability of {t.id}")
                if not (0 <= weights[w] <= 1):
                    raise BuildError(f"probability of {t.id} is {weights[w]}, outside [0,1]")
                leaves.append((t, w))
            total = sum(weights[w] for _, w in leaves)
            if total != 1:
                raise BuildError(
                    f"junction {j} of {mach.name}: outgoing probabilities sum to {total}, not 1")
        rt.compile_steps()
        return rt

    def term(self, expr: A.Expr, scope: ModelScope | None = None, params: tuple = (),
             real: bool = False) -> Term:
        """A term, printed now, so that a name or call it cannot resolve is
        a build error of the instantiation; it compiles on first use."""
        reads = []

        def read(i):
            reads.append(i)
            return f"s[{i}]"

        args = {name: self._py_term(sub, read) for name, sub in params}
        text = _paren(self._py(expr, scope, args, read, real=real), _PY_COND)
        if reads:  # the value of a term that reads the state needs one
            text = f"_no_state() if s is None else {text}"
        return Term(expr, scope, params, real, f"lambda s: {text}", self.namespace)

    def _weight_leaf(self, expr: A.Expr, scope: ModelScope | None, what: str) -> int:
        """A weight leaf: the probability `expr`, evaluated exactly."""
        term = self.term(expr, scope, real=True)
        try:
            return self.weight_table.leaf(Fraction(term.fn(None)), term)
        except EvalError as exc:
            raise BuildError(f"{what} must be constant: {exc}") from exc

    def _constituent(self, rt: MachineRT, a: M.Action) -> dict:
        """The Step fields of an atomic action: its communication, or its
        updates as (variable index, value) pairs."""
        if isinstance(a, M.Comm):
            return {"comm": self._comm_spec(rt, a)}
        return {"updates": tuple((i, value) for i, _, value in self._updates(rt, a))}

    def _updates(self, rt: MachineRT, a: M.Action) -> list[tuple[int, Term, Term]]:
        """The updates of an atomic action as (variable index, variable,
        value) triples: an operation call's assignments with its arguments
        for its parameters, and for a conditional one `c ? t : e` per
        variable that either branch assigns, a variable it leaves standing
        for itself."""
        if isinstance(a, M.Assign):
            flat = rt.scope.vars[a.target].flat
            return [(self.index[flat], self.term(A.Ref(A.QName((a.target,))), rt.scope),
                     self.term(a.expr, rt.scope))]
        if isinstance(a, M.OpCall):
            op = self.operations.get(a.name)
            if op is None:
                raise BuildError(f"operation {a.name!r} has no definition")
            if len(a.args) != len(op.params):
                raise BuildError(f"{a.name} expects {len(op.params)} arguments")
            params = tuple((p, self.term(x, rt.scope)) for p, x in zip(op.params, a.args))
            out = []
            for target_qn, value_expr in op.assignments:
                ref, diags = self.resolver.resolve_fqn(target_qn)
                if ref is None or ref.kind != "variable":
                    raise BuildError(f"operation {a.name}: bad assignment target {target_qn}")
                out.append((self.index[ref.flat], self.term(A.Ref(target_qn)),
                            self.term(value_expr, None, params)))
            return out
        if isinstance(a, M.IfAction):
            branches = []
            for branch in (a.then, a.orelse):
                updates = {}
                for part in M.atomic_parts(branch):
                    if isinstance(part, M.Comm):
                        raise BuildError(
                            "conditional actions containing communications are not supported")
                    updates.update((i, (var, value)) for i, var, value in self._updates(rt, part))
                branches.append(updates)
            cond = self.term(a.cond, rt.scope)
            out = []
            for i, (var, _) in {**branches[0], **branches[1]}.items():
                then, orelse = (b.get(i, (var, var))[1] for b in branches)
                out.append((i, var, self.term(_IF_UPDATE, None,
                                              (("c", cond), ("t", then), ("e", orelse)))))
            return out
        raise AssertionError(type(a).__name__)

    def _comm_spec(self, rt: MachineRT, comm: M.Comm | M.Trigger) -> CommSpec:
        event, op = comm.event, comm.op
        ref = rt.scope.events.get(event)
        if ref is None:
            raise BuildError(f"machine {rt.mach.name} declares no event {event!r}")
        endpoint = ref.qualified()
        closure = self.closures.by_endpoint[endpoint]
        rt.uses_closures.add(closure.cid)
        if op == "!":
            direction = "out"
        elif op == "?":
            direction = "in"
        else:
            dirs = self.closures.endpoint_dir(endpoint)
            if len(dirs) == 1:
                direction = next(iter(dirs))
            elif not dirs:
                direction = "out"  # unconnected event: a silent local step
            else:
                raise BuildError(
                    f"event {event!r} of {rt.mach.name} is connected in both directions; "
                    "use an explicit '!' or '?' form")
        return CommSpec(closure, direction,
                         self.term(comm.value, rt.scope) if comm.value is not None else None,
                         self.index[rt.scope.vars[comm.var].flat] if comm.var is not None else None)

    # --- linking the step tables ------------------------------------------------

    def _link(self):
        """Give every step its entries.  A step without communication is an
        entry alone, and so is one whose event no other machine uses: a
        platform input with a payload makes one entry per value, which it
        binds and latches.  Otherwise the step pairs with each initiation of
        its one partner machine that triggers on the same closure in the
        other direction, the receiver binding the sent value; a receiving
        initiation only answers a sender.  A sent value is latched.

        The entries a step runs alone are `solo[step]`; a step that pairs
        has its partner machine and the joint entries by the partner's pc in
        `joints[step]`.  Steps refer to no entry, so that steps and entries
        form no reference cycle.  It also records, for the emitter, the
        entries that each step takes part in (`entries_of`) and those on
        each closure (`entries_on`, by closure id), in the order they are
        made."""
        self.solo: dict[Step, tuple[Entry, ...]] = {}
        self.joints: dict[Step, tuple[MachineRT, dict[str, list[Entry]]]] = {}
        self.entries_of: dict[Step, list[Entry]] = {}
        self.entries_on: dict[str, list[Entry]] = {}
        for m in self.machines:
            for st in m.steps:
                try:
                    made = self._link_step(m, st)
                except BuildError as exc:
                    # without the traceback, whose frames hold this model
                    st.error, made = exc.with_traceback(None), ()
                for entry in made:
                    for part, _ in entry.parts:
                        self.entries_of.setdefault(part, []).append(entry)
                    if entry.closure is not None:
                        self.entries_on.setdefault(entry.closure.cid, []).append(entry)

    def _link_step(self, m: MachineRT, st: Step) -> list[Entry]:
        """Link one step and return the entries it initiates."""
        comm = st.comm
        if comm is None:
            made = self.solo[st] = (Entry(st.tag, ((st, ()),)),)
            return made
        closure = comm.closure
        partners = [p for p in self.closure_users[closure.cid] if p is not m]
        if not partners:
            made = self.solo[st] = self._solo_entries(st, comm)
            return made
        if comm.direction == "out" or st.lock != LOCK_FREE:
            if len(partners) > 1:
                raise BuildError(
                    f"synchronisation on {closure.cid} involves more than two machines; "
                    "multiway synchronisation is not supported")
            joints = {}
            for q in partners[0].steps:
                if q.lock == LOCK_FREE and q.comm is not None \
                        and q.comm.closure is closure and q.comm.direction != comm.direction:
                    joints.setdefault(q.pc, []).append(self._joint(st, q))
            self.joints[st] = (partners[0], joints)
            return [e for es in joints.values() for e in es]
        return []

    def _latch(self, closure: Closure, value: Term | None) -> tuple:
        if value is None or closure.latch is None:
            return ()
        return ((self.index[closure.latch], value),)

    def _solo_entries(self, st: Step, comm: CommSpec) -> tuple:
        closure = comm.closure
        if comm.bind_idx is None or closure.payload is None:
            return (Entry(st.tag, ((st, self._latch(closure, comm.value)),), closure),)
        if comm.direction != "in":
            raise BuildError(f"{st.tag}: output trigger with a binding variable")
        domain = _domain_of_typeref(closure.payload, self.model)
        if domain[0] not in ("bool", "enum"):
            raise BuildError(
                f"{st.tag}: platform input on {closure.cid} has an unbounded payload type; "
                "bound it with an enumeration or bool")
        entries = []
        for v in (False, True) if domain[0] == "bool" else domain[1]:
            value = self.term(A.Lit(v))
            entries.append(Entry(f"{st.tag}={_fmt_value(v)}",
                                 ((st, ((comm.bind_idx, value), *self._latch(closure, value))),),
                                 closure))
        return tuple(entries)

    def _joint(self, st: Step, q: Step) -> Entry:
        send, recv = (st, q) if st.comm.direction == "out" else (q, st)
        closure, value = st.comm.closure, send.comm.value
        added = {send: self._latch(closure, value), recv: ()}
        error = None
        if recv.comm.bind_idx is not None:
            if value is not None:
                added[recv] = ((recv.comm.bind_idx, value),)
            elif closure.payload is not None:
                error = BuildError(f"{st.tag}: receiver on {closure.cid} needs a value but the "
                                   "sender provides none")
        return Entry("+".join(sorted([st.tag, q.tag])), ((st, added[st]), (q, added[q])),
                     closure, error)

    # --- environment modules ---------------------------------------------------

    def _compile_env(self):
        self.env_commands: dict[str, list[EnvCommandRT]] = {}
        self.env_alphabet: dict[str, set[tuple[str, str]]] = {}
        if self.env is None:
            return
        for mod in self.env.modules:
            cmds = []
            alphabet = set()
            for i, cmd in enumerate(mod.commands):
                label_tag = None
                if cmd.label is not None:
                    ref, diags = self.resolver.resolve_event(cmd.label)
                    if ref is None:
                        raise BuildError(f"pmodule {mod.name}: cannot resolve label "
                                         f"{cmd.label}: " + "; ".join(str(d) for d in diags))
                    label_tag = (ref.qualified(), cmd.label.direction)
                    alphabet.add(label_tag)
                cmds.append(EnvCommandRT(f"{mod.name}.c{i}", label_tag, self.term(cmd.guard),
                                         self._env_branches(mod, cmd)))
            self.env_commands[mod.name] = cmds
            self.env_alphabet[mod.name] = alphabet

    def _env_branches(self, mod: P.PModule, cmd: P.PCommand):
        updates = [(self.index[f"env.{mod.name}.{u.var}"], self.term(u.expr))
                   for u in cmd.updates]
        with_prob = [u for u in cmd.updates if u.prob is not None]
        if not with_prob:
            return [(ONE, updates)]
        if len(with_prob) != len(cmd.updates):
            raise BuildError(f"pmodule {mod.name}: mixed probabilistic and plain updates")
        weights = self.weight_table.weights
        branches = []
        for u, update in zip(cmd.updates, updates):
            w = self._weight_leaf(u.prob, None, "update probability")
            if not (0 <= weights[w] <= 1):
                raise BuildError(f"pmodule {mod.name}: update probability {weights[w]} "
                                 "outside [0,1]")
            branches.append((w, [update]))
        total = sum(weights[w] for w, _ in branches)
        if total != 1:
            raise BuildError(f"pmodule {mod.name}: update probabilities sum to {total}, not 1")
        return branches


# --- public instantiation ------------------------------------------------------


def instantiate(model: M.ModelAst, config: dict[str, object],
                defs: P.DefinitionsDecl | None = None,
                env: P.PModulesDecl | None = None,
                kind: str = "mdp",
                spec: P.SpecAst | None = None) -> ClosedModel:
    """Close a model over one concrete constant valuation."""
    return ClosedModel(model, config, defs, env, kind, spec)


def eval_expr(closed: ClosedModel, expr: A.Expr, state: tuple | None = None):
    """Evaluate a property expression against a Markov state valuation."""
    return closed.spec_expr(expr)(state)


# --- Markov model ---------------------------------------------------------------


def _extended(a: np.ndarray, new) -> np.ndarray:
    """`a` followed by `new`, as a prefix of a buffer with room to spare:
    `new` is written by one slice into the room past the end of `a`, and a
    full buffer is replaced by one twice as large, so appending r items
    costs O(r) amortised instead of a copy of the whole array.  `a` must own
    its data or be a result of this function; the arrays of the move store,
    the sample table, the reward structures, the monitors and the state
    formula values cached on a model are extended only through it."""
    n = a.size
    end = n + len(new)
    buf = a.base
    if buf is None or buf.size < end:
        buf = np.empty(max(end, 2 * n), a.dtype)
        buf[:n] = a
    buf[n:end] = new
    return buf[:end]


class SampleTable(Record):
    """What simulation adds to a model's move store, per row and per entry.
    The entries of row r are the branches of its k moves in store order,
    with weight p/k, from entry `first[r]` on; entry e is branch e, of store
    move `move[e]`.  `cum[e]` sums the weights of e's row left to right up
    to e, the row's last entry set to 1.0.  A path at row r with uniform u
    in [0, 1) takes the row's first entry whose `cum` exceeds u: it steps
    from `first[r]` while `cum <= u`, which the row's last entry stops, so a
    step takes at most as many rounds as the row has entries.  Rows are
    appended as states are expanded."""
    first: np.ndarray
    cum: np.ndarray
    move: np.ndarray
    absorbing: np.ndarray  # per row: every branch leads back to its state


class RewardStructure(Record):
    """A reward structure in the move store's layout, as floats: `state[r]`
    is the reward of the state of row r and `move[m]` that of store move m.
    `cover` extends both over the rows expanded since it last ran, by
    `evaluate(mm, lo)`: the state rewards of the rows from lo on and the
    rewards of their moves.  A structure given in full needs no `evaluate`."""
    name: str
    state: np.ndarray
    move: np.ndarray
    evaluate: object = None

    def cover(self, mm: MarkovModel):
        if self.state.size < len(mm.order):
            state, move = self.evaluate(mm, self.state.size)
            self.state, self.move = _extended(self.state, state), _extended(self.move, move)


class MarkovModel:
    """An explicit Markov model, possibly still growing.

    `states` lists every state known so far, and `order` the expanded ones
    in the order they were: they are the rows of the move store, and
    `row_of[s]` is the row of state s, -1 while unexpanded.  A model starts
    with the states it is given (`open_markov`: the initial one) and grows
    through `expand` by its `successors` function: state -> (moves,
    deadlock), each move (action, tags, [(weight node of `nodes`,
    successor state)]) with the branches in the order they are generated.
    A successor not yet known becomes the next state.  `build_markov`
    expands every reachable state, breadth-first in state order.

    The move store keeps the moves of the expanded states once, as flat
    arrays in row order.  The moves of row r are `first_move[r]` to
    `first_move[r + 1]`.  Move m has the action `move_action[m]`, the tags
    `move_tags[m]` and the branches `first_branch[m]` to
    `first_branch[m + 1]`.  Branch b leads to state `dest[b]` with the
    weight node `node_id[b]` of `nodes` (`WeightTable`), whose probability
    is `weights[node_id[b]]` and its float `weight_float[node_id[b]]`.  A
    model explored from a closed model shares its `nodes` and their
    `weights`: a node's value is computed once per closed model, when the
    node is made, and exploring a state only indexes and appends.  A move's
    branches keep the order they were generated in, branches to one
    destination are merged at the first, and only positive ones are kept.
    The choice CSR, the sample table, the distribution check, the export
    and the engines all read these arrays, and the reward structures in
    `rewards` keep their values in the same layout, per row and per move.

    `closed` is the one configuration the model belongs to, which the
    engines read.  `reweigh` gives the model of another configuration on the
    same store, with weights of its own."""

    def __init__(self, kind: str, var_names: tuple[str, ...], states: list[tuple], successors,
                 nodes: WeightTable, initial: int = 0, max_states: int = DEFAULT_STATE_CAP,
                 *, closed: ClosedModel):
        self.kind = kind
        self.var_names = var_names
        self.states = states
        self.deadlock = [False] * len(states)
        self.initial = initial
        self.closed = closed
        self.order: list[int] = []
        self.row_of = self.dest = self.node_id = np.zeros(0, dtype=np.int64)
        self.first_move = self.first_branch = np.zeros(1, dtype=np.int64)
        self.move_action: list[str] = []
        self.move_tags: list[frozenset] = []
        self.nodes = nodes
        self.weights = nodes.weights
        self.weight_float = np.zeros(0)
        # since the arrays were extended: moves per row, branches per move,
        # and the destination and weight node of each branch
        self._batch = ([], [], [], [])
        self._passed: set[tuple] = set()  # weight node sequences that sum to 1
        self.rewards: dict[str, RewardStructure] = {}
        # the truth of plain state expressions per row, by printed form
        # (`truth`), shared with the models `reweigh` makes
        self.atoms: dict[str, np.ndarray] = {}
        # the truth of P, R, A and E operators by printed form under this
        # model's weights (`exact.ExactChecker`), not shared
        self.solved: dict[str, tuple] = {}
        # what the engines derive from the store but not from the weights,
        # shared with the models `reweigh` makes; replaced by each expansion
        self.derived: dict = {}
        # cleared once every known state is expanded
        self._successors = successors
        self._index: dict[tuple, int] | None = {st: s for s, st in enumerate(states)}
        self._max_states = max_states
        self._short_names = None
        self._choice_csr = self._dtmc_csr = self.choice_moves = None
        self._sample_table = None
        self._store_batch()

    @property
    def num_states(self) -> int:
        return len(self.states)

    def num_transitions(self) -> int:
        """Branches of the expanded states."""
        return int(self.first_branch[-1])

    def truth(self, e: A.Expr, text: str) -> np.ndarray:
        """The truth of the plain state expression e, printed `text`, under
        the model's configuration, at each expanded row.  It is kept in
        `atoms` by its text and extended over the rows expanded since: the
        models of a structure share it, as their configurations differ only
        in constants that no state expression reads."""
        known = self.atoms.setdefault(text, np.zeros(0, dtype=bool))
        if known.size < len(self.order):
            known = self.atoms[text] = _extended(known, self.evaluate(e, self.order[known.size:]))
            known.flags.writeable = False
        return known

    def evaluate(self, e: A.Expr, states) -> np.ndarray:
        """One pass of a plain state expression over the given states."""
        fn, known = self.closed.spec_expr(e), self.states
        return np.array([bool(fn(known[s])) for s in states], dtype=bool)

    # --- expansion ------------------------------------------------------------

    def _expand_rows(self, work, grow: bool, chains: list | None = None):
        """Append the moves of the states of `work` as the next rows, in
        order and in integers only; a successor state is discovered when
        new.  With `grow`, `work` is a list and each state discovered joins
        it; with `chains`, the only successor of each state (the only
        branch of its only move), or None, is appended to it."""
        states, index, successors = self.states, self._index, self._successors
        deadlock, order, cap, merge = self.deadlock, self.order, self._max_states, self.nodes.sum
        actions, action_tags = self.move_action, self.move_tags
        row_moves, move_branches, dests, weights = self._batch
        for s in work:
            moves, dead = successors(states[s])
            for action, tags, branches in moves:
                for w, succ in branches:
                    dst = index.get(succ)
                    if dst is None:
                        dst = len(states)
                        if dst >= cap:
                            raise BuildError(f"state-space cap of {cap} states exceeded")
                        index[succ] = dst
                        states.append(succ)
                        deadlock.append(False)
                        if grow:
                            work.append(dst)
                    dests.append(dst)
                    weights.append(w)
                k = len(branches)
                if k > 1 and len(set(dests[-k:])) < k:  # merge at the first occurrence
                    merged: dict[int, int] = {}
                    for d, w in zip(dests[-k:], weights[-k:]):
                        merged[d] = merge(merged[d], w) if d in merged else w
                    del dests[-k:], weights[-k:]
                    dests.extend(merged)
                    weights.extend(merged.values())
                    k = len(merged)
                move_branches.append(k)
                actions.append(action)
                action_tags.append(tags)
            row_moves.append(len(moves))
            deadlock[s] = dead
            order.append(s)
            if chains is not None:
                chains.append(dests[-1] if len(moves) == 1 and k == 1 else None)

    def _store_batch(self):
        """Extend the store's arrays by the rows appended since, and
        `weight_float` by the nodes made since."""
        row_moves, move_branches, dests, nodes = self._batch
        self._batch = ([], [], [], [])
        lo = len(self.order) - len(row_moves)
        self.first_move = _extended(self.first_move,
                                    self.first_move[-1] + np.array(row_moves).cumsum())
        self.first_branch = _extended(self.first_branch,
                                      self.first_branch[-1] + np.array(move_branches).cumsum())
        self.dest, self.node_id = _extended(self.dest, dests), _extended(self.node_id, nodes)
        self.weight_float = _extended(self.weight_float,
                                      [float(p) for p in self.weights[self.weight_float.size:]])
        self.row_of = _extended(self.row_of, np.full(self.num_states - self.row_of.size, -1))
        self.row_of[self.order[lo:]] = np.arange(lo, len(self.order))

    def expand(self, states, ahead: int = 0):
        """Expand the given unexpanded states, in order; their successors
        become known states.  With `ahead`, the batch also expands each
        state's deterministic chain, after the states: from the state it
        follows the only branch of the only move, expanding at most `ahead`
        states, and it ends after a state of several moves or branches and
        before an expanded one.  The distribution check applies to the
        batch.  An expansion that fails, in a successor or in the check,
        leaves the model as it was: no row, state or array of its batch
        stays behind.  A batch with chains that fails is made again with the
        states alone, so that only the states given raise an error."""
        if ahead:
            states = list(states)
            try:
                return self._expand(states, ahead)
            except BuildError:
                pass
        self._expand(states, 0)

    def _expand(self, states, ahead: int):
        """`expand`; with `states` None, of every unexpanded state and each
        state discovered meanwhile."""
        lo, moves, known = len(self.order), len(self.move_action), len(self.states)
        arrays = self.first_move, self.first_branch, self.dest, self.node_id
        try:
            chains = [] if ahead else None  # the first state of each state's chain
            if states is None:
                self._expand_rows(np.flatnonzero(self.row_of < 0).tolist(), True)
            else:
                self._expand_rows(states, False, chains)
            batch = set(self.order[lo:]) if ahead else set()
            for s in chains or ():
                for _ in range(ahead):
                    if s is None or s in batch or s < known and self.row_of[s] >= 0:
                        break
                    batch.add(s)
                    follow = []
                    self._expand_rows((s,), False, follow)
                    s = follow[0]
            self._store_batch()
            self.check_stochastic(lo)
        except BaseException:
            for s in self.order[lo:]:
                self.deadlock[s] = False
            for st in self.states[known:]:
                del self._index[st]
            del self.order[lo:], self.move_action[moves:], self.move_tags[moves:]
            del self.states[known:], self.deadlock[known:]
            self.first_move, self.first_branch, self.dest, self.node_id = arrays
            # the batch's rows were set in place
            self.row_of = self.row_of[:known]
            self.row_of[self.row_of >= lo] = -1
            self._batch = ([], [], [], [])
            raise
        if len(self.order) == len(self.states):  # complete: nothing left to expand
            self._successors = self._index = None
        if self._sample_table is not None:
            self._append_rows(lo)
        self.derived = {}
        self._choice_csr = self._dtmc_csr = self.choice_moves = None

    def expand_all(self):
        """Expand every reachable state, breadth-first in state order."""
        if self._successors is not None:  # else complete
            self._expand(None, 0)

    def reweigh(self, closed: ClosedModel) -> MarkovModel:
        """The model of `closed` on this complete model's store.  A closed
        model that numbers its weight leaves as this model's nodes do, with
        zero at the same leaves, explores to the same states, moves and
        branches; only the weights differ.  The model returned shares the
        store, its nodes, the reward structures and what the engines derive
        from the store alone (`derived`, `atoms`), so `closed` must differ
        from this model's configuration only in constants that nothing but
        weights reads (`resolve.weight_only_constants`).  Its weights, and
        the matrices made of them, are its own: every node evaluated
        exactly with the leaves of `closed`, on which the distribution
        check runs again."""
        view = copy.copy(self)
        view.closed = closed
        view.weights = self.nodes.evaluate(closed.weight_table)
        view.weight_float = np.array([float(p) for p in view.weights])
        view._passed = set()
        view.solved = {}
        view._choice_csr = view._dtmc_csr = view._sample_table = None
        view.check_stochastic()
        return view

    # --- reading the store ----------------------------------------------------

    def choice_csr(self):
        """The choice CSR of a complete model, built once per model: the
        move-by-state branch matrix, with the moves in state order, and the
        first move of each state followed by the number of moves.  The
        store's rows are taken in state order, by one stable permutation of
        its moves: `choice_moves[i]` is the store move of the matrix's row
        i.  All but the weights is made once per structure (`derived`)."""
        if self._choice_csr is None:
            # imported here: simulation and emission never build this matrix
            from scipy import sparse
            if "choice" not in self.derived:
                self.derived["choice"] = self._choice_layout()
            self.choice_moves, branch, indices, indptr, bounds = self.derived["choice"]
            mat = sparse.csr_matrix((self.weight_float[self.node_id[branch]], indices, indptr),
                                    shape=(len(self.move_action), self.num_states))
            mat.has_sorted_indices = True
            self._choice_csr = (mat, bounds)
        return self._choice_csr

    def _choice_layout(self):
        """The choice CSR without its weights: the store move of each row,
        the store branch, column and row pointers of its entries, and the
        first move of each state.  A move's branches lead to distinct
        states (`_expand_rows` merges the others), taken in state order."""
        from scipy import sparse
        moves = np.diff(self.first_move)  # per row
        choice_moves = np.argsort(np.repeat(self.order, moves), kind="stable")
        branches = sparse.csr_matrix((np.arange(self.dest.size), self.dest, self.first_branch),
                                     shape=(len(self.move_action), self.num_states))
        branches = branches[choice_moves]
        branches.sort_indices()
        return (choice_moves, branches.data, branches.indices, branches.indptr,
                np.concatenate([[0], np.cumsum(moves[self.row_of])]))

    def dtmc_csr(self):
        """The dtmc transition matrix of a complete model, built once per
        model: each state mixes its moves uniformly.  With one move per
        state it is the choice CSR itself."""
        if self._dtmc_csr is None:
            from scipy import sparse
            mat, bounds = self.choice_csr()
            counts = np.diff(bounds)
            if (counts == 1).all():
                self._dtmc_csr = mat
            else:
                mix = sparse.csr_matrix(
                    (np.repeat(1.0 / counts, counts), np.arange(mat.shape[0]), bounds),
                    shape=(self.num_states, mat.shape[0]))
                self._dtmc_csr = (mix @ mat).tocsr()
                self._dtmc_csr.sort_indices()
        return self._dtmc_csr

    def sample_table(self) -> SampleTable:
        """The simulation table of the expanded states, built once per model
        and extended by each expansion."""
        if self._sample_table is None:
            self._sample_table = SampleTable(np.zeros(0, dtype=np.int64), np.zeros(0),
                                             np.zeros(0, dtype=np.int64),
                                             np.zeros(0, dtype=bool))
            self._append_rows(0)
        return self._sample_table

    def _append_rows(self, lo: int):
        """Append the entries and absorbing flags of the rows from `lo` on,
        in a few array operations per batch and per entry of its widest
        row."""
        table = self._sample_table
        first_move = self.first_move[lo:]
        m0, m1 = first_move[0], first_move[-1]
        start = self.first_branch[first_move]  # per row, then the end
        b0 = start[0]
        at = start[:-1] - b0  # each row's first entry in the batch
        lens = start[1:] - start[:-1]
        owner = np.arange(lens.size).repeat(lens)
        cum = self.weight_float[self.node_id[b0:]] / (first_move[1:] - first_move[:-1])[owner]
        # left to right within each row, as np.cumsum of the row adds, up
        # to the row's last entry, which is 1.0
        for j in range(1, lens.max(initial=0) - 1):
            at_j = at[lens > j + 1] + j
            cum[at_j] += cum[at_j - 1]
        cum[start[1:] - (b0 + 1)] = 1.0
        branches = self.first_branch[m0:m1 + 1]  # per move, then the end
        stays = self.row_of[self.dest[b0:]] == owner + lo  # back to its own state
        table.first = _extended(table.first, start[:-1])
        table.cum = _extended(table.cum, cum)
        table.move = _extended(table.move,
                               np.arange(m0, m1).repeat(branches[1:] - branches[:-1]))
        table.absorbing = _extended(table.absorbing, np.logical_and.reduceat(stays, at))

    def check_stochastic(self, lo: int = 0):
        """Exact distribution checks of the rows from `lo` on (default:
        all): every state has a move and every move's branches sum to 1.
        This implies the dtmc row check: a state with k moves has a row
        summing to k * (1/k) * 1 = 1.  A move whose only branch is node ONE
        sums to 1 in every configuration and is passed over; each distinct
        sequence of weight nodes of the others is summed once, in
        `Fraction` arithmetic, and remembered if it passed."""
        first_move = self.first_move[lo:]
        empty = (first_move[1:] == first_move[:-1]).nonzero()[0]
        if empty.size:
            raise BuildError(f"state {self.order[lo + empty[0]]} has no moves after completion")
        m0 = int(self.first_move[lo])
        b0 = self.first_branch[m0]
        starts, ends = self.first_branch[m0:-1] - b0, self.first_branch[m0 + 1:] - b0
        nodes = self.node_id[b0:]
        certain = ends - starts == 1
        certain[certain] = nodes[starts[certain]] == ONE
        todo = np.flatnonzero(~certain)
        nodes = nodes.tolist()
        for m, start, end in zip((todo + m0).tolist(), starts[todo].tolist(), ends[todo].tolist()):
            key = tuple(nodes[start:end])
            if key not in self._passed:
                total = sum(self.weights[w] for w in key)
                if total != 1:
                    s = self.order[self.first_move.searchsorted(m, "right") - 1]
                    raise BuildError(f"state {s} action {self.move_action[m]}: "
                                     f"branch probabilities sum to {total}")
                self._passed.add(key)

    def short_var_names(self) -> tuple[str, ...]:
        if self._short_names is None:
            tails: dict[str, int] = {}
            for name in self.var_names:
                tails[name.rsplit(".", 1)[-1]] = tails.get(name.rsplit(".", 1)[-1], 0) + 1
            out = []
            for name in self.var_names:
                tail = name.rsplit(".", 1)[-1]
                out.append(tail if tails[tail] == 1 else name)
            self._short_names = tuple(out)
        return self._short_names

    def labels(self, idx: int) -> set[str]:
        """The atomic propositions of a state: one `name=value` per variable."""
        short = self.short_var_names()
        out = {f"{n}={_fmt_value(v)}" for n, v in zip(short, self.states[idx])}
        if self.deadlock[idx]:
            out.add("deadlock")
        if idx == self.initial:
            out.add("init")
        return out

    def export_text(self) -> str:
        """Plain explicit-state export consumed by the oracle tests."""
        lines = [f"STATES {self.num_states}", f"KIND {self.kind}",
                 f"INITIAL {self.initial}",
                 "VARS " + " ".join(self.var_names)]
        for i, st in enumerate(self.states):
            parts = [f"STATE {i}"]
            if self.deadlock[i]:
                parts.append("@deadlock")
            parts.extend(f"{n}={_fmt_value(v)}" for n, v in zip(self.var_names, st))
            lines.append(" ".join(parts))
        first_move, first_branch = self.first_move.tolist(), self.first_branch.tolist()
        dest, weight = self.dest.tolist(), self.node_id.tolist()
        for i, r in enumerate(self.row_of.tolist()):
            for m in range(first_move[r], first_move[r + 1]):
                head = f"{i} ({self.move_action[m]}) "
                tags = ",".join(sorted(f"{ep}.{d}" for ep, d in self.move_tags[m]))
                b0, b1 = first_branch[m], first_branch[m + 1]
                for dst, w in sorted(zip(dest[b0:b1], weight[b0:b1])):
                    lines.append(f"{head}{self.weights[w]} {dst} [{tags}]")
        return "\n".join(lines) + "\n"


def _fmt_value(v) -> str:
    """A value as the model and property languages write it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction) and v.denominator != 1:
        return M._fraction_literal(v)
    return str(v)


# --- exploration -----------------------------------------------------------------


class _Explorer:
    """Prints the closed model's step tables and environment commands as
    the Python source of one function, `successors(state)`, and compiles
    it: the successors function of the closed model's `MarkovModel`.

    A move is (action, tags, branches), each branch (weight node,
    successor state).  The function unpacks the state into the locals s0,
    s1, ... and has one block per machine, which dispatches on the
    machine's lock and program counter and takes the steps there in table
    order.  The guard of each step, the partner guards of its entries and
    the values of their updates are inlined as `ClosedModel._py` prints
    them, and each successor state is built as one tuple.  An entry on an
    event closure joins, module by module, one enabled command of each
    environment module labelled with one of the closure's tags; a module
    with none enabled blocks the entry.  The unlabelled environment
    commands follow.  The moves are sorted by action.  A state without any
    move loops, and is a deadlock unless every machine rests in a terminal
    state.

    An expression that fails is reported as a BuildError naming the step
    and the state (`_state_error`), by one of three boundaries: per machine
    step, per environment command and per move, where the new values meet
    their variables' domains (`_check_domain`).  A partner's guard is
    evaluated within the step that initiates the joint step.  A move whose
    values leave their domains is reported once every step has run, the
    first such move in action order.  Branches of weight 0 are dropped, and
    their values are not checked."""

    def __init__(self, closed: ClosedModel):
        self.c = closed
        self.env_modules = [(closed.env_alphabet[name], closed.env_commands[name])
                            for name in sorted(closed.env_commands)]
        self.namespace = closed.namespace
        # nothing in the namespace refers back to the closed model or the
        # explorer, so that the model is freed by reference counting
        self.namespace.update(_err=partial(_state_error, closed.vars), _no_step=_no_step,
                              _bad=_domain_error, _first=operator.itemgetter(0),
                              _NO_TAGS=_NO_TAGS)
        self.named: dict[int, str] = {}  # namespace names of the objects the source uses
        self.lines: list[str] = []
        self.locals = 0
        self.printed = 0  # expressions printed so far
        self.source = self._print()
        _compile_py(self.source, self.namespace, "exec")
        self.successors = self.namespace.pop("successors")

    # printing ------------------------------------------------------------------

    def emit(self, depth: int, line: str):
        self.lines.append("    " * depth + line)

    def block(self, depth: int, header: str, body):
        """A compound statement whose body `body(depth)` prints."""
        self.emit(depth, header)
        n = len(self.lines)
        body(depth + 1)
        if len(self.lines) == n:
            self.emit(depth + 1, "pass")

    def attempt(self, depth: int, body, tag: str):
        """`body(depth)` in a try statement whose EvalError is reported
        against `tag`, where it evaluates an expression."""
        start, printed = len(self.lines), self.printed
        self.block(depth, "try:", body)
        if self.printed == printed:  # nothing to fail
            self.lines[start:] = [line[4:] for line in self.lines[start + 1:]]
            return
        self.emit(depth, "except EvalError as exc:")
        self.emit(depth + 1, f"raise _err({tag!r}, s, exc) from exc")

    def fresh(self, prefix: str) -> str:
        self.locals += 1
        return f"{prefix}{self.locals}"

    def name(self, obj, prefix: str) -> str:
        """The namespace name of an object that the source uses."""
        if id(obj) not in self.named:
            self.named[id(obj)] = f"_{prefix}{len(self.named)}"
            self.namespace[self.named[id(obj)]] = obj
        return self.named[id(obj)]

    def expr(self, term: Term, level: int) -> str:
        self.printed += 1
        return _paren(self.c._py_term(term, lambda i: f"s{i}"), level)

    def _print(self) -> str:
        c = self.c
        unpack = "".join(f"s{i}, " for i in range(len(c.vars)))
        self.lines += ["def successors(s):", f"    {unpack}= s" if unpack else "",
                       "    out = []", "    bad = []"]
        for m in c.machines:
            self._machine(m)
        for _, commands in self.env_modules:
            for cmd in commands:
                if cmd.label_tag is None:
                    flag, branches = self._command(1, cmd)
                    self.block(1, f"if {flag}:",
                               lambda d: self._move(d, cmd.tag, "_NO_TAGS", branches))
        resting = " or ".join(f"s{m.lk_i} != {LOCK_FREE!r} or s{m.pc_i} in "
                              f"{tuple(sorted(m.trans_from))!r}" for m in c.machines)
        self.lines += ["    if bad:",
                       "        action, exc = min(bad, key=_first)",
                       "        raise _err(action, s, exc) from exc",
                       "    if not out:",
                       f"        return [('loop', _NO_TAGS, [({ONE}, s)])], {resting or 'False'}",
                       "    if len(out) > 1:",
                       "        out.sort(key=_first)",
                       "    return out, False"]
        return "\n".join(self.lines) + "\n"

    # machine steps -----------------------------------------------------------

    def _machine(self, m: MachineRT):
        """Take the machine's steps at its pc: its initiations when its lock
        is free, else those of its (pc, exit flag) position."""
        pc, lk = f"s{m.pc_i}", f"s{m.lk_i}"
        flag = f"s{m.exit_i}" if m.exit_i is not None else repr(EXIT_NONE)
        self.emit(1, f"# {m.name}")

        def free(d):
            for k, (at, steps) in enumerate(m.initiations.items()):
                self.block(d, f"{'elif' if k else 'if'} {pc} == {at!r}:",
                           lambda d, steps=steps: [self._step(d, m, st) for st in steps])

        self.block(1, f"if {lk} == {LOCK_FREE!r}:", free)
        for (at, exit_), steps in m.locked.items():
            cond = f"{pc} == {at!r}" + ("" if m.exit_i is None else f" and {flag} == {exit_!r}")
            self.block(1, f"elif {cond}:",
                       lambda d, steps=steps: [self._step(d, m, st) for st in steps])
        self.block(1, "else:", lambda d: self.emit(
            d, f"raise _no_step({m.mach.name!r}, {pc}, {lk}, {flag})"))

    def _step(self, d: int, m: MachineRT, st: Step):
        def taken(d):
            if st.error is not None:
                self.emit(d, f"raise {self.name(st.error, 'e')}")
            elif st not in self.c.joints:
                for entry in self.c.solo.get(st, ()):
                    self._entry(d, entry)
            else:
                q, joints = self.c.joints[st]
                self.block(d, f"if s{q.lk_i} == {LOCK_FREE!r}:", lambda d: [
                    self.block(d, f"{'elif' if k else 'if'} s{q.pc_i} == {at!r}:",
                               lambda d, es=entries: [self._entry(d, e) for e in es])
                    for k, (at, entries) in enumerate(joints.items())])

        def guarded(d):
            conds = []
            if st.lock not in (None, LOCK_HELD, LOCK_FREE):
                conds.append(f"s{m.lk_i} == {st.lock!r}")
            if st.guard is not None:
                conds.append(self.expr(st.guard, _PY_AND))
            if conds:
                self.block(d, f"if {' and '.join(conds)}:", taken)
            else:
                taken(d)

        self.attempt(d, guarded, st.tag)

    def _entry(self, d: int, entry: Entry):
        st = entry.parts[0][0]
        if entry.plain:
            self._move(d, entry.tag, "_NO_TAGS",
                       [(w, self._control(updates)) for w, updates in st.branches])
            return
        guard = entry.parts[1][0].guard if len(entry.parts) > 1 else None
        if guard is not None:
            self.block(d, f"if {self.expr(guard, _PY_COND)}:",
                       lambda d: self._entry_moves(d, entry))
        else:
            self._entry_moves(d, entry)

    def _entry_moves(self, d: int, entry: Entry):
        if entry.error is not None:
            self.emit(d, f"raise {self.name(entry.error, 'e')}")
            return
        updates = []
        for st, added in entry.parts:
            updates += self._control(st.control)
            updates += [self._value(d, i, t) for i, t in (*st.updates, *added)]
        if entry.closure is None:
            self._move(d, entry.tag, "_NO_TAGS", [(ONE, updates)])
            return
        tags = entry.closure.tags
        participants = [[cmd for cmd in commands if cmd.label_tag in tags]
                        for alphabet, commands in self.env_modules if alphabet & tags]
        self._join(d, entry.tag, self.name(tags, "t"), updates, participants, [])

    # environment modules -------------------------------------------------------

    def _join(self, d: int, tag: str, tags: str, updates: list, participants: list,
              chosen: list):
        """Evaluate the commands of the next participating module, and go on
        where one of them is enabled; past the last one, join."""
        if len(chosen) == len(participants):
            self._combos(d, tag, tags, [(ONE, updates)], chosen)
            return
        commands = participants[len(chosen)]
        if not commands:
            return  # this module blocks the step
        enabled = [(cmd, *self._command(d, cmd)) for cmd in commands]
        self.block(d, f"if {' or '.join(flag for _, flag, _ in enabled)}:",
                   lambda d: self._join(d, tag, tags, updates, participants, chosen + [enabled]))

    def _combos(self, d: int, tag: str, tags: str, branches: list, chosen: list):
        """One move per combination of enabled commands, the first module's
        varying slowest; its branches are the products of theirs."""
        if not chosen:
            self._move(d, tag, tags, branches)
            return
        product = self.c.weight_table.product
        for cmd, flag, cmd_branches in chosen[0]:
            joined = [(product(p0, p1), u0 + u1) for p0, u0 in branches
                      for p1, u1 in cmd_branches]

            def then(d, tag=f"{tag}+{cmd.tag}", joined=joined):
                self._combos(d, tag, tags, joined, chosen[1:])

            if len(chosen[0]) == 1:
                then(d)  # the module's test ran
            else:
                self.block(d, f"if {flag}:", then)

    def _command(self, d: int, cmd: EnvCommandRT) -> tuple[str, list]:
        """Evaluate an environment command's guard, into a flag, and where
        it holds the values of its branches; return the flag and the
        branches."""
        flag = self.fresh("g")
        branches = []

        def values(d):
            branches.extend((w, [self._value(d, i, t) for i, t in updates])
                            for w, updates in cmd.branches)

        def evaluate(d):
            self.emit(d, f"{flag} = {self.expr(cmd.guard, _PY_COND)}")
            if all(_constant(self.c, t) for _, updates in cmd.branches for _, t in updates):
                values(d)  # prints nothing
            else:
                self.block(d, f"if {flag}:", values)

        self.attempt(d, evaluate, cmd.tag)
        return flag, branches

    # moves ------------------------------------------------------------------------

    def _control(self, updates) -> list:
        return [(i, repr(v), False) for i, v in updates]

    def _value(self, d: int, i: int, t: Term) -> tuple[int, str, bool]:
        """The update of variable i to the value of t, as (i, text, whether
        its domain is checked): a constant, or a local that holds the value,
        evaluated here.  A constant known to lie in the domain is not
        checked."""
        info = self.c.vars[i]
        checked = info.kind not in ("pc", "lock", "exit")
        value = _constant(self.c, t)
        if value is None:
            local = self.fresh("v")
            self.emit(d, f"{local} = {self.expr(t, _PY_COND)}")
            return i, local, checked
        if checked and _domain_error(info, value[0]) is None:
            checked = False
        return i, self.c._py_value(value[0])[0], checked

    def _move(self, d: int, action: str, tags: str, branches: list):
        """Append a move with the branches of positive weight, each to the
        state its updates make, the last update of a variable winning;
        where a value leaves its variable's domain, note the move's error."""
        zero = self.c.weight_table.zero
        branches = [(w, updates) for w, updates in branches if w not in zero]
        checks = dict.fromkeys((i, text) for _, updates in branches
                               for i, text, checked in updates if checked)
        line = (f"out.append(({action!r}, {tags}, ["
                + ", ".join(f"({w}, {self._successor(updates)})" for w, updates in branches)
                + "]))")
        if not checks:
            self.emit(d, line)
            return
        error = self.fresh("e")
        self.emit(d, f"{error} = " + " or ".join(self._check(i, text) for i, text in checks))
        self.block(d, f"if {error}:", lambda d: self.emit(d, f"bad.append(({action!r}, {error}))"))
        self.block(d, "else:", lambda d: self.emit(d, line))

    def _successor(self, updates) -> str:
        values = {i: text for i, text, _ in updates}
        if not values:
            return "s"
        return "(" + ", ".join(values.get(i, f"s{i}") for i in range(len(self.c.vars))) + ",)"

    def _check(self, i: int, text: str) -> str:
        """An expression that gives the error of a value of variable i that
        leaves its domain, else a false value: an inline test of the value's
        type and bounds, and where that fails, `_domain_error`."""
        info = self.c.vars[i]
        kind = info.domain[0]
        test = {"int": f"type({text}) is not int",
                "nat": f"type({text}) is not int or {text} < 0",
                "bool": f"type({text}) is not bool"}.get(kind)
        if kind == "range":
            test = f"type({text}) is not int or not {info.domain[1]} <= {text} <= {info.domain[2]}"
        call = f"_bad({self.name(info, 'D')}, {text})"
        return f"({test}) and {call}" if test else call


def _state_error(variables: list[VarInfo], tag: str, state, exc: EvalError) -> BuildError:
    valuation = ", ".join(f"{v.name}={_fmt_value(x)}" for v, x in zip(variables, state))
    return BuildError(f"{tag} at state ({valuation}): {exc}")


def _domain_error(info: VarInfo, value) -> EvalError | None:
    try:
        _check_domain(info, value)
    except EvalError as exc:
        return exc
    return None


def _no_step(machine: str, pc, lk, exit_flag) -> BuildError:
    return BuildError(f"machine {machine}: no step at pc {pc!r} (lock {lk}, exit flag {exit_flag})")


def _constant(closed: ClosedModel, t: Term) -> tuple | None:
    """(value,) of a term that is a literal or names a constant, else None."""
    if isinstance(t.expr, A.Lit):
        return (t.expr.value,)
    if isinstance(t.expr, A.Ref):
        kind, name = closed.name_of(t.expr, t.scope)
        if kind == "enum":
            return (name,)
        if kind == "const" and name in closed.consts:
            return (closed.consts[name],)
    return None


def open_markov(closed: ClosedModel, max_states: int = DEFAULT_STATE_CAP) -> MarkovModel:
    """The closed model's Markov model, of which only the initial state is
    known; `MarkovModel.expand` explores it on demand."""
    return MarkovModel(closed.kind, tuple(v.name for v in closed.vars),
                       [closed.initial_state()], closed.successors,
                       closed.weight_table, max_states=max_states, closed=closed)


def build_markov(closed: ClosedModel, max_states: int = DEFAULT_STATE_CAP) -> MarkovModel:
    """Explore the closed model breadth-first into an explicit Markov model."""
    mm = open_markov(closed, max_states)
    mm.expand_all()
    return mm


# --- rewards ---------------------------------------------------------------------


def attach_rewards(mm: MarkovModel, decl: P.RewardsDecl) -> MarkovModel:
    """Evaluate a rewards declaration over the expanded states of mm, under
    its configuration, and attach it; its `cover` evaluates it over the
    states expanded later.  An item adds its value to its state's reward,
    or with an event to the reward of each of the state's moves that the
    event tags, summed in float in item order.  Its guard is read through
    `MarkovModel.truth`, so that equal guards are evaluated once per
    structure, and its value only where the guard holds."""
    closed, items = mm.closed, []
    for item in decl.items:
        tag = None
        if item.event is not None:
            ref, _ = closed.resolver.resolve_event(item.event)
            if ref is None:
                raise BuildError(f"rewards {decl.name}: cannot resolve {item.event}")
            tag = (ref.qualified(), item.event.direction)
        items.append((tag, item.guard, P.pretty_pexpr(item.guard), closed.spec_expr(item.guard),
                      closed.spec_expr(item.value, real=True)))

    def evaluate(mm: MarkovModel, lo: int):
        first_move = mm.first_move[lo:].tolist()
        m0 = first_move[0]
        state_r, move_r = np.zeros(len(first_move) - 1), np.zeros(first_move[-1] - m0)
        try:
            holds = [mm.truth(guard, text)[lo:] for _, guard, text, _, _ in items]
            rows = np.flatnonzero(np.any(holds, axis=0)).tolist()
        except EvalError:
            # a guard fails at some row: the guards are read state by state,
            # so that the error names the first failing state, as a value's does
            holds, rows = None, range(len(first_move) - 1)
        for r in rows:
            s = mm.order[lo + r]
            state = mm.states[s]
            for i, (tag, _, _, guard_fn, value_fn) in enumerate(items):
                try:
                    if not (guard_fn(state) if holds is None else holds[i][r]):
                        continue
                    value = value_fn(state)
                except EvalError as exc:
                    raise BuildError(f"rewards {decl.name} at state {s}: {exc}") from exc
                if value < 0:
                    raise BuildError(f"rewards {decl.name}: negative reward "
                                     f"{_fmt_value(value)} at state {s}")
                if tag is None:
                    state_r[r] += float(value)
                else:
                    for m in range(first_move[r], first_move[r + 1]):
                        if tag in mm.move_tags[m]:
                            move_r[m - m0] += float(value)
        return state_r, move_r

    rs = RewardStructure(decl.name, np.zeros(0), np.zeros(0), evaluate)
    rs.cover(mm)
    mm.rewards[decl.name] = rs
    return mm
