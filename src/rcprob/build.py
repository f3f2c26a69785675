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
`MachineRT.compile_steps`) that the explorer executes and the PRISM emitter
prints.

Communication is synchronous over connection closures: the transitive
closure of connections over one event is a single synchronisation set; a
send meeting a matching enabled trigger of another machine steps jointly,
with the exchanged value bound in the same step and latched for `.val`
observations.  Instantiation links the step tables into these joint steps
(`Entry`), which the explorer looks up and the emitter prints.
Environment modules gate and join steps through their command labels, and
interleave through their unlabelled commands.
"""

from __future__ import annotations

import copy
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ast as A
from . import model as M
from . import props as P
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


_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _int_div,
    "%": _int_mod,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "/\\": lambda a, b: a and b,
    "\\/": lambda a, b: a or b,
    "=>": lambda a, b: (not a) or b,
    "iff": lambda a, b: bool(a) == bool(b),
}


@dataclass(frozen=True)
class VarInfo:
    name: str  # flat identity
    kind: str  # shared | machine | lock | pc | exit | env | latch
    domain: tuple  # ("int",) ("nat",) ("bool",) ("enum", literals) ("range", lo, hi) ("pc",) ("lock",) ("exit",)
    init: object


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
    if k == "nat":
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise EvalError(f"nat variable {info.name} cannot take value {value!r}")
    elif k == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise EvalError(f"int variable {info.name} cannot take value {value!r}")
    elif k == "bool":
        if not isinstance(value, bool):
            raise EvalError(f"bool variable {info.name} cannot take value {value!r}")
    elif k == "enum":
        if value not in info.domain[1]:
            raise EvalError(f"enum variable {info.name} cannot take value {value!r}")
    elif k == "range":
        if not isinstance(value, int) or isinstance(value, bool) \
                or not (info.domain[1] <= value <= info.domain[2]):
            raise EvalError(
                f"variable {info.name} range [{info.domain[1]}..{info.domain[2]}] "
                f"violated by {value!r}")


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


@dataclass
class Closure:
    cid: str
    endpoints: frozenset[str]  # canonical endpoint names
    tags: frozenset[tuple[str, str]]  # (endpoint, "in"/"out") per connection edge
    payload: M.TypeRef | None
    latch: str | None  # flat latch variable, typed closures only


class ClosureTable:
    def __init__(self, model: M.ModelAst):
        self.model = model
        self._endpoint_info: dict[str, tuple] = {}  # canonical -> (kind, owner, EventDecl)
        parent: dict[str, str] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        def register(key, kind, owner, decl):
            self._endpoint_info[key] = (kind, owner, decl)
            parent.setdefault(key, key)

        for p in model.platforms:
            for e in p.events:
                register(f"{model.name}::{p.name}::{e.name}", "platform", p, e)
        for c in model.controllers:
            for e in c.events:
                register(f"{model.name}::{c.name}::{e.name}", "controller", c, e)
            for mach in c.machines:
                for e in mach.events:
                    register(f"{model.name}::{c.name}::{mach.name}::{e.name}", "machine",
                             (c, mach), e)

        edges = []

        def endpoint_key(node, event, ctrl=None):
            if ctrl is not None:
                if node == ctrl.name:
                    return f"{model.name}::{ctrl.name}::{event}"
                for mach in ctrl.machines:
                    if mach.name == node:
                        return f"{model.name}::{ctrl.name}::{mach.name}::{event}"
            if model.platform(node) is not None:
                return f"{model.name}::{node}::{event}"
            if model.controller(node) is not None:
                return f"{model.name}::{node}::{event}"
            raise BuildError(f"connection references unknown node {node!r}")

        for conn in model.connections:
            src = endpoint_key(conn.src_node, conn.src_event)
            dst = endpoint_key(conn.dst_node, conn.dst_event)
            union(src, dst)
            edges.append((src, dst))
        for c in model.controllers:
            for conn in c.connections:
                src = endpoint_key(conn.src_node, conn.src_event, c)
                dst = endpoint_key(conn.dst_node, conn.dst_event, c)
                union(src, dst)
                edges.append((src, dst))

        used = self._machine_used_endpoints(model)
        groups: dict[str, set[str]] = {}
        for key in self._endpoint_info:
            groups.setdefault(find(key), set()).add(key)
        self.by_endpoint: dict[str, Closure] = {}
        self.closures: list[Closure] = []
        for members in sorted((sorted(g) for g in groups.values())):
            cid = members[0]
            tags = set()
            for src, dst in edges:
                if src in members:
                    tags.add((src, "out"))
                    tags.add((dst, "in"))
            payload = None
            for m in members:
                decl = self._endpoint_info[m][2]
                if decl.payload is not None:
                    payload = decl.payload
            in_use = any(m in used for m in members)
            latch = f"latch.{cid}" if payload is not None and in_use else None
            closure = Closure(cid, frozenset(members), frozenset(tags), payload, latch)
            self.closures.append(closure)
            for m in members:
                self.by_endpoint[m] = closure

    def _machine_used_endpoints(self, model: M.ModelAst) -> set[str]:
        """Endpoints whose event some machine engages through a trigger or a
        communication action."""
        used: set[str] = set()

        def scan_action(prefix, action):
            if action is None:
                return
            if isinstance(action, M.Comm):
                used.add(prefix + action.event)
            elif isinstance(action, M.Seq):
                for p in action.parts:
                    scan_action(prefix, p)
            elif isinstance(action, M.IfAction):
                scan_action(prefix, action.then)
                scan_action(prefix, action.orelse)

        for c in model.controllers:
            for mach in c.machines:
                prefix = f"{model.name}::{c.name}::{mach.name}::"
                for t in mach.transitions:
                    if t.trigger is not None:
                        used.add(prefix + t.trigger.event)
                    scan_action(prefix, t.action)
                for s in mach.states:
                    scan_action(prefix, s.entry)
                    scan_action(prefix, s.exit)
        return used

    def machine_endpoint(self, ctrl: M.Controller, mach: M.Machine, event: str) -> str:
        return f"{self.model.name}::{ctrl.name}::{mach.name}::{event}"

    def endpoint_dir(self, key: str) -> set[str]:
        """Connection roles of an endpoint: subset of {'in','out'}."""
        closure = self.by_endpoint[key]
        return {d for (ep, d) in closure.tags if ep == key}


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


@dataclass(frozen=True, eq=False)
class Term:
    """An expression of the model with what evaluating or printing it
    needs: the machine scope its bare names resolve in (None: qualified
    names), the terms its parameters stand for, `fn`, the closure
    state -> value that the explorer runs, and whether it is `real`, such
    as a probability, and so divides exactly."""
    expr: A.Expr
    scope: ModelScope | None
    params: tuple  # ((name, Term), ...)
    fn: object
    real: bool = False


# the update of a conditional action, one per variable: `c ? t : e`
_IF_UPDATE = A.Cond(A.ParamRef("c"), A.ParamRef("t"), A.ParamRef("e"))


@dataclass
class CommSpec:
    closure: Closure
    direction: str  # "in" | "out"
    value: Term | None = None  # the sent value
    bind_idx: int | None = None  # receiver variable index


LOCK_HELD = "*"  # a lock guard that any held lock meets; no transition id is "*"


@dataclass(eq=False)
class Step:
    """One micro-step of a machine, fixed when the machine is compiled.

    Its control guard is on the program counter `pc`, the `lock`
    (LOCK_FREE for an initiation, a transition id, LOCK_HELD, or None where
    the pc alone implies a held lock) and the `exit` flag (None:
    unconstrained); an initiation adds its transition's `guard`.
    `branches` are the weighted updates of the control variables, and
    `updates` the (variable index, Term) updates of the action constituent
    it runs; `comm` is the communication of its trigger or constituent.

    Linking the machines (`ClosedModel._link`) gives each step the entries
    it takes part in: `entries`, those it runs alone, or, where another
    machine uses its event, the joint entries with that `partner`'s
    initiations, in `joints` by the partner's pc.  A step that cannot be
    linked keeps the `error`, which taking it raises."""
    tag: str
    pc: str
    lock: object
    exit: str | None
    branches: tuple  # ((weight node, ((var index, value), ...)), ...)
    guard: Term | None = None
    updates: tuple = ()
    comm: CommSpec | None = None
    entries: tuple = ()
    partner: MachineRT | None = None
    joints: dict | None = None
    error: BuildError | None = None

    @property
    def control(self) -> tuple:
        return self.branches[0][1]


@dataclass(eq=False)
class Entry:
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
        self.closed = closed
        self.ctrl = ctrl
        self.mach = mach
        self.name = f"{ctrl.name}.{mach.name}"
        self.scope = ModelScope(closed.model, ctrl, mach)
        self.lk_i = closed.index[f"{ctrl.name}.{mach.name}.lk"]
        self.pc_i = closed.index[f"{ctrl.name}.{mach.name}.pc"]
        exit_key = f"{ctrl.name}.{mach.name}.exit"
        self.exit_i = closed.index.get(exit_key)
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


@dataclass
class EnvCommandRT:
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
        self.closures = ClosureTable(model)
        self.weight_table = WeightTable()

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

        def add(info: VarInfo):
            try:
                _check_domain(info, info.init)
            except EvalError as exc:
                raise BuildError(f"bad initial value: {exc}") from exc
            self.index[info.name] = len(self.vars)
            self.vars.append(info)

        for p in model.platforms:
            for v in p.variables:
                add(VarInfo(f"{p.name}.{v.name}", "shared",
                            _domain_of_typeref(v.type, model),
                            self._const_value(v.init, f"initial value of {v.name}")))
        for ctrl in model.controllers:
            for mach in ctrl.machines:
                base = f"{ctrl.name}.{mach.name}"
                for v in mach.variables:
                    add(VarInfo(f"{base}.{v.name}", "machine",
                                _domain_of_typeref(v.type, model),
                                self._const_value(v.init, f"initial value of {v.name}")))
                add(VarInfo(f"{base}.lk", "lock", ("lock",), LOCK_FREE))
                add(VarInfo(f"{base}.pc", "pc", ("pc",), mach.initial))
                if any(s.exit is not None for s in mach.states):
                    add(VarInfo(f"{base}.exit", "exit", ("exit",), EXIT_NONE))
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
                    add(VarInfo(f"env.{mod.name}.{v.name}", "env", domain, init))
        for closure in self.closures.closures:
            if closure.latch is not None:
                domain = _domain_of_typeref(closure.payload, model)
                add(VarInfo(closure.latch, "latch", domain, _default_for(domain)))

    def _const_value(self, expr: A.Expr, what: str):
        try:
            return self._compile(expr, None, None)(None)
        except EvalError as exc:
            raise BuildError(f"{what} must be constant: {exc}") from exc

    def var_named(self, flat: str) -> VarInfo:
        return self.vars[self.index[flat]]

    def initial_state(self) -> tuple:
        return tuple(v.init for v in self.vars)

    # --- expression compilation ---------------------------------------------

    def _compile(self, e: A.Expr, scope: ModelScope | None, params: dict | None,
                 fstack: tuple = (), real: bool = False):
        """Compile to a closure state -> value.

        With a machine `scope`, bare names resolve lexically (model
        expressions); without it, names resolve as qualified references
        (property expressions).  `params` maps parameter names to argument
        closures.  A `real` expression, such as a probability, divides
        exactly; otherwise `/` on two integers truncates.
        """
        compile_ = lambda x: self._compile(x, scope, params, fstack, real)
        if isinstance(e, A.Lit):
            v = e.value
            return lambda s: v
        if isinstance(e, A.Ref):
            return self._compile_ref(e, scope)
        if isinstance(e, A.Unary):
            inner = compile_(e.operand)
            if e.op == "not":
                return lambda s: not inner(s)
            return lambda s: -inner(s)
        if isinstance(e, A.Binary):
            lf = compile_(e.left)
            rf = compile_(e.right)
            op = _real_div if real and e.op == "/" else _BINOPS[e.op]
            if e.op == "/\\":
                return lambda s: bool(lf(s)) and bool(rf(s))
            if e.op == "\\/":
                return lambda s: bool(lf(s)) or bool(rf(s))
            return lambda s: op(lf(s), rf(s))
        if isinstance(e, A.Cond):
            cf = compile_(e.cond)
            tf = compile_(e.then)
            ef = compile_(e.orelse)
            return lambda s: tf(s) if cf(s) else ef(s)
        if isinstance(e, A.FunCall):
            return self._compile_call(e, scope, params, fstack, real)
        if isinstance(e, A.ParamRef):
            if params is None or e.name not in params:
                raise BuildError(f"``{e.name} is not a parameter in scope")
            fn = params[e.name]
            return fn
        if isinstance(e, A.IsIn):
            machine, target = self.is_in(e)
            pc_i = self.index[f"{machine}.pc"]
            return lambda s: s[pc_i] == target
        if isinstance(e, A.LabelRef):
            decl = self.spec.find(P.LabelDecl, e.name)
            if decl is None:
                raise BuildError(f"unknown label #{e.name}")
            return self._compile(decl.body, None, None, fstack)
        if isinstance(e, A.FormulaRef):
            decl = self.spec.find(P.FormulaDecl, e.name)
            if decl is None:
                raise BuildError(f"unknown formula `{e.name}")
            if e.name in fstack:
                raise BuildError(f"cyclic formula reference `{e.name}")
            return self._compile(decl.body, None, params, fstack + (e.name,), real)
        if isinstance(e, A.ModVarRef):
            return _state_read(self.index[self.env_var(e)])
        if isinstance(e, A.EventVal):
            return _state_read(self.index[self.event_latch(e)])
        raise BuildError(f"cannot evaluate {type(e).__name__} in a state expression")

    def _compile_ref(self, e: A.Ref, scope: ModelScope | None):
        kind, name = self.name_of(e, scope)
        if kind == "var":
            return _state_read(self.index[name])
        if kind == "const":
            if name not in self.consts:
                raise BuildError(f"constant {e.name} has no value in this configuration")
            name = self.consts[name]
        return lambda s: name

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

    def _compile_call(self, e: A.FunCall, scope, params, fstack, real: bool):
        if e.name in fstack:
            raise BuildError(f"recursive function {e.name!r}")
        fdef = self.functions.get(e.name)
        if fdef is None:
            raise BuildError(f"function {e.name!r} has no definition")
        if len(e.args) != len(fdef.params):
            raise BuildError(f"{e.name} expects {len(fdef.params)} arguments, got {len(e.args)}")
        arg_fns = [self._compile(a, scope, params, fstack, real) for a in e.args]
        env = dict(zip(fdef.params, arg_fns))
        return self._compile(fdef.body, None, env, fstack + (e.name,), real)

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
        """Compile a property expression to a state closure; a `real` one,
        such as a probability bound or a reward, divides exactly."""
        return self._compile(e, None, None, real=real)

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
        fns = {name: t.fn for name, t in params} if params else None
        return Term(expr, scope, params, self._compile(expr, scope, fns, real=real), real)

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
        decl = rt.scope.events.get(event)
        if decl is None:
            raise BuildError(f"machine {rt.mach.name} declares no event {event!r}")
        endpoint = self.closures.machine_endpoint(rt.ctrl, rt.mach, event)
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

        It also records, for the emitter, the entries that each step takes
        part in (`entries_of`) and those on each closure (`entries_on`, by
        closure id), in the order they are made."""
        self.entries_of: dict[Step, list[Entry]] = {}
        self.entries_on: dict[str, list[Entry]] = {}
        for m in self.machines:
            for st in m.steps:
                try:
                    made = self._link_step(m, st)
                except BuildError as exc:
                    st.error, made = exc, ()
                for entry in made:
                    for part, _ in entry.parts:
                        self.entries_of.setdefault(part, []).append(entry)
                    if entry.closure is not None:
                        self.entries_on.setdefault(entry.closure.cid, []).append(entry)

    def _link_step(self, m: MachineRT, st: Step) -> list[Entry]:
        """Link one step and return the entries it initiates."""
        comm = st.comm
        if comm is None:
            st.entries = (Entry(st.tag, ((st, ()),)),)
            return st.entries
        closure = comm.closure
        partners = [p for p in self.closure_users[closure.cid] if p is not m]
        if not partners:
            st.entries = self._solo_entries(st, comm)
            return st.entries
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
            st.partner, st.joints = partners[0], joints
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


def _state_read(idx):
    def read(s):
        if s is None:
            raise EvalError("expression needs a state")
        return s[idx]
    return read


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


@dataclass
class SampleTable:
    """What simulation adds to a model's move store: a sort key per branch
    and an absorbing flag per row.  The entries of row r are the branches
    of its k moves in store order, with weight p/k.  `key` is the complex
    number r + c*1j per entry, where c sums the row's weights left to right
    up to the entry, the last one set to 1.0: numpy orders complex numbers
    by real and then imaginary part, so one searchsorted over `key` compares
    u with the cumulative weights of the path's own row, exactly, and finds
    the branch the path takes.  Rows are appended as states are expanded,
    and their keys stay sorted."""
    key: np.ndarray
    absorbing: np.ndarray  # per row: every branch leads back to its state


@dataclass
class RewardStructure:
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
            self.state = np.concatenate([self.state, state])
            self.move = np.concatenate([self.move, move])


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

    `reweigh` gives the model of another configuration on the same store,
    with weights of its own."""

    def __init__(self, kind: str, var_names: tuple[str, ...], states: list[tuple], successors,
                 nodes: WeightTable, initial: int = 0, max_states: int = DEFAULT_STATE_CAP):
        self.kind = kind
        self.var_names = var_names
        self.states = states
        self.deadlock = [False] * len(states)
        self.initial = initial
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
        # state formula values per (expression, context), `ExactChecker._on_model`:
        # [expression, context, values]; both are kept so their ids are not reused
        self.values: dict[tuple[int, int], list] = {}
        # cleared once every known state is expanded
        self._successors = successors
        self._index: dict[tuple, int] | None = {st: s for s, st in enumerate(states)}
        self._max_states = max_states
        self._short_names = None
        self._choice_csr = self.choice_moves = None
        self._sample_table = None
        self._store_batch()

    @property
    def num_states(self) -> int:
        return len(self.states)

    def num_transitions(self) -> int:
        """Branches of the expanded states."""
        return int(self.first_branch[-1])

    # --- expansion ------------------------------------------------------------

    def _discover(self, state: tuple) -> int:
        if len(self.states) >= self._max_states:
            raise BuildError(f"state-space cap of {self._max_states} states exceeded")
        s = self._index[state] = len(self.states)
        self.states.append(state)
        self.deadlock.append(False)
        return s

    def _expand_one(self, s: int):
        """Append the moves of state s as the next row, in integers only; a
        successor state is discovered when new."""
        moves, deadlock = self._successors(self.states[s])
        index = self._index
        row_moves, move_branches, dests, weights = self._batch
        for action, tags, branches in moves:
            for w, succ in branches:
                dst = index.get(succ)
                dests.append(self._discover(succ) if dst is None else dst)
                weights.append(w)
            k = len(branches)
            if k > 1 and len(set(dests[-k:])) < k:  # merge at the first occurrence
                merged: dict[int, int] = {}
                for d, w in zip(dests[-k:], weights[-k:]):
                    merged[d] = self.nodes.sum(merged[d], w) if d in merged else w
                del dests[-k:], weights[-k:]
                dests.extend(merged)
                weights.extend(merged.values())
                k = len(merged)
            move_branches.append(k)
            self.move_action.append(action)
            self.move_tags.append(tags)
        row_moves.append(len(moves))
        self.deadlock[s] = deadlock
        self.order.append(s)

    def _store_batch(self):
        """Extend the store's arrays by the rows appended since, and
        `weight_float` by the nodes made since."""
        row_moves, move_branches, dests, nodes = (np.array(b, dtype=np.int64)
                                                  for b in self._batch)
        self._batch = ([], [], [], [])
        lo = len(self.order) - row_moves.size
        self.first_move = np.append(self.first_move, self.first_move[-1] + np.cumsum(row_moves))
        self.first_branch = np.append(self.first_branch,
                                      self.first_branch[-1] + np.cumsum(move_branches))
        self.dest, self.node_id = np.append(self.dest, dests), np.append(self.node_id, nodes)
        self.weight_float = np.append(self.weight_float,
                                      [float(p) for p in self.weights[self.weight_float.size:]])
        self.row_of = np.append(self.row_of, np.full(self.num_states - self.row_of.size, -1))
        self.row_of[self.order[lo:]] = np.arange(lo, len(self.order))

    def expand(self, states):
        """Expand the given unexpanded states, in order; their successors
        become known states.  The distribution check applies to them.  An
        expansion that fails, in a successor or in the check, leaves the
        model as it was: no row, state or array of its batch stays behind."""
        lo, moves, known = len(self.order), len(self.move_action), len(self.states)
        arrays = self.first_move, self.first_branch, self.dest, self.node_id, self.row_of
        try:
            for s in states:
                self._expand_one(s)
            self._store_batch()
            self.check_stochastic(lo)
        except BaseException:
            for s in self.order[lo:]:
                self.deadlock[s] = False
            for st in self.states[known:]:
                del self._index[st]
            del self.order[lo:], self.move_action[moves:], self.move_tags[moves:]
            del self.states[known:], self.deadlock[known:]
            self.first_move, self.first_branch, self.dest, self.node_id, self.row_of = arrays
            self._batch = ([], [], [], [])
            raise
        if len(self.order) == len(self.states):  # complete: nothing left to expand
            self._successors = self._index = None
        if self._sample_table is not None:
            self._append_rows(lo)

    def expand_all(self):
        """Expand every reachable state, breadth-first in state order."""
        if self._successors is None:  # complete
            return
        rows = self.row_of.tolist()

        def unexpanded():
            s = 0
            while s < len(self.states):  # the states grow as they are expanded
                if s >= len(rows) or rows[s] < 0:
                    yield s
                s += 1

        self.expand(unexpanded())

    def reweigh(self, closed: ClosedModel) -> MarkovModel:
        """The model of `closed` on this complete model's store.  A closed
        model that numbers its weight leaves as this model's nodes do, with
        zero at the same leaves, explores to the same states, moves and
        branches; only the weights differ.  The model returned shares the
        store, its nodes and the reward structures.  Its weights are its
        own: every node evaluated exactly with the leaves of `closed`, on
        which the distribution check runs again."""
        view = copy.copy(self)
        view.weights = self.nodes.evaluate(closed.weight_table)
        view.weight_float = np.array([float(p) for p in view.weights])
        view._passed, view.values = set(), {}
        view._choice_csr = view.choice_moves = view._sample_table = None
        view.check_stochastic()
        return view

    # --- reading the store ----------------------------------------------------

    def choice_csr(self):
        """The choice CSR of a complete model, built once: the move-by-state
        branch matrix, with the moves in state order, and the first move of
        each state followed by the number of moves.  The store's rows are
        taken in state order, by one stable permutation of its moves:
        `choice_moves[i]` is the store move of the matrix's row i."""
        if self._choice_csr is None:
            # imported here: simulation and emission never build this matrix
            from scipy import sparse
            moves = np.diff(self.first_move)  # per row
            mat = sparse.csr_matrix((self.weight_float[self.node_id], self.dest,
                                     self.first_branch),
                                    shape=(len(self.move_action), self.num_states))
            self.choice_moves = np.argsort(np.repeat(self.order, moves), kind="stable")
            mat = mat[self.choice_moves]
            mat.sum_duplicates()  # sorts the columns of each move
            self._choice_csr = (mat, np.concatenate([[0], np.cumsum(moves[self.row_of])]))
        return self._choice_csr

    def sample_table(self) -> SampleTable:
        """The simulation table of the expanded states, built once per model
        and extended by each expansion."""
        if self._sample_table is None:
            self._sample_table = SampleTable(np.zeros(0, dtype=complex),
                                             np.zeros(0, dtype=bool))
            self._append_rows(0)
        return self._sample_table

    def _append_rows(self, lo: int):
        """Append the keys and absorbing flags of the rows from `lo` on."""
        table = self._sample_table
        first_move = self.first_move[lo:]
        start = self.first_branch[first_move]  # per row, then the end
        b0 = start[0]
        start = start - b0
        lens = np.diff(start)
        owner = np.repeat(np.arange(lens.size), lens)
        cum = self.weight_float[self.node_id[b0:]] / np.diff(first_move)[owner]
        # left to right within each row, as np.cumsum of the row adds
        rows = np.flatnonzero(lens > 1)
        j = 1
        while rows.size:
            at = start[rows] + j
            cum[at] += cum[at - 1]
            j += 1
            rows = rows[lens[rows] > j]
        cum[start[1:] - 1] = 1.0
        key = np.empty(cum.size, dtype=complex)
        key.real = owner + lo
        key.imag = cum
        leaves = np.bincount(owner[self.dest[b0:] != np.array(self.order[lo:])[owner]],
                             minlength=lens.size)
        table.key = np.concatenate([table.key, key])
        table.absorbing = np.concatenate([table.absorbing, leaves == 0])

    def check_stochastic(self, lo: int = 0):
        """Exact distribution checks of the rows from `lo` on (default:
        all): every state has a move and every move's branches sum to 1.
        This implies the dtmc row check: a state with k moves has a row
        summing to k * (1/k) * 1 = 1.  Each distinct sequence of weight
        nodes is summed once, in `Fraction` arithmetic, and remembered if it
        passed."""
        empty = np.flatnonzero(np.diff(self.first_move[lo:]) == 0)
        if empty.size:
            raise BuildError(f"state {self.order[lo + empty[0]]} has no moves after completion")
        m0 = int(self.first_move[lo])
        b0 = self.first_branch[m0]
        nodes, start = self.node_id[b0:].tolist(), 0
        for m, end in enumerate((self.first_branch[m0 + 1:] - b0).tolist(), m0):
            key, start = tuple(nodes[start:end]), end
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
    """Computes the moves of a state from the closed model's step tables and
    environment commands.  A move is (action, tags, branches), each branch
    (weight node, [(variable index, value)]).  An expression that fails is
    reported as a BuildError naming the step and the state, by one of three
    boundaries: per machine step, per environment command and per applied
    move, where the new values meet their variables' domains.  A partner's
    guard is evaluated within the step that initiates the joint step."""

    def __init__(self, closed: ClosedModel):
        self.c = closed
        self.env_modules = [(closed.env_alphabet[name], closed.env_commands[name])
                            for name in sorted(closed.env_commands)]
        self.domains = [None if v.kind in ("pc", "lock", "exit") else v for v in closed.vars]

    def _error(self, tag: str, state, exc: EvalError) -> BuildError:
        valuation = ", ".join(f"{v.name}={_fmt_value(x)}" for v, x in zip(self.c.vars, state))
        return BuildError(f"{tag} at state ({valuation}): {exc}")

    # machine steps -----------------------------------------------------------

    def _machine_steps(self, m: MachineRT, state) -> list:
        """Execute the machine's step table entries that match the state."""
        pc = state[m.pc_i]
        lk = state[m.lk_i]
        if lk == LOCK_FREE:
            steps = m.initiations.get(pc, ())
        else:
            exit_v = state[m.exit_i] if m.exit_i is not None else EXIT_NONE
            steps = m.locked.get((pc, exit_v))
            if steps is None:
                raise BuildError(f"machine {m.mach.name}: no step at pc {pc!r} "
                                 f"(lock {lk}, exit flag {exit_v})")
        moves = []
        for st in steps:
            try:
                if st.lock not in (None, LOCK_HELD, lk) \
                        or st.guard is not None and not st.guard.fn(state):
                    continue
                if st.error is not None:
                    raise st.error
                if st.partner is None:
                    entries = st.entries
                elif state[st.partner.lk_i] != LOCK_FREE:
                    continue
                else:
                    entries = st.joints.get(state[st.partner.pc_i], ())
                for entry in entries:
                    moves.extend(self._entry_moves(entry, state))
            except EvalError as exc:
                raise self._error(st.tag, state, exc) from exc
        return moves

    def _entry_moves(self, entry: Entry, state):
        if entry.plain:
            return ((entry.tag, _NO_TAGS, entry.parts[0][0].branches),)
        if len(entry.parts) > 1:
            guard = entry.parts[1][0].guard
            if guard is not None and not guard.fn(state):
                return ()
        if entry.error is not None:
            raise entry.error
        updates = []
        for st, added in entry.parts:
            updates.extend(st.control)
            updates.extend([(i, t.fn(state)) for i, t in st.updates])
            updates.extend([(i, t.fn(state)) for i, t in added])
        if entry.closure is None:
            return ((entry.tag, _NO_TAGS, [(ONE, updates)]),)
        return self._with_env(state, entry.tag, updates, entry.closure.tags)

    # environment modules -------------------------------------------------------

    def _env_command(self, cmd: EnvCommandRT, state):
        """The branches of an environment command at a state, their values
        evaluated, or None where its guard is false."""
        try:
            if not cmd.guard.fn(state):
                return None
            return [(w, [(i, t.fn(state)) for i, t in upd]) for w, upd in cmd.branches]
        except EvalError as exc:
            raise self._error(cmd.tag, state, exc) from exc

    def _with_env(self, state, tag, updates, tags) -> list:
        """Join a tagged model step with matching environment-module commands."""
        participants = []
        for alphabet, commands in self.env_modules:
            if not (alphabet & tags):
                continue
            enabled = []
            for cmd in commands:
                if cmd.label_tag in tags:
                    branches = self._env_command(cmd, state)
                    if branches is not None:
                        enabled.append((cmd.tag, branches))
            if not enabled:
                return []  # the step is blocked by this module
            participants.append(enabled)
        product = self.c.weight_table.product
        out = []
        for combo in itertools.product(*participants):
            branches = [(ONE, updates)]
            jtag = tag
            for cmd_tag, cmd_branches in combo:
                jtag += f"+{cmd_tag}"
                branches = [(product(p0, p1), upd0 + upd1) for p0, upd0 in branches
                            for p1, upd1 in cmd_branches]
            out.append((jtag, tags, branches))
        return out

    def _env_interleavings(self, state) -> list:
        out = []
        for _, commands in self.env_modules:
            for cmd in commands:
                if cmd.label_tag is None:
                    branches = self._env_command(cmd, state)
                    if branches is not None:
                        out.append((cmd.tag, _NO_TAGS, branches))
        return out

    # one state ----------------------------------------------------------------

    def successors(self, state):
        """The moves of a state and its deadlock flag, as the successors
        function of `MarkovModel`.  A state without any move loops, and is a
        deadlock unless every machine rests in a terminal state.  The updates
        of each move's branches of positive weight meet their variables'
        domains."""
        pending = []
        for m in self.c.machines:
            pending.extend(self._machine_steps(m, state))
        pending.extend(self._env_interleavings(state))
        if not pending:
            return [("loop", _NO_TAGS, [(ONE, state)])], self._is_deadlock(state)
        if len(pending) > 1:
            pending.sort(key=lambda mv: mv[0])
        domains, zero = self.domains, self.c.weight_table.zero
        moves = []
        for action, tags, branches in pending:
            applied = []
            try:
                for w, updates in branches:
                    if w in zero:
                        continue
                    new = list(state)
                    for idx, value in updates:
                        info = domains[idx]
                        if info is not None:
                            _check_domain(info, value)
                        new[idx] = value
                    applied.append((w, tuple(new)))
            except EvalError as exc:
                raise self._error(action, state, exc) from exc
            moves.append((action, tags, applied))
        return moves, False

    def _is_deadlock(self, state) -> bool:
        """No moves: deadlock unless every machine rests in a terminal stable state."""
        return any(state[m.lk_i] != LOCK_FREE or m.trans_from.get(state[m.pc_i])
                   for m in self.c.machines)


def open_markov(closed: ClosedModel, max_states: int = DEFAULT_STATE_CAP) -> MarkovModel:
    """The closed model's Markov model, of which only the initial state is
    known; `MarkovModel.expand` explores it on demand."""
    return MarkovModel(closed.kind, tuple(v.name for v in closed.vars),
                       [closed.initial_state()], _Explorer(closed).successors,
                       closed.weight_table, max_states=max_states)


def build_markov(closed: ClosedModel, max_states: int = DEFAULT_STATE_CAP) -> MarkovModel:
    """Explore the closed model breadth-first into an explicit Markov model."""
    mm = open_markov(closed, max_states)
    mm.expand_all()
    return mm


# --- rewards ---------------------------------------------------------------------


def attach_rewards(mm: MarkovModel, decl: P.RewardsDecl, closed: ClosedModel) -> MarkovModel:
    """Evaluate a rewards declaration over the expanded states of mm and
    attach it; its `cover` evaluates it over the states expanded later.  An
    item adds its value to its state's reward, or with an event to the
    reward of each of the state's moves that the event tags, summed in
    float in item order."""
    items = []
    for item in decl.items:
        tag = None
        if item.event is not None:
            ref, _ = closed.resolver.resolve_event(item.event)
            if ref is None:
                raise BuildError(f"rewards {decl.name}: cannot resolve {item.event}")
            tag = (ref.qualified(), item.event.direction)
        items.append((tag, closed.spec_expr(item.guard), closed.spec_expr(item.value, real=True)))

    def evaluate(mm: MarkovModel, lo: int):
        first_move = mm.first_move[lo:].tolist()
        m0 = first_move[0]
        state_r, move_r = np.zeros(len(first_move) - 1), np.zeros(first_move[-1] - m0)
        for r, s in enumerate(mm.order[lo:]):
            state = mm.states[s]
            for tag, guard_fn, value_fn in items:
                try:
                    if not guard_fn(state):
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
