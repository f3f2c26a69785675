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
observations.  Environment modules gate and join steps through their
command labels, and interleave through their unlabelled commands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from . import ast as A
from . import model as M
from . import props as P
from .resolve import ModelScope, Resolver

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
    if isinstance(expr, A.Lit):
        return expr.value
    if isinstance(expr, A.Unary) and expr.op == "neg":
        inner = _literal(expr.operand)
        if inner is None or isinstance(inner, (bool, str)):
            raise BuildError("cannot negate a non-numeric configuration literal")
        return -inner
    if isinstance(expr, A.Ref) and len(expr.name.segments) == 2:
        return str(expr.name)  # enum literal, stored as "Enum::Literal"
    raise BuildError(f"configuration values must be literals, got {type(expr).__name__}")


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
    return value


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
    has_platform: bool


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
            has_platform = False
            for m in members:
                kind, owner, decl = self._endpoint_info[m]
                if decl.payload is not None:
                    payload = decl.payload
                if kind == "platform":
                    has_platform = True
            in_use = any(m in used for m in members)
            latch = f"latch.{cid}" if payload is not None and in_use else None
            closure = Closure(cid, frozenset(members), frozenset(tags), payload, latch,
                              has_platform)
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


# --- closed model ----------------------------------------------------------------


@dataclass
class CommSpec:
    closure: Closure
    endpoint: str
    direction: str  # "in" | "out"
    value_fn: object = None  # state -> value, for sends with payload
    bind_idx: int | None = None  # receiver variable index
    value: A.Expr | None = None  # the sent value expression


@dataclass
class Constituent:
    kind: str  # "update" | "comm"
    update_fn: object = None  # state -> [(idx, value)]
    comm: CommSpec | None = None
    source_action: M.Action | None = None


@dataclass
class TransitionRT:
    t: M.Transition
    guard_fn: object  # state -> bool
    parts: list[Constituent]
    trigger_comm: CommSpec | None
    target_is_junction: bool
    src_exit: list[Constituent]
    tgt_entry_len: int


LOCK_HELD = "*"  # a lock guard that any held lock meets; no transition id is "*"


@dataclass(frozen=True)
class Step:
    """One micro-step of a machine, fixed when the machine is compiled.

    Its guard is on the control variables only: the program counter `pc`,
    the `lock` (LOCK_FREE, a transition id, LOCK_HELD, or None where the pc
    alone implies a held lock) and the `exit` flag (None: unconstrained).
    `branches` are the weighted updates of those control variables.  An
    initiation carries its transition `rt` (guard and trigger), a chain step
    the action constituent `part` it runs; whoever executes or prints the
    step evaluates those."""
    tag: str
    pc: str
    lock: object
    exit: str | None
    branches: tuple  # ((weight, ((var index, value), ...)), ...)
    rt: TransitionRT | None = None
    part: Constituent | None = None

    @property
    def updates(self) -> tuple:
        return self.branches[0][1]


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
        self.rt: dict[str, TransitionRT] = {}
        self.entry: dict[str, list[Constituent]] = {}
        self.exit: dict[str, list[Constituent]] = {}
        self.junction_weights: dict[str, list[tuple[M.Transition, Fraction]]] = {}

    def endpoint(self, event: str) -> str:
        return self.closed.closures.machine_endpoint(self.ctrl, self.mach, event)

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
        if k < len(self.rt[t.id].parts):
            return self.act_pc(t.id, k)
        return t.target if t.target in self.junctions else self.entering_pc(t.target)

    def compile_steps(self):
        """Build the step table, in the order the PRISM emitter prints it:
        `steps` lists every step, `initiations` the steps of each free node
        and `locked` those of each locked (pc, exit flag) position."""
        pc, lk, ex = self.pc_i, self.lk_i, self.exit_i
        by_id = sorted(self.mach.transitions, key=lambda t: t.id)
        steps: list[Step] = []

        def step(tag, at, lock, exit_, updates, **kw):
            return Step(f"{self.name}.{tag}", at, lock, exit_, ((Fraction(1), tuple(updates)),),
                        **kw)

        for t in by_id:
            if t.source in self.junctions:
                continue  # junction branches are one step at the junction
            rt = self.rt[t.id]
            if rt.src_exit:
                updates = [(lk, t.id), (ex, EXIT_ACT)]
            elif rt.parts or rt.target_is_junction or rt.tgt_entry_len:
                updates = [(lk, t.id), (pc, self._chain_pc(t))]
            else:
                updates = [(pc, t.target)]
            steps.append(step(t.id, t.source, LOCK_FREE,
                              EXIT_NONE if ex is not None else None, updates, rt=rt))
        for j in sorted(self.junctions):
            branches = tuple((w, ((pc, self._chain_pc(t)),)) for t, w in self.junction_weights[j])
            steps.append(Step(f"{self.name}.{j}", j, LOCK_HELD, None, branches))
        for t in by_id:
            for k, part in enumerate(self.rt[t.id].parts):
                steps.append(step(f"{t.id}@act{k}", self.act_pc(t.id, k), None, None,
                                  [(pc, self._chain_pc(t, k + 1))], part=part))
        chunks = {}
        for s in sorted(self.states):
            chunk = chunks[s] = []
            entry = self.entry[s]
            for k, part in enumerate(entry):
                at = self.entering_pc(s) if k == 0 else self.entry_pc(s, k)
                post = [(pc, s), (lk, LOCK_FREE)] if k + 1 == len(entry) \
                    else [(pc, self.entry_pc(s, k + 1))]
                chunk.append(step(f"enter_{s}@{k}", at, None, None, post, part=part))
            exit_ = self.exit[s]
            if not exit_:
                continue
            for t in self.trans_from.get(s, ()):  # each runs the exit chain under its lock
                for k, part in enumerate(exit_):
                    post = [(pc, self.exit_pc(s, k + 1))]
                    if k + 1 == len(exit_):
                        post.append((ex, EXIT_EXITED))
                    chunk.append(step(f"{t.id}@exit{k}", self.exit_pc(s, k) if k else s,
                                      t.id, EXIT_ACT, post, part=part))
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
    module: str
    index: int
    label_tag: tuple[str, str] | None  # (endpoint, dir)
    guard_fn: object
    branches: list[tuple[Fraction, list]]  # (prob, [(idx, value_fn)])


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
                    info = VarInfo(f"env.{mod.name}.{v.name}", "env", domain, init)
                    _check_domain(info, init)
                    add(info)
        for closure in self.closures.closures:
            if closure.latch is not None:
                domain = _domain_of_typeref(closure.payload, model)
                add(VarInfo(closure.latch, "latch", domain, _default_for(domain)))

    def _const_value(self, expr: A.Expr, what: str, scope: ModelScope | None = None,
                     real: bool = False):
        fn = self._compile(expr, scope=scope, params=None, real=real)
        try:
            return fn(None)
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
            return self._compile_ref(e, scope, params, fstack)
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
            return self._compile_call(e, scope, params, fstack)
        if isinstance(e, A.ParamRef):
            if params is None or e.name not in params:
                raise BuildError(f"``{e.name} is not a parameter in scope")
            fn = params[e.name]
            return fn
        if isinstance(e, A.IsIn):
            return self._compile_isin(e)
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
            return self._compile(decl.body, None, params, fstack + (e.name,))
        if isinstance(e, A.ModVarRef):
            return self._compile_modvar(e)
        if isinstance(e, A.EventVal):
            ref, diags = self.resolver.resolve_event(e.event)
            if ref is None:
                raise BuildError(f"cannot resolve event {e.event}: "
                                 + "; ".join(str(d) for d in diags))
            endpoint = ref.qualified()
            closure = self.closures.by_endpoint.get(endpoint)
            if closure is None or closure.latch is None:
                raise BuildError(f"event {e.event} carries no value")
            idx = self.index[closure.latch]
            return lambda s: s[idx]
        raise BuildError(f"cannot evaluate {type(e).__name__} in a state expression")

    def _compile_ref(self, e: A.Ref, scope, params, fstack):
        segs = e.name.segments
        if scope is not None:
            # model-scope lexical resolution
            if len(segs) == 2 and self.model.enum(segs[0]) is not None:
                value = f"{segs[0]}::{segs[1]}"
                return lambda s: value
            if len(segs) == 1:
                name = segs[0]
                if params is not None and name in params:
                    return params[name]
                if name in scope.consts:
                    if name not in self.consts:
                        raise BuildError(f"constant {name} has no value")
                    value = self.consts[name]
                    return lambda s: value
                if name in scope.vars:
                    idx = self.index[scope.vars[name][0]]
                    return _state_read(idx)
            raise BuildError(f"unknown name {e.name} in machine {scope.mach.name}")
        # property-scope qualified resolution
        if len(segs) == 2 and self.model.enum(segs[0]) is not None:
            value = str(e.name)
            return lambda s: value
        if len(segs) == 1 and segs[0] in self.consts:
            value = self.consts[segs[0]]
            return lambda s: value
        ref, diags = self.resolver.resolve_fqn(e.name)
        if ref is None or any(d.severity == "error" for d in diags):
            raise BuildError(f"cannot resolve {e.name}: " + "; ".join(str(d) for d in diags))
        if ref.kind == "variable":
            idx = self.index[ref.flat]
            return _state_read(idx)
        if ref.kind == "constant":
            name = ref.path[-1]
            if name not in self.consts:
                raise BuildError(f"constant {e.name} has no value in this configuration")
            value = self.consts[name]
            return lambda s: value
        if ref.kind == "enumLiteral":
            value = "::".join(ref.path)
            return lambda s: value
        raise BuildError(f"{e.name} ({ref.kind}) is not usable in a state expression")

    def _compile_call(self, e: A.FunCall, scope, params, fstack):
        if e.name in fstack:
            raise BuildError(f"recursive function {e.name!r}")
        fdef = self.functions.get(e.name)
        if fdef is None:
            raise BuildError(f"function {e.name!r} has no definition")
        if len(e.args) != len(fdef.params):
            raise BuildError(f"{e.name} expects {len(fdef.params)} arguments, got {len(e.args)}")
        arg_fns = [self._compile(a, scope, params, fstack) for a in e.args]
        env = dict(zip(fdef.params, arg_fns))
        return self._compile(fdef.body, None, env, fstack + (e.name,))

    def _compile_isin(self, e: A.IsIn):
        left, d1 = self.resolver.resolve_fqn(e.container)
        right, d2 = self.resolver.resolve_fqn(e.state)
        if left is None or right is None or left.kind != "machineInstance" \
                or right.kind != "state":
            raise BuildError(f"bad 'is in' operands: {e.container} is in {e.state}")
        ctrl = left.owner
        mach = left.decl
        pc_i = self.index[f"{ctrl.name}.{mach.name}.pc"]
        target = right.decl.name
        return lambda s: s[pc_i] == target

    def _compile_modvar(self, e: A.ModVarRef):
        if self.env is None:
            raise BuildError(f"@{e.var}: no environment modules in this configuration")
        candidates = []
        for mod in self.env.modules:
            if e.module is not None and mod.name != e.module:
                continue
            for v in mod.variables:
                if v.name == e.var:
                    candidates.append((mod, v))
        if not candidates:
            raise BuildError(f"unknown environment variable @{e.var}")
        if len(candidates) > 1:
            raise BuildError(f"environment variable @{e.var} is ambiguous")
        mod, v = candidates[0]
        idx = self.index[f"env.{mod.name}.{v.name}"]
        return _state_read(idx)

    def spec_expr(self, e: A.Expr):
        """Compile a property expression to a state closure."""
        return self._compile(e, None, None)

    # --- machines ------------------------------------------------------------

    def _compile_machines(self):
        self.machines: list[MachineRT] = []
        for ctrl in self.model.controllers:
            for mach in ctrl.machines:
                self.machines.append(self._compile_machine(ctrl, mach))
        users: dict[str, list[int]] = {}
        for i, m in enumerate(self.machines):
            for cid in m.uses_closures:
                users.setdefault(cid, []).append(i)
        self.closure_users = users

    def _compile_machine(self, ctrl, mach) -> MachineRT:
        rt = MachineRT(self, ctrl, mach)
        for s in mach.states:
            rt.entry[s.name] = [self._constituent(rt, a) for a in M.atomic_parts(s.entry)]
            rt.exit[s.name] = [self._constituent(rt, a) for a in M.atomic_parts(s.exit)]
        for t in mach.transitions:
            parts = [self._constituent(rt, a) for a in M.atomic_parts(t.action)]
            guard_fn = self._compile(t.guard, rt.scope, None) if t.guard is not None \
                else (lambda s: True)
            trigger_comm = self._trigger_comm(rt, t) if t.trigger is not None else None
            src_state = rt.states.get(t.source)
            src_exit = rt.exit.get(t.source, []) if src_state is not None else []
            entry_len = len(rt.entry.get(t.target, []))
            rt.rt[t.id] = TransitionRT(
                t, guard_fn, parts, trigger_comm,
                target_is_junction=t.target in rt.junctions,
                src_exit=src_exit, tgt_entry_len=entry_len,
            )
        for j in mach.junctions:
            outs = rt.trans_from.get(j, [])
            weights = []
            for t in outs:
                w = self._const_value(t.prob, f"probability of {t.id}", rt.scope, real=True)
                w = Fraction(w)
                if not (0 <= w <= 1):
                    raise BuildError(f"probability of {t.id} is {w}, outside [0,1]")
                weights.append((t, w))
            total = sum(w for _, w in weights)
            if total != 1:
                raise BuildError(
                    f"junction {j} of {mach.name}: outgoing probabilities sum to {total}, not 1")
            rt.junction_weights[j] = weights
        rt.compile_steps()
        return rt

    def _constituent(self, rt: MachineRT, a: M.Action) -> Constituent:
        if isinstance(a, M.Assign):
            flat, decl = rt.scope.vars[a.target]
            idx = self.index[flat]
            fn = self._compile(a.expr, rt.scope, None)
            info = self.vars[idx]
            return Constituent("update", update_fn=_single_update(idx, fn, info),
                               source_action=a)
        if isinstance(a, M.OpCall):
            op = self.operations.get(a.name)
            if op is None:
                raise BuildError(f"operation {a.name!r} has no definition")
            if len(a.args) != len(op.params):
                raise BuildError(f"{a.name} expects {len(op.params)} arguments")
            arg_fns = [self._compile(x, rt.scope, None) for x in a.args]
            env = dict(zip(op.params, arg_fns))
            targets = []
            for target_qn, value_expr in op.assignments:
                ref, diags = self.resolver.resolve_fqn(target_qn)
                if ref is None or ref.kind != "variable":
                    raise BuildError(f"operation {a.name}: bad assignment target {target_qn}")
                tidx = self.index[ref.flat]
                vfn = self._compile(value_expr, None, env)
                targets.append((tidx, vfn, self.vars[tidx]))

            def update_fn(s, targets=targets):
                return [(i, _check_domain(info, fn(s))) for i, fn, info in targets]

            return Constituent("update", update_fn=update_fn, source_action=a)
        if isinstance(a, M.IfAction):
            for branch in (a.then, a.orelse):
                for part in M.atomic_parts(branch):
                    if isinstance(part, M.Comm):
                        raise BuildError(
                            "conditional actions containing communications are not supported")
            cond = self._compile(a.cond, rt.scope, None)
            then_parts = [self._constituent(rt, x) for x in M.atomic_parts(a.then)]
            else_parts = [self._constituent(rt, x) for x in M.atomic_parts(a.orelse)]

            def update_fn(s, cond=cond, then_parts=then_parts, else_parts=else_parts):
                out = []
                for c in (then_parts if cond(s) else else_parts):
                    out.extend(c.update_fn(s))
                return out

            return Constituent("update", update_fn=update_fn, source_action=a)
        if isinstance(a, M.Comm):
            return Constituent("comm", comm=self._comm_spec(rt, a.event, a.op, a.value, a.var),
                               source_action=a)
        raise AssertionError(type(a).__name__)

    def _comm_spec(self, rt: MachineRT, event: str, op: str, value: A.Expr | None,
                   var: str | None) -> CommSpec:
        decl = rt.scope.events.get(event)
        if decl is None:
            raise BuildError(f"machine {rt.mach.name} declares no event {event!r}")
        endpoint = rt.endpoint(event)
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
        value_fn = self._compile(value, rt.scope, None) if value is not None else None
        bind_idx = None
        if var is not None:
            flat, vdecl = rt.scope.vars[var]
            bind_idx = self.index[flat]
        return CommSpec(closure, endpoint, direction, value_fn, bind_idx, value)

    def _trigger_comm(self, rt: MachineRT, t: M.Transition) -> CommSpec:
        tr = t.trigger
        return self._comm_spec(rt, tr.event, tr.op, tr.value, tr.var)

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
                guard_fn = self.spec_expr(cmd.guard)
                branches = self._env_branches(mod, cmd)
                cmds.append(EnvCommandRT(mod.name, i, label_tag, guard_fn, branches))
            self.env_commands[mod.name] = cmds
            self.env_alphabet[mod.name] = alphabet

    def _env_branches(self, mod: P.PModule, cmd: P.PCommand):
        var_idx = {}
        for v in mod.variables:
            var_idx[v.name] = self.index[f"env.{mod.name}.{v.name}"]
        if not cmd.updates:
            return [(Fraction(1), [])]
        with_prob = [u for u in cmd.updates if u.prob is not None]
        if with_prob and len(with_prob) != len(cmd.updates):
            raise BuildError(f"pmodule {mod.name}: mixed probabilistic and plain updates")
        if with_prob:
            branches = []
            total = Fraction(0)
            for u in cmd.updates:
                p = Fraction(self._const_value(u.prob, "update probability", real=True))
                total += p
                idx = var_idx[u.var]
                fn = self.spec_expr(u.expr)
                info = self.vars[idx]
                branches.append((p, [(idx, _checked_fn(fn, info))]))
            if total != 1:
                raise BuildError(f"pmodule {mod.name}: update probabilities sum to {total}, not 1")
            return branches
        updates = []
        for u in cmd.updates:
            idx = var_idx[u.var]
            fn = self.spec_expr(u.expr)
            updates.append((idx, _checked_fn(fn, self.vars[idx])))
        return [(Fraction(1), updates)]


def _state_read(idx):
    def read(s):
        if s is None:
            raise EvalError("expression needs a state")
        return s[idx]
    return read


def _checked_fn(fn, info):
    return lambda s: _check_domain(info, fn(s))


def _single_update(idx, fn, info):
    def update(s):
        return [(idx, _check_domain(info, fn(s)))]
    return update


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
class Move:
    action: str
    # in the order the explorer generated them, each destination once
    branches: tuple[tuple[Fraction, int], ...]
    tags: frozenset = frozenset()


@dataclass
class SampleTable:
    """Successor distributions of the expanded states for simulation, one
    row per state in expansion order (`MarkovModel.order`).  The entries of
    a row are every positive branch of each of its state's k moves, moves in
    order and branches as stored, with weight p/k, and the entries of row r
    come before those of r + 1.  `key` is the complex number r + c*1j per
    entry, where c sums the row's weights left to right up to the entry,
    the last one set to 1.0: numpy orders complex numbers by real and then
    imaginary part, so one searchsorted over `key` compares u with the
    cumulative weights of the path's own row, exactly.  Rows are appended
    as states are expanded, and their keys stay sorted.  `move` numbers
    each entry's move in expansion order; the moves of row r are
    `bounds[r]` to `bounds[r + 1]`."""
    key: np.ndarray
    dest: np.ndarray  # state index
    move: np.ndarray
    absorbing: np.ndarray  # per row: every entry leads back to its state
    row: np.ndarray  # per known state: its row, -1 while unexpanded
    bounds: np.ndarray


@dataclass
class RewardStructure:
    name: str
    state: list  # Fraction per state
    move: dict  # (state, move index) -> Fraction


class MarkovModel:
    """An explicit Markov model, possibly still growing.

    `states` lists every state known so far, `moves[s]` is None until state
    s is expanded, and `order` lists the expanded states in the order they
    were.  A model built by hand, or by `build_markov`, is complete: every
    known state is expanded.  A model from `MarkovModel.open` starts with
    its initial state and grows through `expand`, one state at a time, by
    its `successors` function: state -> (moves, deadlock, quiescent), each
    move (action, tags, [(probability, successor state)]) with the branches
    in the order they are generated."""

    def __init__(self, kind: str, var_names: tuple[str, ...], states: list[tuple],
                 moves: list[list[Move] | None], deadlock: list[bool],
                 quiescent: list[bool], initial: int = 0):
        self.kind = kind
        self.var_names = var_names
        self.states = states
        self.moves = moves
        self.deadlock = deadlock
        self.quiescent = quiescent
        self.initial = initial
        self.order = [s for s, row in enumerate(moves) if row is not None]
        self.rewards: dict[str, RewardStructure] = {}
        # state formula values per (expression, context), `ExactChecker._on_model`:
        # [expression, context, values]; both are kept so their ids are not reused
        self.values: dict[tuple[int, int], list] = {}
        self._successors = None
        self._index: dict[tuple, int] | None = None
        self._max_states = DEFAULT_STATE_CAP
        self._short_names = None
        self._choice_csr = None
        self._sample_table = None

    @classmethod
    def open(cls, kind: str, var_names: tuple[str, ...], initial: tuple, successors,
             max_states: int = DEFAULT_STATE_CAP) -> "MarkovModel":
        """A model that knows its initial state only and expands on demand."""
        mm = cls(kind, var_names, [initial], [None], [False], [False])
        mm._successors = successors
        mm._index = {initial: 0}
        mm._max_states = max_states
        return mm

    @property
    def num_states(self) -> int:
        return len(self.states)

    def num_transitions(self) -> int:
        """Branches of the expanded states."""
        return sum(len(mv.branches) for s in self.order for mv in self.moves[s])

    # --- expansion ------------------------------------------------------------

    def _discover(self, state: tuple) -> int:
        if len(self.states) >= self._max_states:
            raise BuildError(f"state-space cap of {self._max_states} states exceeded")
        s = self._index[state] = len(self.states)
        self.states.append(state)
        self.moves.append(None)
        self.deadlock.append(False)
        self.quiescent.append(False)
        return s

    def _expand_one(self, s: int):
        moves, self.deadlock[s], self.quiescent[s] = self._successors(self.states[s])
        index = self._index
        row = []
        for action, tags, branches in moves:
            merged: dict[int, Fraction] = {}  # first occurrence order
            for p, succ in branches:
                dst = index.get(succ)
                if dst is None:
                    dst = self._discover(succ)
                merged[dst] = merged[dst] + p if dst in merged else p
            row.append(Move(action, tuple((p, dst) for dst, p in merged.items()), tags))
        self.moves[s] = row
        self.order.append(s)

    def expand(self, states):
        """Expand the given unexpanded states, in order; their successors
        become known states.  The distribution check applies to them."""
        lo = len(self.order)
        for s in states:
            self._expand_one(s)
        self._expanded_from(lo)

    def expand_all(self):
        """Expand every reachable state, breadth-first in state order."""
        lo = len(self.order)
        s = 0
        while s < len(self.states):
            if self.moves[s] is None:
                self._expand_one(s)
            s += 1
        self._expanded_from(lo)

    def _expanded_from(self, lo: int):
        if len(self.order) == len(self.states):  # complete: nothing left to expand
            self._successors = self._index = None
        self.check_stochastic(self.order[lo:])
        if self._sample_table is not None:
            self._append_rows(lo)

    def row(self, s: int) -> dict[int, Fraction]:
        """The dtmc distribution of state s: uniform mixture over its moves."""
        moves = self.moves[s]
        k = len(moves)
        out: dict[int, Fraction] = {}
        share = Fraction(1, k)
        for mv in moves:
            for p, dst in mv.branches:
                out[dst] = out.get(dst, Fraction(0)) + share * p
        return out

    def choice_csr(self):
        """The choice CSR, built once per model: the move-by-state branch
        matrix (one row per move, positive entries only) and the first move
        of each state, followed by the number of moves."""
        if self._choice_csr is None:
            n = self.num_states
            counts = np.fromiter(map(len, self.moves), dtype=np.int64, count=n)
            bounds = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            branches = [mv.branches for row in self.moves for mv in row]
            indptr = np.zeros(len(branches) + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, branches), dtype=np.int64,
                                  count=len(branches)), out=indptr[1:])
            flat = [b for mv_branches in branches for b in mv_branches]
            data = np.fromiter((float(p) for p, _ in flat), dtype=float, count=len(flat))
            cols = np.fromiter((d for _, d in flat), dtype=np.int64, count=len(flat))
            mat = sparse.csr_matrix((data, cols, indptr), shape=(len(branches), n))
            mat.sum_duplicates()
            mat.eliminate_zeros()
            self._choice_csr = (mat, bounds)
        return self._choice_csr

    def sample_table(self) -> SampleTable:
        """The simulation table of the expanded states, built once per model
        and extended by each expansion."""
        if self._sample_table is None:
            empty = np.zeros(0, dtype=np.int64)
            self._sample_table = SampleTable(np.zeros(0, dtype=complex), empty, empty,
                                             np.zeros(0, dtype=bool), empty,
                                             np.zeros(1, dtype=np.int64))
            self._append_rows(0)
        return self._sample_table

    def _append_rows(self, lo: int):
        """Append the rows of the states expanded from `order[lo]` on."""
        table = self._sample_table
        expanded = np.array(self.order[lo:], dtype=np.int64)
        moves = [self.moves[s] for s in self.order[lo:]]
        counts = np.fromiter(map(len, moves), dtype=np.int64, count=len(moves))
        branches = [mv.branches for row in moves for mv in row]
        sizes = np.fromiter(map(len, branches), dtype=np.int64, count=len(branches))
        first = table.bounds[-1]
        owner = np.repeat(np.repeat(np.arange(len(moves)), counts), sizes)
        move = np.repeat(np.arange(first, first + len(branches)), sizes)
        flat = [b for bs in branches for b in bs]
        weight = np.fromiter((float(p) for p, _ in flat), dtype=float, count=len(flat))
        dest = np.fromiter((d for _, d in flat), dtype=np.int64, count=len(flat))
        positive = weight > 0
        owner, move, weight, dest = owner[positive], move[positive], weight[positive], \
            dest[positive]
        lens = np.bincount(owner, minlength=len(moves))
        start = np.zeros(len(moves) + 1, dtype=np.int64)
        np.cumsum(lens, out=start[1:])
        cum = weight / counts[owner]
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
        leaves = np.bincount(owner[dest != expanded[owner]], minlength=len(moves))
        table.key = np.concatenate([table.key, key])
        table.dest = np.concatenate([table.dest, dest])
        table.move = np.concatenate([table.move, move])
        table.absorbing = np.concatenate([table.absorbing, leaves == 0])
        table.bounds = np.concatenate([table.bounds, first + np.cumsum(counts)])
        row = np.full(self.num_states, -1, dtype=np.int64)
        row[:table.row.size] = table.row
        row[expanded] = np.arange(lo, lo + expanded.size)
        table.row = row

    def check_stochastic(self, states=None):
        """Exact distribution checks of the given states (default: every
        state): every state has a move and every move sums to 1.  This
        implies the dtmc row check: a state with k moves has a row summing
        to k * (1/k) * 1 = 1."""
        for s in range(self.num_states) if states is None else states:
            if not self.moves[s]:
                raise BuildError(f"state {s} has no moves after completion")
            for mv in self.moves[s]:
                total = sum(p for p, _ in mv.branches)
                if total != 1:
                    raise BuildError(
                        f"state {s} action {mv.action}: branch probabilities sum to {total}")

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
        for i in range(self.num_states):
            for mv in self.moves[i]:
                tags = ",".join(sorted(f"{ep}.{d}" for ep, d in mv.tags))
                for p, dst in sorted(mv.branches, key=lambda b: b[1]):
                    lines.append(f"{i} ({mv.action}) {p} {dst} [{tags}]")
        return "\n".join(lines) + "\n"


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# --- exploration -----------------------------------------------------------------


@dataclass
class _PendingMove:
    action: str
    branches: list  # (Fraction, updates list[(idx, value)])
    tags: frozenset = frozenset()


class _Explorer:
    def __init__(self, closed: ClosedModel):
        self.c = closed

    # machine steps -----------------------------------------------------------

    def _machine_steps(self, m: MachineRT, state) -> list[_PendingMove]:
        """Execute the machine's step table entries that match the state."""
        pc = state[m.pc_i]
        lk = state[m.lk_i]
        moves = []
        if lk == LOCK_FREE:
            for st in m.initiations.get(pc, ()):
                if not self._enabled(st, state):
                    continue
                comm = st.rt.trigger_comm
                if comm is None:
                    moves.append(_PendingMove(st.tag, [(Fraction(1), list(st.updates))]))
                else:
                    moves.extend(self._comm_moves(m, state, st.tag, list(st.updates), comm,
                                                  initiating=True))
            return moves
        exit_v = state[m.exit_i] if m.exit_i is not None else EXIT_NONE
        steps = m.locked.get((pc, exit_v))
        if steps is None:
            raise BuildError(f"machine {m.mach.name}: no step at pc {pc!r} "
                             f"(lock {lk}, exit flag {exit_v})")
        for st in steps:
            if st.lock not in (None, LOCK_HELD, lk):
                continue
            if st.part is None:
                moves.append(_PendingMove(st.tag, [(p, list(u)) for p, u in st.branches]))
            else:
                moves.extend(self._constituent_moves(m, state, st.tag, list(st.updates),
                                                     st.part))
        return moves

    @staticmethod
    def _enabled(st: Step, state) -> bool:
        try:
            return st.rt.guard_fn(state)
        except EvalError as exc:
            raise BuildError(f"guard of {st.rt.t.id}: {exc}") from exc

    def _constituent_moves(self, m, state, tag, structural_updates, c: Constituent):
        if c.kind == "update":
            try:
                updates = structural_updates + c.update_fn(state)
            except EvalError as exc:
                raise BuildError(f"{tag}: {exc}") from exc
            return [_PendingMove(tag, [(Fraction(1), updates)])]
        return self._comm_moves(m, state, tag, structural_updates, c.comm, initiating=False)

    # communication --------------------------------------------------------------

    def _comm_moves(self, m: MachineRT, state, tag, base_updates, comm: CommSpec,
                    initiating: bool) -> list[_PendingMove]:
        closure = comm.closure
        users = [i for i in self.c.closure_users.get(closure.cid, ())
                 if self.c.machines[i] is not m]
        value = None
        if comm.value_fn is not None:
            try:
                value = comm.value_fn(state)
            except EvalError as exc:
                raise BuildError(f"{tag}: {exc}") from exc
        my_updates = list(base_updates)
        if comm.bind_idx is not None and not users and closure.payload is not None:
            # platform-driven input: enumerate the payload domain
            if comm.direction != "in":
                raise BuildError(f"{tag}: output trigger with a binding variable")
            domain = _domain_of_typeref(closure.payload, self.c.model)
            if domain[0] == "bool":
                choices = [False, True]
            elif domain[0] == "enum":
                choices = list(domain[1])
            else:
                raise BuildError(
                    f"{tag}: platform input on {closure.cid} has an unbounded payload type; "
                    "bound it with an enumeration or bool")
            out = []
            for v in choices:
                upd = list(my_updates) + [(comm.bind_idx, v)]
                if closure.latch is not None:
                    upd.append((self.c.index[closure.latch], v))
                out.extend(self._with_env(m, state, f"{tag}={_fmt_value(v)}", upd,
                                          closure.tags))
            return out
        if value is not None and closure.latch is not None:
            my_updates.append((self.c.index[closure.latch], value))

        if not users:
            return self._with_env(m, state, tag, my_updates, closure.tags)

        if comm.direction == "in" and initiating:
            # receivers respond to senders; they do not initiate against machines
            return []
        if len(users) > 1:
            raise BuildError(
                f"synchronisation on {closure.cid} involves more than two machines; "
                "multiway synchronisation is not supported")
        partner = self.c.machines[users[0]]
        if state[partner.lk_i] != LOCK_FREE:
            return []
        want = "in" if comm.direction == "out" else "out"
        out = []
        for st in partner.initiations.get(state[partner.pc_i], ()):
            comm2 = st.rt.trigger_comm
            if comm2 is None or comm2.closure.cid != closure.cid or comm2.direction != want \
                    or not self._enabled(st, state):
                continue
            joint = list(my_updates) + list(st.updates)
            if comm2.bind_idx is not None:
                if value is None:
                    if comm2.closure.payload is not None:
                        raise BuildError(
                            f"{tag}: receiver on {closure.cid} needs a value but the "
                            "sender provides none")
                else:
                    joint.append((comm2.bind_idx, value))
            if comm2.value_fn is not None and comm.bind_idx is not None:
                v2 = comm2.value_fn(state)
                joint.append((comm.bind_idx, v2))
                if closure.latch is not None:
                    joint.append((self.c.index[closure.latch], v2))
            jtag = "+".join(sorted([tag, st.tag]))
            out.extend(self._with_env(m, state, jtag, joint, closure.tags))
        return out

    def _with_env(self, m, state, tag, updates, tags) -> list[_PendingMove]:
        """Join a tagged model step with matching environment-module commands."""
        participants = []
        for mod_name in sorted(self.c.env_commands):
            alphabet = self.c.env_alphabet[mod_name]
            if not (alphabet & tags):
                continue
            candidates = []
            for cmd in self.c.env_commands[mod_name]:
                if cmd.label_tag is None or cmd.label_tag not in tags:
                    continue
                try:
                    if cmd.guard_fn(state):
                        candidates.append(cmd)
                except EvalError as exc:
                    raise BuildError(f"pmodule {mod_name} guard: {exc}") from exc
            if not candidates:
                return []  # the step is blocked by this module
            participants.append(candidates)
        out = []
        for combo in itertools.product(*participants):
            branches = [(Fraction(1), list(updates))]
            jtag = tag
            for cmd in combo:
                jtag += f"+{cmd.module}.c{cmd.index}"
                new_branches = []
                for p0, upd0 in branches:
                    for p1, upd1 in cmd.branches:
                        try:
                            applied = [(i, fn(state)) for i, fn in upd1]
                        except EvalError as exc:
                            raise BuildError(f"pmodule {cmd.module} update: {exc}") from exc
                        new_branches.append((p0 * p1, upd0 + applied))
                branches = new_branches
            out.append(_PendingMove(jtag, branches, tags))
        return out

    def _env_interleavings(self, state) -> list[_PendingMove]:
        out = []
        for mod_name in sorted(self.c.env_commands):
            for cmd in self.c.env_commands[mod_name]:
                if cmd.label_tag is not None:
                    continue
                try:
                    if not cmd.guard_fn(state):
                        continue
                except EvalError as exc:
                    raise BuildError(f"pmodule {mod_name} guard: {exc}") from exc
                branches = []
                for p, upd in cmd.branches:
                    try:
                        applied = [(i, fn(state)) for i, fn in upd]
                    except EvalError as exc:
                        raise BuildError(f"pmodule {cmd.module} update: {exc}") from exc
                    branches.append((p, applied))
                out.append(_PendingMove(f"{cmd.module}.c{cmd.index}", branches))
        return out

    # one state ----------------------------------------------------------------

    def successors(self, state):
        """The moves of a state, as `MarkovModel.open` takes them; a state
        without any is a deadlock, or quiescent, and loops."""
        pending: list[_PendingMove] = []
        for m in self.c.machines:
            pending.extend(self._machine_steps(m, state))
        pending.extend(self._env_interleavings(state))
        if not pending:
            deadlock = self._is_deadlock(state)
            return [("loop", frozenset(), [(Fraction(1), state)])], deadlock, not deadlock
        pending.sort(key=lambda mv: mv.action)
        return [(mv.action, mv.tags, [(p, self._apply(state, updates))
                                      for p, updates in mv.branches if p != 0])
                for mv in pending], False, False

    def _apply(self, state, updates) -> tuple:
        new = list(state)
        for idx, value in updates:
            info = self.c.vars[idx]
            if info.kind not in ("pc", "lock", "exit"):
                _check_domain(info, value)
            new[idx] = value
        return tuple(new)

    def _is_deadlock(self, state) -> bool:
        """No moves: deadlock unless every machine rests in a terminal stable state."""
        return any(state[m.lk_i] != LOCK_FREE or m.trans_from.get(state[m.pc_i])
                   for m in self.c.machines)


def open_markov(closed: ClosedModel, max_states: int = DEFAULT_STATE_CAP) -> MarkovModel:
    """The closed model's Markov model, of which only the initial state is
    known; `MarkovModel.expand` explores it on demand."""
    return MarkovModel.open(closed.kind, tuple(v.name for v in closed.vars),
                            closed.initial_state(), _Explorer(closed).successors, max_states)


def build_markov(closed: ClosedModel, max_states: int = DEFAULT_STATE_CAP) -> MarkovModel:
    """Explore the closed model breadth-first into an explicit Markov model."""
    mm = open_markov(closed, max_states)
    mm.expand_all()
    return mm


# --- rewards ---------------------------------------------------------------------


def attach_rewards(mm: MarkovModel, decl: P.RewardsDecl, closed: ClosedModel) -> MarkovModel:
    """Evaluate a rewards declaration over a built model and attach it."""
    state_rewards, move_rewards = reward_evaluator(mm, decl, closed)(range(mm.num_states))
    mm.rewards[decl.name] = RewardStructure(decl.name, state_rewards, move_rewards)
    return mm


def reward_evaluator(mm: MarkovModel, decl: P.RewardsDecl, closed: ClosedModel):
    """The rewards of some expanded states of mm: states -> (state reward
    per state, {(state, move index): reward} for the moves that some item's
    event tags)."""
    compiled = []
    for item in decl.items:
        guard_fn = closed.spec_expr(item.guard)
        value_fn = closed.spec_expr(item.value)
        tag = None
        if item.event is not None:
            ref, diags = closed.resolver.resolve_event(item.event)
            if ref is None:
                raise BuildError(f"rewards {decl.name}: cannot resolve {item.event}")
            tag = (ref.qualified(), item.event.direction)
        compiled.append((tag, guard_fn, value_fn))
    zero = Fraction(0)

    def rewards_of(states):
        state_rewards = []
        move_rewards: dict[tuple[int, int], Fraction] = {}
        for s in states:
            state = mm.states[s]
            state_rewards.append(zero)
            for tag, guard_fn, value_fn in compiled:
                try:
                    if not guard_fn(state):
                        continue
                    value = Fraction(value_fn(state))
                except EvalError as exc:
                    raise BuildError(f"rewards {decl.name} at state {s}: {exc}") from exc
                if value < 0:
                    raise BuildError(
                        f"rewards {decl.name}: negative reward {value} at state {s}")
                if tag is None:
                    state_rewards[-1] += value
                else:
                    for mi, mv in enumerate(mm.moves[s]):
                        if tag in mv.tags:
                            key = (s, mi)
                            move_rewards[key] = move_rewards.get(key, Fraction(0)) + value
        return state_rewards, move_rewards

    return rewards_of
