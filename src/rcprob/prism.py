"""PRISM emission: model file, properties file, and name map.

Emission is structural (module per machine, module per environment module)
from a closed model.  A machine module prints the entries of the machine's
step table (`MachineRT.steps`), the same entries the explorer executes: one
command per entry, and for a joint step one command in each of the two
modules, synchronised on a label of the joint step's own.  An
environment module prints its compiled commands (`env_commands`), which the
explorer runs too, and every weight is printed from its leaf.  The program
counter, lock, and exit variables get integer encodings recorded in the
name map.  Variable ranges are harvested from the explored state space,
which is why model emission requires a successful build.  Correctness is
checked syntactically by the bundled subset validator; no external checker
is invoked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import ast as A
from . import props as P
from .build import (EXIT_ACT, EXIT_EXITED, EXIT_NONE, LOCK_FREE, LOCK_HELD, ONE, ClosedModel,
                    Entry, MarkovModel, Term, build_markov)


class EmitError(ValueError):
    pass


EXIT_CODES = {EXIT_NONE: 0, EXIT_ACT: 1, EXIT_EXITED: 2}


class Mangler:
    """Flattens qualified names to PRISM identifiers; collisions get a
    numeric suffix and every pair lands in the (bijective) name map."""

    def __init__(self):
        self.name_map: dict[str, str] = {}
        self._taken: set[str] = set()
        self._by_qualified: dict[str, str] = {}

    def mangle(self, qualified: str) -> str:
        if qualified in self._by_qualified:
            return self._by_qualified[qualified]
        base = re.sub(r"\W", "_", qualified.replace("::", "_"))
        candidate = base
        suffix = 2
        while candidate in self._taken:
            candidate = f"{base}_{suffix}"
            suffix += 1
        self._taken.add(candidate)
        self.name_map[candidate] = qualified
        self._by_qualified[qualified] = candidate
        return candidate

    def record(self, mangled: str, qualified: str):
        if mangled in self.name_map and self.name_map[mangled] != qualified:
            raise EmitError(f"name map collision on {mangled!r}")
        self.name_map[mangled] = qualified

    def check_bijective(self):
        values = list(self.name_map.values())
        if len(set(values)) != len(values):
            raise EmitError("name map is not a bijection")

    def tsv(self) -> str:
        lines = [f"{m}\t{q}" for m, q in sorted(self.name_map.items())]
        return "\n".join(lines) + "\n"


def mangle(qn: A.QName | str) -> str:
    """Join qualified-name segments with underscores."""
    text = str(qn)
    return text.replace("::", "_").replace(".", "_")


@dataclass
class EmittedPair:
    model_text: str
    props_text: str
    mangler: Mangler


# --- model emission ------------------------------------------------------------


class _ModelEmitter:
    def __init__(self, closed: ClosedModel, sweep_names: set[str] | None, mangler: Mangler):
        self.c = closed
        self.mangler = mangler
        self.sweep_names = sweep_names or set()
        self.bounds: dict[str, tuple[int, int]] = {}  # filled by `emit`
        self.enum_codes = {f"{enum.name}::{lit}": i for enum in closed.model.enums
                           for i, lit in enumerate(enum.literals)}
        self.pc_codes: dict[str, dict[str, int]] = {}
        self.lk_codes: dict[str, dict[object, int]] = {}
        for m in closed.machines:
            self.pc_codes[m.name] = {pc: i for i, pc in enumerate(m.static_pcs)}
            self.lk_codes[m.name] = {LOCK_FREE: 0, **{t: i for i, t in
                                                      enumerate(sorted(m.trans_by_id), start=1)}}

    # name helpers --------------------------------------------------------

    def var_id(self, flat: str) -> str:
        return self.mangler.mangle(self.c.var_named(flat).qualified)

    def closure_action(self, closure) -> str:
        # "in" where the platform drives this event into the model
        driven = any(d == "out" and self.c.closures._endpoint_info[ep][0] == "platform"
                     for ep, d in closure.tags)
        return self.mangler.mangle(f"{closure.cid}.{'in' if driven else 'out'}")

    def label(self, entry: Entry) -> str:
        """The action label of an entry: none without communication, the
        closure's for a step alone, and its own for a joint step."""
        if entry.closure is None:
            return ""
        if len(entry.parts) == 1:
            return self.closure_action(entry.closure)
        return self.mangler.mangle(f"{entry.closure.cid}::{entry.tag}")

    def labels(self, closure) -> list[str]:
        """The labels of the entries on a closure, which the environment
        commands and the rewards on its events take."""
        return list(dict.fromkeys(self.label(e) for e in self.c.entries_on.get(closure.cid, ())))

    def term(self, t: Term, parent: int = 0) -> tuple[str, bool]:
        """A term's text and whether it is an integer."""
        params = {name: self.term(sub, 11) for name, sub in t.params}
        text, prec, integer = _emit_expr2(self, t.expr, t.scope, params, t.real)
        return (f"({text})" if prec < parent else text), integer

    def is_int(self, flat: str) -> bool:
        return self.c.var_named(flat).domain[0] in ("int", "nat", "range")

    def _resting(self) -> str | None:
        """Where every machine rests in a terminal state and no unlabelled
        environment command is enabled: the explorer loops there without a
        deadlock, so the emitted model takes a loop of its own, and PRISM's
        `deadlock` holds where the explorer's does.  None if a machine has
        no terminal state."""
        rests = []
        for m in self.c.machines:
            final = [s for s in sorted(m.states) if not m.trans_from.get(s)]
            if not final:
                return None
            pcs = " | ".join(f"{self.var_id(self.c.vars[m.pc_i].name)}={self.pc_codes[m.name][s]}"
                             for s in final)
            rests.append((f"({pcs})" if len(final) > 1 else pcs)
                         + f" & {self.var_id(self.c.vars[m.lk_i].name)}=0")
        env = [f"({self.term(cmd.guard)[0]})" for cmds in self.c.env_commands.values()
               for cmd in cmds if cmd.label_tag is None]
        if env:
            rests.append(f"!({' | '.join(env)})")
        return " & ".join(rests)

    # emission --------------------------------------------------------------

    def emit(self) -> str:
        c = self.c
        sized = {v.name for v in c.vars if v.domain[0] in ("int", "nat")}  # see `_range`
        self.bounds = observed_bounds(build_markov(c), sized)
        self.latch_owner = self._latch_owners()
        out = [c.kind, ""]
        for name in sorted(c.consts):
            value = c.consts[name]
            ident = self.mangler.mangle(name)
            if name in self.sweep_names:
                out.append(f"const {_const_type(value)} {ident};")
            else:
                out.append(f"const {_const_type(value)} {ident} = {_text(value)};")
        for enum in c.model.enums:
            for i, lit in enumerate(enum.literals):
                ident = self.mangler.mangle(f"{enum.name}::{lit}")
                out.append(f"const int {ident} = {i};")
        out.append("")
        for kind in ("shared", "latch"):
            out.extend(f"global {self.var_id(v.name)} : {self._range(v)};"
                       for v in c.vars if v.kind == kind and v.name not in self.latch_owner)
        out.append("")
        for m in c.machines:
            out.extend(self._module(m))
            out.append("")
        if c.env is not None:
            for mod in c.env.modules:
                out.extend(self._env_module(mod))
                out.append("")
        return "\n".join(out).rstrip() + "\n"

    def _latch_owners(self) -> dict:
        """The machine of each latch, which the commands of that machine
        alone update: it declares the latch, since PRISM lets a labelled
        command update only the variables of its own module.  A latch that
        the commands of two machines update is refused: which of them wrote
        last would need a variable of its own."""
        writers: dict[str, list] = {}
        for m in self.c.machines:
            for st in m.steps:
                for entry in self.c.entries_of.get(st, ()):
                    for i, _ in dict(entry.parts)[st]:
                        ms = writers.setdefault(self.c.vars[i].name, [])
                        if m not in ms:
                            ms.append(m)
        owners = {}
        for name, ms in writers.items():
            info = self.c.var_named(name)
            if info.kind != "latch":
                continue
            if len(ms) > 1:
                raise EmitError(f"latch {info.qualified} is written by machines "
                                f"{' and '.join(m.name for m in ms)}; emitting a latch that "
                                "more than one machine writes is not supported")
            owners[name] = ms[0]
        return owners

    def _range(self, info) -> str:
        k = info.domain[0]
        init = info.init
        if k == "bool":
            return f"bool init {_text(init)}"
        if k == "enum":
            lo, hi = 0, len(info.domain[1]) - 1
            init_code = self.enum_codes[init]
            return f"[{lo}..{hi}] init {init_code}"
        lo, hi = self.bounds.get(info.name, (init, init))
        if k == "nat":
            lo = max(0, lo)
        if k == "range":
            lo, hi = info.domain[1], info.domain[2]
        return f"[{lo}..{hi}] init {init}"

    def _module(self, m) -> list[str]:
        c = self.c
        qualified = f"{c.model.name}::{m.ctrl.name}::{m.mach.name}"
        out = [f"module {self.mangler.mangle(qualified)}"]
        for v in c.vars:
            if v.kind == "machine" and v.name.startswith(f"{m.ctrl.name}.{m.mach.name}.") \
                    or self.latch_owner.get(v.name) is m:
                out.append(f"  {self.var_id(v.name)} : {self._range(v)};")
        pc_id = self.var_id(f"{m.ctrl.name}.{m.mach.name}.pc")
        lk_id = self.var_id(f"{m.ctrl.name}.{m.mach.name}.lk")
        pc_codes = self.pc_codes[m.name]
        lk_codes = self.lk_codes[m.name]
        for pc, code in sorted(pc_codes.items(), key=lambda kv: kv[1]):
            self.mangler.record(f"{pc_id}={code}", f"{qualified}::pc::{pc}")
        for lk, code in sorted(lk_codes.items(), key=lambda kv: kv[1]):
            if lk == LOCK_FREE:
                continue
            self.mangler.record(f"{lk_id}={code}", f"{qualified}::lk::{lk}")
        init_pc = pc_codes[m.mach.initial]
        out.append(f"  {pc_id} : [0..{len(pc_codes) - 1}] init {init_pc};")
        out.append(f"  {lk_id} : [0..{len(lk_codes) - 1}] init 0;")
        exit_id = self.var_id(c.vars[m.exit_i].name) if m.exit_i is not None else None
        if exit_id is not None:
            for flag, code in EXIT_CODES.items():
                self.mangler.record(f"{exit_id}={code}", f"{qualified}::exit::{flag}")
            out.append(f"  {exit_id} : [0..2] init 0;")
        out.append("")
        out.extend(self._commands(m, pc_id, lk_id, exit_id))
        out.append("endmodule")
        return out

    def _commands(self, m, pc_id: str, lk_id: str, exit_id: str | None) -> list[str]:
        """One command per entry that each step of the table takes part in:
        its guard on the control variables and the transition guard, and
        its updates, with the values that the entry binds or latches.  The
        last machine adds the loop of the resting states."""
        pc_codes = self.pc_codes[m.name]
        lk_codes = self.lk_codes[m.name]
        names = {m.pc_i: (pc_id, pc_codes), m.lk_i: (lk_id, lk_codes),
                 m.exit_i: (exit_id, EXIT_CODES)}

        def control(updates):
            return [(names[i][0], names[i][1][v]) for i, v in updates]

        out = []
        for st in m.steps:
            guard = [f"{pc_id}={pc_codes[st.pc]}"]
            if st.lock == LOCK_HELD:
                guard.append(f"{lk_id}>0")
            elif st.lock is not None:
                guard.append(f"{lk_id}={lk_codes[st.lock]}")
            if st.exit is not None:
                guard.append(f"{exit_id}={EXIT_CODES[st.exit]}")
            if st.guard is not None:
                guard.append(self.term(st.guard)[0])
            guard = " & ".join(guard)
            for entry in self.c.entries_of.get(st, ()):
                if len(st.branches) > 1:
                    rhs = " + ".join(f"{self._weight(w)}:{_updates_text(control(u))}"
                                     for w, u in st.branches)
                else:
                    rhs = _updates_text(control(st.control)
                                        + self._assignments((*st.updates, *dict(entry.parts)[st])))
                out.append(f"  [{self.label(entry)}] {guard} -> {rhs};")
        if m is self.c.machines[-1] and (resting := self._resting()) is not None:
            out.append(f"  [] {resting} -> true;")
        return out

    def _assignments(self, updates) -> list[tuple[str, str]]:
        return [(self.var_id(self.c.vars[i].name), self.term(t)[0]) for i, t in updates]

    def _weight(self, node: int) -> str:
        """A junction or environment branch's probability: its leaf's
        expression where that reads a swept constant, else its value in
        this configuration."""
        table = self.c.weight_table
        source = table.source[node]
        if source is not None and self._reads_sweep(source.expr):
            return self.term(source)[0]
        return str(table.weights[node])

    def _reads_sweep(self, e: A.Expr) -> bool:
        """Whether an expression reads a swept constant, itself or in a
        function that it calls."""
        for node in A.walk(e):
            if isinstance(node, A.Ref) and node.name.segments[-1] in self.sweep_names:
                return True
            if isinstance(node, A.FunCall) and node.name in self.c.functions \
                    and self._reads_sweep(self.c.functions[node.name].body):
                return True
        return False

    def _env_module(self, mod: P.PModule) -> list[str]:
        """A labelled command takes each label of the entries on its event's
        closure, since it joins every one of them in the explorer."""
        out = [f"module {self.mangler.mangle(mod.name)}"]
        for v in mod.variables:
            flat = f"env.{mod.name}.{v.name}"
            info = self.c.var_named(flat)
            out.append(f"  {self.var_id(flat)} : {self._range(info)};")
        out.append("")
        for cmd in self.c.env_commands[mod.name]:
            labels = [""]
            if cmd.label_tag is not None:
                closure = self.c.closures.by_endpoint[cmd.label_tag[0]]
                labels = self.labels(closure) if cmd.label_tag in closure.tags else []
            if cmd.branches[0][0] == ONE:  # plain updates
                rhs = _updates_text(self._assignments(cmd.branches[0][1]))
            else:
                rhs = " + ".join(f"{self._weight(w)}:{_updates_text(self._assignments(u))}"
                                 for w, u in cmd.branches)
            guard = self.term(cmd.guard)[0]
            out.extend(f"  [{label}] {guard} -> {rhs};" for label in labels)
        out.append("endmodule")
        return out


def _updates_text(pairs) -> str:
    return " & ".join(f"({k}'={v})" for k, v in pairs) if pairs else "true"


def observed_bounds(mm: MarkovModel, names: set[str]) -> dict[str, tuple[int, int]]:
    """Min/max over the reachable states of the named integer variables,
    read in one pass over the states."""
    cols = [i for i, name in enumerate(mm.var_names) if name in names]
    lo = [mm.states[0][i] for i in cols]
    hi = lo[:]
    for st in mm.states:
        for k, i in enumerate(cols):
            v = st[i]
            if v < lo[k]:
                lo[k] = v
            elif v > hi[k]:
                hi[k] = v
    return {mm.var_names[i]: (lo[k], hi[k]) for k, i in enumerate(cols)}


def _const_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, Fraction) and value.denominator != 1:
        return "double"
    if isinstance(value, Fraction) or isinstance(value, int):
        return "int"
    return "double"


# expression emission with PRISM operators
_PRISM_BIN = {"/\\": "&", "\\/": "|", "==": "=", "!=": "!=", "=>": "=>", "iff": "<=>",
              "<": "<", "<=": "<=", ">": ">", ">=": ">=", "+": "+", "-": "-",
              "*": "*", "/": "/"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _emit_expr2(em: _ModelEmitter, e: A.Expr, scope, params=None, real: bool = False,
                leaf=None):
    """An expression's PRISM text, its precedence, and whether it is an
    integer, which decides, as in the explorer, whether `/` truncates: it
    does unless the expression is `real` or an operand is not an integer.
    `params` maps parameter names to (text, integer) pairs; `leaf` gives
    the same triple for the nodes that only properties have."""
    def typed(x, parent=0):
        text, prec, integer = _emit_expr2(em, x, scope, params, real, leaf)
        return (f"({text})" if prec < parent else text), integer

    go = lambda x, parent=0: typed(x, parent)[0]
    if isinstance(e, A.Lit):
        if isinstance(e.value, bool):
            return _text(e.value), 11, False
        if isinstance(e.value, str):  # an enumeration literal
            return em.mangler.mangle(e.value), 11, False
        if isinstance(e.value, Fraction) and e.value.denominator != 1:
            return _text(e.value), 9, False
        return str(e.value), 11, _is_int(e.value)
    if isinstance(e, A.Ref):
        kind, name = em.c.name_of(e, scope)
        if kind == "var":
            return em.var_id(name), 11, em.is_int(name)
        return em.mangler.mangle(name), 11, kind == "const" and _is_int(em.c.consts.get(name))
    if isinstance(e, A.ParamRef):
        if params is None or e.name not in params:
            raise EmitError(f"``{e.name} out of scope")
        text, integer = params[e.name]
        return text, 11, integer
    if isinstance(e, A.Unary):
        if e.op == "not":
            return f"!{go(e.operand, 10)}", 6, False
        text, integer = typed(e.operand, 10)
        return f"-{text}", 10, integer
    if isinstance(e, A.Binary):
        if e.op == "%":
            (left, li), (right, ri) = typed(e.left), typed(e.right)
            return f"mod({left}, {right})", 11, li and ri
        prec = A.BINARY_PREC[e.op]
        (left, li), (right, ri) = typed(e.left, prec), typed(e.right, prec + 1)
        if e.op == "/" and li and ri and not real:
            # PRISM divides as reals: truncate towards zero, as the explorer does
            q = f"{go(e.left, 11)}/{go(e.right, 11)}"
            return f"({q} >= 0 ? floor({q}) : ceil({q}))", 11, True
        return f"{left} {_PRISM_BIN[e.op]} {right}", prec, li and ri and e.op in ("+", "-", "*")
    if isinstance(e, A.Cond):
        (then, ti), (orelse, oi) = typed(e.then), typed(e.orelse)
        return f"({go(e.cond)} ? {then} : {orelse})", 11, ti and oi
    if isinstance(e, A.FunCall):
        fdef = em.c.functions.get(e.name)
        if fdef is None:
            raise EmitError(f"function {e.name!r} has no definition")
        args = {p: typed(a, 11) for p, a in zip(fdef.params, e.args)}
        return _emit_expr2(em, fdef.body, None, args, real)
    if isinstance(e, A.IsIn):
        machine, state = em.c.is_in(e)
        return f"{em.var_id(f'{machine}.pc')}={em.pc_codes[machine][state]}", 7, False
    if isinstance(e, A.ModVarRef):
        flat = em.c.env_var(e)
        return em.var_id(flat), 11, em.is_int(flat)
    if isinstance(e, A.EventVal):
        flat = em.c.event_latch(e)
        return em.var_id(flat), 11, em.is_int(flat)
    if leaf is not None:
        return leaf(e)
    raise EmitError(f"cannot emit {type(e).__name__} in the model")


def _text(value) -> str:
    """A constant as PRISM writes it: true or false, n, or n/d."""
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


def emit_model(closed: ClosedModel, sweep_names: set[str] | None = None,
               mangler: Mangler | None = None) -> str:
    """Emit the PRISM model text for a closed model."""
    em = _ModelEmitter(closed, sweep_names, mangler or Mangler())
    text = em.emit()
    em.mangler.check_bijective()
    return text


# --- property emission -----------------------------------------------------------


class _PropsEmitter:
    def __init__(self, closed: ClosedModel, model_emitter: _ModelEmitter):
        self.c = closed
        self.em = model_emitter
        self.int_formula: dict[str, bool] = {}  # per formula emitted so far: is it an integer

    def emit(self, spec: P.SpecAst) -> str:
        out = []
        for st in spec.statements:
            if isinstance(st, P.LabelDecl):
                out.append(f'label "{st.name}" = {self.state_expr(st.body)};')
            elif isinstance(st, P.FormulaDecl):
                text, _, self.int_formula[st.name] = self._typed(st.body)
                out.append(f"formula {st.name} = {text};")
            elif isinstance(st, P.RewardsDecl):
                out.append(f'rewards "{st.name}"')
                for item in st.items:
                    prefixes = [""]
                    if item.event is not None:  # each label of the entries it rewards
                        ref, _ = self.c.resolver.resolve_event(item.event)
                        closure = self.c.closures.by_endpoint[ref.qualified()]
                        prefixes = [f"[{label}] " for label in self.em.labels(closure)] \
                            if (ref.qualified(), item.event.direction) in closure.tags else []
                    out.extend(f"  {prefix}{self.state_expr(item.guard)} : "
                               f"{self.state_expr(item.value, real=True)};" for prefix in prefixes)
                out.append("endrewards")
        for prop in spec.properties:
            out.append(f"// {prop.name}")
            out.append(self.property_line(prop.body))
        return "\n".join(out) + "\n"

    def property_line(self, body: A.Expr) -> str:
        return self.state_expr(body)

    def state_expr(self, e: A.Expr, parent: int = 0, real: bool = False) -> str:
        """A property expression's text; as in the explorer, `/` divides
        exactly in a `real` one (a probability bound, a reward) and
        otherwise truncates on two integers."""
        text, prec, _ = self._typed(e, real)
        return f"({text})" if prec < parent else text

    def _typed(self, e: A.Expr, real: bool = False):
        return _emit_expr2(self.em, e, None, None, real, self._leaf)

    def _leaf(self, e: A.Expr):
        if isinstance(e, A.LabelRef):
            return f'"{e.name}"', 11, False
        if isinstance(e, A.DeadlockRef):
            return '"deadlock"', 11, False
        if isinstance(e, A.InitRef):
            return '"init"', 11, False
        if isinstance(e, A.FormulaRef):
            return e.name, 11, self.int_formula.get(e.name, False)
        if isinstance(e, A.ProbFormula):
            head = self._pquery("P", e.query, e.bound)
            return f"{head} [ {self.path_expr(e.path)} ]", 11, False
        if isinstance(e, A.RewardFormula):
            name = f'{{"{e.rewards}"}}' if e.rewards else ""
            head = self._pquery(f"R{name}", e.query, e.bound)
            return f"{head} [ {self.rpath_expr(e.path)} ]", 11, False
        if isinstance(e, (A.Forall, A.Exists)):
            quantifier = "A" if isinstance(e, A.Forall) else "E"
            return f"{quantifier} [ {self.path_expr(e.path)} ]", 11, False
        raise EmitError(f"cannot emit {type(e).__name__} in a property")

    def _pquery(self, head: str, query: str | None, bound: A.Bound | None) -> str:
        if query is None:
            return f"{head}{bound.op}{self.state_expr(bound.expr, 9, real=True)}"
        extremum = {A.QUERY_MIN: "min", A.QUERY_MAX: "max"}.get(query, "")
        return f"{head[0]}{extremum}{head[1:]}=?"

    def path_expr(self, e: A.Expr, parent: int = 0) -> str:
        if isinstance(e, A.Next):
            return f"X {self.path_expr(e.operand, 3)}"
        if isinstance(e, A.Finally_):
            return f"F{self._bound(e.bound)} {self.path_expr(e.operand, 3)}"
        if isinstance(e, A.Globally):
            return f"G{self._bound(e.bound)} {self.path_expr(e.operand, 3)}"
        if isinstance(e, (A.Until, A.WeakUntil, A.Release)):
            word = {A.Until: "U", A.WeakUntil: "W", A.Release: "R"}[type(e)]
            left = self.path_expr(e.left, 4)
            right = self.path_expr(e.right, 3)
            text = f"{left} {word}{self._bound(e.bound)} {right}"
            return f"({text})" if parent > 3 else text
        if isinstance(e, A.Binary) and e.op in ("=>", "/\\", "\\/"):
            prec = A.BINARY_PREC[e.op]
            left = self.path_expr(e.left, prec)
            right = self.path_expr(e.right, prec + 1)
            text = f"{left} {_PRISM_BIN[e.op]} {right}"
            return f"({text})" if prec < parent else text
        if isinstance(e, A.Unary) and e.op == "not":
            return f"!{self.path_expr(e.operand, 10)}"
        return self.state_expr(e, parent)

    def _bound(self, b: A.Bound | None) -> str:
        if b is None:
            return ""
        return f"{b.op}{self.state_expr(b.expr, 9)}"

    def rpath_expr(self, e: A.Expr) -> str:
        if isinstance(e, A.Reachable):
            return f"F {self.path_expr(e.operand, 3)}"
        if isinstance(e, A.LTLReward):
            return self.path_expr(e.operand)
        if isinstance(e, A.Cumul):
            return f"C<={self.state_expr(e.operand, 9)}"
        if isinstance(e, A.TotalReward):
            return "C"
        raise EmitError(f"{type(e).__name__} is not a reward path")


def emit_properties(closed: ClosedModel, spec: P.SpecAst,
                    mangler: Mangler | None = None) -> str:
    """Emit the PRISM properties text (labels, formulas, rewards, properties);
    unlike the model text, it needs no exploration."""
    em = _ModelEmitter(closed, None, mangler or Mangler())
    return _PropsEmitter(closed, em).emit(spec)


def emit_pair(closed: ClosedModel, spec: P.SpecAst,
              sweep_names: set[str] | None = None) -> EmittedPair:
    mangler = Mangler()
    em = _ModelEmitter(closed, sweep_names, mangler)
    model_text = em.emit()
    props_text = _PropsEmitter(closed, em).emit(closed.spec if spec is None else spec)
    mangler.check_bijective()
    return EmittedPair(model_text, props_text, mangler)


# --- PRISM-subset grammar validator ------------------------------------------------


class PrismSyntaxError(ValueError):
    pass


def check_prism_model(text: str) -> list[str]:
    """Syntactic validation of an emitted PRISM model; returns error strings."""
    errors: list[str] = []
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("//")]
    if not lines or lines[0] not in ("dtmc", "mdp", "ctmc"):
        errors.append("missing model kind header (dtmc|mdp)")
        return errors
    ranges: dict[str, tuple[int, int]] = {}  # integer variables with literal bounds
    shared = {ln[len("global "):].split(":")[0].strip() for ln in lines if ln.startswith("global ")}
    in_module = False
    for i, ln in enumerate(lines[1:], start=2):
        try:
            if ln.startswith("const "):
                rest = ln[len("const "):]
                parts = rest.split()
                if parts[0] not in ("int", "double", "bool"):
                    raise PrismSyntaxError(f"bad const type {parts[0]!r}")
                _check_decl_semicolon(ln)
            elif ln.startswith("global "):
                _check_var(ln[len("global "):], ranges)
            elif ln.startswith("module "):
                if in_module:
                    raise PrismSyntaxError("nested module")
                in_module = True
                name = ln.split()[1]
                if not name.isidentifier():
                    raise PrismSyntaxError(f"bad module name {name!r}")
            elif ln == "endmodule":
                if not in_module:
                    raise PrismSyntaxError("endmodule outside a module")
                in_module = False
            elif in_module and ln.startswith("["):
                _check_command(ln, ranges, shared)
            elif in_module:
                _check_var(ln, ranges)
            elif ln.startswith("rewards"):
                pass
            elif ln == "endrewards" or ln.endswith(";"):
                pass
            else:
                raise PrismSyntaxError(f"unrecognised line {ln!r}")
        except PrismSyntaxError as exc:
            errors.append(f"line {i}: {exc}")
    if in_module:
        errors.append("unterminated module")
    return errors


def _check_decl_semicolon(ln: str):
    if not ln.endswith(";"):
        raise PrismSyntaxError("declaration must end with ';'")


def _check_var(ln: str, ranges: dict[str, tuple[int, int]]):
    """Check a variable declaration; record the bounds of an integer range
    whose bounds are literals."""
    name = ln.split(":")[0].strip()
    if not name.isidentifier():
        raise PrismSyntaxError(f"bad variable name {name!r}")
    _check_decl_semicolon(ln)
    rest = ln.split(":", 1)[1].strip().rstrip(";")
    if rest.startswith("bool"):
        return
    if not rest.startswith("["):
        raise PrismSyntaxError(f"bad variable range {rest!r}")
    if ".." not in rest:
        raise PrismSyntaxError("integer ranges need '..'")
    bounds = re.match(r"\[\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*\]", rest)
    if bounds:
        ranges[name] = (int(bounds.group(1)), int(bounds.group(2)))


def _check_command(ln: str, ranges: dict[str, tuple[int, int]], shared: set[str]):
    """Check a command; a labelled one may not update a global variable."""
    if not ln.endswith(";"):
        raise PrismSyntaxError("command must end with ';'")
    if "]" not in ln:
        raise PrismSyntaxError("command needs a '[label]' prefix")
    label = ln[1:ln.index("]")].strip()
    if label and not label.isidentifier():
        raise PrismSyntaxError(f"bad action label {label!r}")
    body = ln[ln.index("]") + 1: -1]
    if "->" not in body:
        raise PrismSyntaxError("command needs '->'")
    guard, updates = body.split("->", 1)
    _check_balanced(guard)
    _check_balanced(updates)
    for alt in _split_top(updates, "+"):
        alt = alt.strip()
        if ":" in alt and not alt.startswith("("):
            alt = alt.split(":", 1)[1]
        alt = alt.strip()
        if alt == "true":
            continue
        for assign in _split_top(alt, "&"):
            assign = assign.strip()
            if not (assign.startswith("(") and assign.endswith(")")):
                raise PrismSyntaxError(f"update {assign!r} must be parenthesised")
            if "'" not in assign:
                raise PrismSyntaxError(f"update {assign!r} must assign a primed variable")
            if label and assign[1:assign.index("'")].strip() in shared:
                raise PrismSyntaxError(f"labelled command updates global {assign!r}")
            literal = re.fullmatch(r"\(\s*(\w+)\s*'\s*=\s*(-?\d+)\s*\)", assign)
            if literal and literal.group(1) in ranges:
                lo, hi = ranges[literal.group(1)]
                if not lo <= int(literal.group(2)) <= hi:
                    raise PrismSyntaxError(
                        f"update {assign!r} leaves the range [{lo}..{hi}]")


def _split_top(text: str, sep: str) -> list[str]:
    """Split on a separator at parenthesis depth zero."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _check_balanced(text: str):
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth < 0:
            raise PrismSyntaxError(f"unbalanced parentheses in {text!r}")
    if depth != 0:
        raise PrismSyntaxError(f"unbalanced parentheses in {text!r}")


def check_prism_props(text: str) -> list[str]:
    """Syntactic validation of an emitted PRISM properties file."""
    errors: list[str] = []
    in_rewards = False
    for i, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("//"):
            continue
        try:
            if in_rewards:
                if ln == "endrewards":
                    in_rewards = False
                elif not ln.endswith(";") or ":" not in ln:
                    raise PrismSyntaxError("reward item needs 'guard : value;'")
                continue
            if ln.startswith("rewards"):
                if not (ln.startswith('rewards "') and ln.rstrip().endswith('"')):
                    raise PrismSyntaxError('rewards header must be: rewards "name"')
                in_rewards = True
                continue
            if ln.startswith("label "):
                if "=" not in ln or not ln.endswith(";") or '"' not in ln:
                    raise PrismSyntaxError('labels look like: label "n" = expr;')
                continue
            if ln.startswith("formula "):
                if "=" not in ln or not ln.endswith(";"):
                    raise PrismSyntaxError("formulas look like: formula n = expr;")
                continue
            if ln.startswith("const "):
                continue
            if "=?" in ln and not any(ln.lstrip("!(").startswith(h)
                                      for h in ("P", "R")):
                raise PrismSyntaxError(f"unrecognised property line {ln!r}")
            _check_balanced(ln)
            if ln.count("[") != ln.count("]"):
                raise PrismSyntaxError("unbalanced brackets")
        except PrismSyntaxError as exc:
            errors.append(f"line {i}: {exc}")
    if in_rewards:
        errors.append("unterminated rewards block")
    return errors
