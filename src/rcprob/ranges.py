"""Integer variable ranges from a static analysis of the step tables.

PRISM needs a finite range for every integer variable, and `int` and `nat`
declare none.  `variable_ranges` derives one from the tables that the
emitter prints: each machine's `steps`, the entries that link them with the
values they bind (`ClosedModel.entries_of`), and the declared domains of the
environment modules' variables, which their commands cannot leave.  It
evaluates no Term's compiled function and explores no state.  A constant
that a sweep varies stands for the interval of its values, so that one
range holds for every configuration of the sweep.

The analysis is an interval abstract interpretation (Cousot & Cousot, POPL
1977) in three parts.

1. Expressions are evaluated over abstract values: an interval of numbers,
   a finite set of booleans or enumeration literals, `_EMPTY` where the
   expression cannot give a value, or None for any value.  `/` and `%`
   truncate towards zero as the explorer's `_int_div` and `_int_mod` do.  A
   conditional evaluates each branch under its condition, a call inlines
   the function's body with the arguments for its parameters, and a guard
   narrows the values of the variables it compares (`_Analysis.refine`).
2. A fixpoint over each machine's control locations.  A variable that the
   steps of one machine alone write, a platform variable included, is kept
   per program counter of that machine; another machine reads the hull of
   those.  Any other variable has one interval.  Past its first few
   growths, a bound that grows is widened to the next threshold: an
   initial value, a value that an entry writes or that a comparison reads
   where nothing is known of the variables, or ±1 of one (widening with
   thresholds, Blanchet et al., PLDI 2003).  So a counter that a guard
   bounds gets exactly its range.
3. A firing count for a variable that is still unbounded.  A step whose
   edge leaves a strongly connected component of its machine's pc graph
   fires at most once; a location is visited at most once if it is the
   initial one plus as often as the steps that enter it fire; a step fires
   at most as often as its location is visited and as its entries fire; and
   an entry at most as often as any of its steps.  Then a write `v = v + c`
   raises `v` by at most c per firing of its entry.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from . import ast as A

INF = math.inf
_ANY_NUMBER = (-INF, INF)
_EMPTY = frozenset()  # no value: every evaluation fails, or none is reached
_BOOLS = frozenset((False, True))
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}  # a op b = b op' a
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_ARITH = ("+", "-", "*", "/", "%")
_DELAY = 3  # the growths of a value before it is widened


def variable_ranges(closed, sweep: dict | None = None) -> dict[str, tuple]:
    """The range (lo, hi) of each `int` and `nat` variable of a closed
    model, by its flat name, over every configuration of `sweep` (a swept
    constant's name to its values); a bound that nothing limits is
    infinite."""
    return _Analysis(closed, sweep or {}).ranges()


def _hull(values):
    """The abstract value that holds each of the given values."""
    if all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values):
        return (min(values), max(values))
    return frozenset(values)


def _join(a, b):
    if a == _EMPTY:
        return b
    if b == _EMPTY:
        return a
    if type(a) is tuple and type(b) is tuple:
        return (min(a[0], b[0]), max(a[1], b[1]))
    if type(a) is frozenset and type(b) is frozenset:
        return a | b
    return None


def _join_states(a: dict | None, b: dict | None) -> dict | None:
    if a is None or b is None:
        return b if a is None else a
    return {i: _join(v, b[i]) for i, v in a.items()}


def _numbers(v):
    """A value as an interval; any number where it is not one."""
    return v if type(v) is tuple or v == _EMPTY else _ANY_NUMBER


def _truths(v):
    return frozenset(map(bool, v)) if type(v) is frozenset else _BOOLS


def _ceil(x):
    return x if x in (INF, -INF) else math.ceil(x)


def _floor(x):
    return x if x in (INF, -INF) else math.floor(x)


def _mul(x, y):
    return 0 if x == 0 or y == 0 else x * y


def _arith(op: str, a, b, real: bool):
    if a == _EMPTY or b == _EMPTY:
        return _EMPTY
    (alo, ahi), (blo, bhi) = a, b
    if op == "+":
        return (alo + blo, ahi + bhi)
    if op == "-":
        return (alo - bhi, ahi - blo)
    if op == "*":
        ends = [_mul(x, y) for x in a for y in b]
        return (min(ends), max(ends))
    if blo == bhi == 0:
        return _EMPTY  # a division by zero
    if op == "%":  # the sign of the dividend, smaller than the divisor
        m = max(-blo, bhi) - 1
        return (0 if alo >= 0 else max(alo, -m), 0 if ahi <= 0 else min(ahi, m))
    if blo <= 0 <= bhi or INF in (-alo, ahi, -blo, bhi):
        return _ANY_NUMBER
    ends = [Fraction(x) / y for x in a for y in b]
    lo, hi = min(ends), max(ends)
    if real:
        return (lo, hi)
    # an integer quotient truncates towards zero, a real one does not
    return (lo if lo < 0 else math.floor(lo), hi if hi > 0 else math.ceil(hi))


def _compare(op: str, a, b):
    """The truths that `a op b` can take."""
    if a == _EMPTY or b == _EMPTY:
        return _EMPTY
    if type(a) is tuple and type(b) is tuple:
        (alo, ahi), (blo, bhi) = a, b
        holds, fails = {"<": (alo < bhi, ahi >= blo), "<=": (alo <= bhi, ahi > blo),
                        ">": (ahi > blo, alo <= bhi), ">=": (ahi >= blo, alo < bhi)}.get(
            op, (alo <= bhi and blo <= ahi, not alo == ahi == blo == bhi))
    elif type(a) is frozenset and type(b) is frozenset and op in ("==", "!="):
        holds, fails = bool(a & b), not (len(a) == 1 and a == b)
    else:
        return _BOOLS
    if op == "!=":
        holds, fails = fails, holds
    return frozenset(t for t, possible in ((True, holds), (False, fails)) if possible)


def _logic(op: str, a: frozenset, b: frozenset):
    """The truths of a connective, whose right operand `/\\` and `\\/`
    evaluate only where the left one leaves the result open."""
    if op == "/\\":
        return (frozenset((False,)) if False in a else _EMPTY) | (b if True in a else _EMPTY)
    if op == "\\/":
        return (frozenset((True,)) if True in a else _EMPTY) | (b if False in a else _EMPTY)
    if op == "=>":
        return frozenset((not x) or y for x in a for y in b)
    if op == "iff":
        return frozenset(x == y for x in a for y in b)
    return _BOOLS


class _Analysis:
    """One range analysis of a closed model.  An expression is evaluated in
    a lexical context (scope, parameters, real): a parameter names an
    (expression, context) pair, so that a guard on it narrows the variable
    its argument reads.  An abstract state maps variable indices to
    abstract values; a control variable is absent, and reads as any
    value."""

    def __init__(self, closed, sweep: dict):
        c = self.c = closed
        self.consts = {name: _hull(sweep.get(name, (value,))) for name, value in c.consts.items()}
        self._names: dict[tuple[int, int], object] = {}
        self._contexts: dict = {}  # per Term
        self.machine_of = {st: m for m in c.machines for st in m.steps}
        self.entries = list(dict.fromkeys(e for m in c.machines for st in m.steps
                                          for e in c.entries_of.get(st, ()) if e.error is None))
        # the pcs a step leads to, its own where a branch leaves the pc be
        self.targets = {st: tuple(dict.fromkeys(dict(u).get(m.pc_i, st.pc)
                                                for _, u in st.branches))
                        for m in c.machines for st in m.steps}
        self.writes: dict[int, list] = {}  # per variable: (entry, Term) of each write
        writers: dict[int, set] = {}
        for e in self.entries:
            for st, added in e.parts:
                for i, t in (*st.updates, *added):
                    self.writes.setdefault(i, []).append((e, t))
                    writers.setdefault(i, set()).add(self.machine_of[st])
        self.owner = {i: next(iter(ms)) for i, ms in writers.items() if len(ms) == 1}
        self.owned = {m: [i for i, o in self.owner.items() if o is m] for m in c.machines}
        initial = {i: self._fit(i, None if v.kind == "env" else _hull((v.init,)))
                   for i, v in enumerate(c.vars) if v.kind not in ("pc", "lock", "exit")}
        self.shared = {i: v for i, v in initial.items() if i not in self.owner}
        self.at = {m: {m.mach.initial: {i: initial[i] for i in self.owned[m]}} for m in c.machines}
        self.hull = {m: dict(self.at[m][m.mach.initial]) for m in c.machines}
        self.pre: dict = {}  # per entry: the state its updates read, or None
        self.grown: dict[tuple, int] = {}  # per variable and location: its growths so far
        self.thresholds = self._thresholds(initial)
        while any([self._transfer(e) for e in self.entries]):
            pass

    # --- names and contexts ----------------------------------------------------

    def _name(self, e: A.Ref, scope):
        key = (id(e), id(scope))
        if key not in self._names:
            self._names[key] = self.c.name_of(e, scope)
        return self._names[key]

    def _context(self, t) -> tuple:
        if t not in self._contexts:
            self._contexts[t] = (t.scope, {name: (sub.expr, self._context(sub))
                                           for name, sub in t.params}, t.real)
        return self._contexts[t]

    def _var(self, e: A.Expr, ctx) -> int | None:
        """The variable that an expression reads as a whole, if it is one."""
        if isinstance(e, A.ParamRef):
            return self._var(*ctx[1][e.name])
        c = self.c
        if isinstance(e, A.Ref):
            kind, name = self._name(e, ctx[0])
            return c.index[name] if kind == "var" else None
        if isinstance(e, A.ModVarRef):
            return c.index[c.env_var(e)]
        if isinstance(e, A.EventVal):
            return c.index[c.event_latch(e)]
        return None

    def _call(self, e: A.FunCall, ctx) -> tuple:
        fdef = self.c.functions[e.name]
        return fdef.body, (None, {p: (a, ctx) for p, a in zip(fdef.params, e.args)}, ctx[2])

    def _fit(self, i: int, v):
        """A value as variable i can hold it: the explorer refuses any other."""
        domain = self.c.vars[i].domain
        kind = domain[0]
        if kind in ("int", "nat", "range"):
            if v == _EMPTY:
                return v
            lo, hi = _numbers(v)
            lo, hi = _ceil(lo), _floor(hi)
            if kind == "nat":
                lo = max(lo, 0)
            elif kind == "range":
                lo, hi = max(lo, domain[1]), min(hi, domain[2])
            return (lo, hi) if lo <= hi else _EMPTY
        if kind in ("bool", "enum"):
            values = _BOOLS if kind == "bool" else frozenset(domain[1])
            return v & values if type(v) is frozenset else values
        return None

    # --- expressions -------------------------------------------------------------

    def evaluate(self, e: A.Expr, ctx, state: dict):
        if isinstance(e, A.Lit):
            return _hull((e.value,))
        if isinstance(e, A.ParamRef):
            expr, sub = ctx[1][e.name]
            return self.evaluate(expr, sub, state)
        if isinstance(e, A.Ref):
            kind, name = self._name(e, ctx[0])
            if kind == "var":
                return state.get(self.c.index[name])
            return self.consts[name] if kind == "const" else frozenset((name,))
        if isinstance(e, (A.ModVarRef, A.EventVal)):
            return state.get(self._var(e, ctx))
        if isinstance(e, A.Unary):
            v = self.evaluate(e.operand, ctx, state)
            if e.op == "not":
                return frozenset(not x for x in _truths(v))
            v = _numbers(v)
            return v if v == _EMPTY else (-v[1], -v[0])
        if isinstance(e, A.Binary):
            if e.op in _FLIP:
                return _compare(e.op, *self._sides(e, ctx, state))
            a, b = self.evaluate(e.left, ctx, state), self.evaluate(e.right, ctx, state)
            if e.op in _ARITH:
                return _arith(e.op, _numbers(a), _numbers(b), ctx[2] and e.op == "/")
            return _logic(e.op, _truths(a), _truths(b))
        if isinstance(e, A.Cond):
            out = _EMPTY
            for branch, truth in ((e.then, True), (e.orelse, False)):
                sub = self.refine(e.cond, ctx, state, truth)
                if sub is not None:
                    out = _join(out, self.evaluate(branch, ctx, sub))
            return out
        if isinstance(e, A.FunCall):
            return self.evaluate(*self._call(e, ctx), state)
        return None

    def _sides(self, e: A.Binary, ctx, state: dict) -> tuple:
        """The values of a comparison's operands, each finite bound of which
        is a threshold while they are collected."""
        sides = self.evaluate(e.left, ctx, state), self.evaluate(e.right, ctx, state)
        if self.collected is not None:
            for v in sides:
                self._collect(v)
        return sides

    def _collect(self, v):
        for x in v if type(v) is tuple else ():
            if x not in (INF, -INF):
                self.collected.update(n + d for n in (math.floor(x), math.ceil(x))
                                      for d in (-1, 0, 1))

    def refine(self, e: A.Expr, ctx, state: dict, truth: bool) -> dict | None:
        """The state narrowed to where `e` has the given truth; None where
        it cannot have it."""
        if isinstance(e, A.Unary) and e.op == "not":
            return self.refine(e.operand, ctx, state, not truth)
        if isinstance(e, A.Binary) and e.op in ("/\\", "\\/", "=>"):
            # `a => b` is `not a \/ b`; a disjunction that holds, or a
            # conjunction that fails, holds in one of its operands' states
            left = self.refine(e.left, ctx, state, truth != (e.op == "=>"))
            if (e.op != "/\\") == truth:
                return _join_states(left, self.refine(e.right, ctx, state, truth))
            return None if left is None else self.refine(e.right, ctx, left, truth)
        if isinstance(e, A.Binary) and e.op in _FLIP:
            a, b = self._sides(e, ctx, state)
            if truth not in _compare(e.op, a, b):
                return None
            op = e.op if truth else _NEGATE[e.op]
            for x, other, o in ((e.left, b, op), (e.right, a, _FLIP[op])):
                i = self._var(x, ctx)
                if i is not None and state is not None:
                    state = self._narrow(state, i, o, other)
            return state
        if isinstance(e, A.Cond):
            out = None
            for branch, t in ((e.then, True), (e.orelse, False)):
                sub = self.refine(e.cond, ctx, state, t)
                if sub is not None:
                    out = _join_states(out, self.refine(branch, ctx, sub, truth))
            return out
        if isinstance(e, A.ParamRef):
            expr, sub = ctx[1][e.name]
            return self.refine(expr, sub, state, truth)
        if isinstance(e, A.FunCall):
            return self.refine(*self._call(e, ctx), state, truth)
        i = self._var(e, ctx)
        if i is not None:  # a boolean variable
            return self._narrow(state, i, "==", frozenset((truth,)))
        return state if truth in _truths(self.evaluate(e, ctx, state)) else None

    def _narrow(self, state: dict, i: int, op: str, other) -> dict | None:
        """The state where variable i compares by `op` with a value that
        `other` holds."""
        v = state.get(i)
        if type(v) is tuple and type(other) is tuple:
            (lo, hi), (olo, ohi) = v, other
            if op == "<" and ohi != INF:
                hi = min(hi, _ceil(ohi) - 1)
            elif op == "<=":
                hi = min(hi, ohi)
            elif op == ">" and olo != -INF:
                lo = max(lo, _floor(olo) + 1)
            elif op == ">=":
                lo = max(lo, olo)
            elif op == "==":
                lo, hi = max(lo, olo), min(hi, ohi)
            elif op == "!=" and olo == ohi:
                lo, hi = lo + (lo == olo), hi - (hi == olo)
            v = (lo, hi) if lo <= hi else _EMPTY
        elif type(v) is frozenset and type(other) is frozenset and op in ("==", "!="):
            v = v & other if op == "==" else v - other if len(other) == 1 else v
        else:
            return state
        v = self._fit(i, v)
        return None if v == _EMPTY else {**state, i: v}

    # --- the fixpoint ------------------------------------------------------------

    def _thresholds(self, initial: dict) -> list:
        """The bounds of the initial values, and of the values that the
        entries write and their comparisons read where no variable has a
        known value, each with its neighbours."""
        self.collected = set()
        for v in initial.values():
            self._collect(v)
        top = {i: self._fit(i, None) for i in initial}
        for e in self.entries:
            for st, added in e.parts:
                if st.guard is not None:
                    self.evaluate(st.guard.expr, self._context(st.guard), top)
                for _, t in (*st.updates, *added):
                    self._collect(self.evaluate(t.expr, self._context(t), top))
        found, self.collected = sorted(self.collected), None
        return found

    def _widen(self, key: tuple, old, new):
        """The join of two values of a variable at a location (`key`).
        Past its first `_DELAY` growths, a bound that grows moves on to the
        next threshold, so that the values of a loop settle."""
        joined = _join(old, new)
        if type(joined) is not tuple or type(old) is not tuple or joined == old:
            return joined
        self.grown[key] = self.grown.get(key, 0) + 1
        if self.grown[key] <= _DELAY:
            return joined
        t = self.thresholds
        lo, hi = joined
        if lo < old[0]:
            k = bisect_right(t, lo)
            lo = t[k - 1] if k else -INF
        if hi > old[1]:
            k = bisect_left(t, hi)
            hi = t[k] if k < len(t) else INF
        return (lo, hi)

    def _transfer(self, e) -> bool:
        """Take an entry from the states its machines are known to be in;
        whether any location or shared value grew."""
        state = dict(self.shared)
        steps = {self.machine_of[st]: st for st, _ in e.parts}
        for m in self.c.machines:
            here = self.at[m].get(steps[m].pc) if m in steps else self.hull[m]
            if here is None:
                self.pre[e] = None
                return False
            state.update(here)
        for st, _ in e.parts:
            if st.guard is not None and state is not None:
                state = self.refine(st.guard.expr, self._context(st.guard), state, True)
        self.pre[e] = state
        if state is None:
            return False
        new = {i: self._fit(i, self.evaluate(t.expr, self._context(t), state))
               for st, added in e.parts for i, t in (*st.updates, *added)}
        if _EMPTY in new.values():
            return False  # every value fails
        grew = False
        for m, st in steps.items():
            after = {i: new.get(i, state[i]) for i in self.owned[m]}
            for pc in self.targets[st]:
                grew |= self._arrive(m, pc, after)
        for i, v in new.items():
            if i not in self.owner and (w := self._widen((i,), self.shared[i], v)) \
                    != self.shared[i]:
                self.shared[i] = w
                grew = True
        return grew

    def _arrive(self, m, pc: str, values: dict) -> bool:
        here = self.at[m].get(pc)
        if here is None:
            self.at[m][pc] = dict(values)
            for i, v in values.items():
                self.hull[m][i] = _join(self.hull[m][i], v)
            return True
        grew = False
        for i, v in values.items():
            if (w := self._widen((m.name, pc, i), here[i], v)) != here[i]:
                here[i] = w
                self.hull[m][i] = _join(self.hull[m][i], w)
                grew = True
        return grew

    # --- ranges --------------------------------------------------------------------

    def ranges(self) -> dict[str, tuple]:
        out = {}
        fired = None
        for i, v in enumerate(self.c.vars):
            if v.domain[0] not in ("int", "nat"):
                continue
            lo, hi = self.hull[self.owner[i]][i] if i in self.owner else self.shared[i]
            if lo == -INF or hi == INF:
                fired = fired or self._firings()
                lo, hi = self._counted(i, lo, hi, fired)
            out[v.name] = (lo, hi)
        return out

    def _firings(self) -> dict:
        """A bound on the number of times each entry fires, lowered from
        infinity until nothing changes; each bound on the way is sound."""
        c = self.c
        crossing, entering = {}, {}
        for m in c.machines:
            succ: dict[str, set] = {}
            for st in m.steps:
                succ.setdefault(st.pc, set()).update(self.targets[st])
                for pc in self.targets[st]:
                    entering.setdefault((m, pc), []).append(st)
            reach: dict[str, set] = {}
            for st in m.steps:
                crossing[st] = all(st.pc not in _reachable(succ, pc, reach)
                                   for pc in self.targets[st])
        steps = list(self.machine_of)
        step_fires = dict.fromkeys(steps, INF)
        entry_fires = dict.fromkeys(self.entries, INF)
        for _ in range(len(steps) + len(self.entries) + 1):
            before = dict(entry_fires)
            for st in steps:
                m = self.machine_of[st]
                visits = (st.pc == m.mach.initial) + sum(step_fires[s]
                                                          for s in entering.get((m, st.pc), ()))
                step_fires[st] = min(visits, 1 if crossing[st] else INF,
                                     sum(entry_fires[e] for e in c.entries_of.get(st, ())
                                         if e in entry_fires))
            for e in self.entries:
                entry_fires[e] = min(step_fires[st] for st, _ in e.parts)
            if entry_fires == before:
                break
        return entry_fires

    def _counted(self, i: int, lo, hi, fired: dict) -> tuple:
        """Variable i's range narrowed by counting: each write of the form
        `v + c` moves it by c per firing of its entry, and every other
        write sets it within its value."""
        base_lo = base_hi = self.c.vars[i].init
        down = up = 0
        for e, t in self.writes.get(i, ()):
            state = self.pre.get(e)
            if state is None:
                continue
            ctx = self._context(t)
            d = self._delta(t.expr, ctx, state, i)
            if d is None:
                v = self._fit(i, self.evaluate(t.expr, ctx, state))
                if v != _EMPTY:
                    base_lo, base_hi = min(base_lo, v[0]), max(base_hi, v[1])
            elif d != _EMPTY:
                down += _mul(fired[e], min(d[0], 0))
                up += _mul(fired[e], max(d[1], 0))
        return self._fit(i, (max(lo, base_lo + down), min(hi, base_hi + up)))

    def _delta(self, e: A.Expr, ctx, state: dict, i: int):
        """The change that `e` makes to variable i where it is i plus or
        minus a value, else None."""
        if self._var(e, ctx) == i:
            return (0, 0)
        if isinstance(e, A.Binary) and e.op in ("+", "-"):
            d = self._delta(e.left, ctx, state, i)
            if d is not None:
                return _arith(e.op, d, _numbers(self.evaluate(e.right, ctx, state)), False)
            d = self._delta(e.right, ctx, state, i) if e.op == "+" else None
            return None if d is None else \
                _arith("+", _numbers(self.evaluate(e.left, ctx, state)), d, False)
        if isinstance(e, A.Cond):
            out = _EMPTY
            for branch, truth in ((e.then, True), (e.orelse, False)):
                sub = self.refine(e.cond, ctx, state, truth)
                d = _EMPTY if sub is None else self._delta(branch, ctx, sub, i)
                if d is None:
                    return None
                out = _join(out, d)
            return out
        if isinstance(e, A.ParamRef):
            expr, sub = ctx[1][e.name]
            return self._delta(expr, sub, state, i)
        if isinstance(e, A.FunCall):
            return self._delta(*self._call(e, ctx), state, i)
        return None


def _reachable(succ: dict, start: str, memo: dict) -> set:
    """The pcs reachable from `start`, itself included."""
    if start not in memo:
        seen, stack = {start}, [start]
        while stack:
            for nxt in succ.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        memo[start] = seen
    return memo[start]
