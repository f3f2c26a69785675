"""Exact property checking over explicit Markov models.

Every engine of rcprob accepts the same linear fragment: X, F, G, U, W
(Weak Until) and R (Release) over state formulas, bounded or not.
`until_form` rewrites each of them into X or a possibly negated until, so
P (here), A/E (here) and simulation (`smc`) implement only those two; A/E
adds the fairness shapes GF, FG, GF=>GF, FG=>GF and G(p => F q).

A state formula that nests no P, R, A, E, `deadlock` or `init`, through
its labels and formulas too, is one term of `ClosedModel.spec_expr`: its
`/\\` and `\\/` read their right operand only where needed, as the model
does.  Those of other formulas read both operands at every state.

Probability and reward operators first split the states by qualitative
graph precomputation (prob-0/prob-1, finite-reward regions, bottom strongly
connected components).  On a dtmc the remaining unbounded values come from
one sparse LU solve of (I - P[m, m]) x = b over the undecided states m that
branch: a state of m whose only successor in m is certain is eliminated
first (`ExactChecker._solve`).  On an mdp they come from value iteration,
which stops when successive iterates change by less than `tol`.  A/E path
quantifiers run pure graph analysis over the positive-probability edge
relation of the deadlock-completed model: the fairness shapes reach the
cycles that one search for strongly connected components finds
(`ExactChecker._cycles`), and EG is a greatest fixpoint.

The graph layer reads two boolean sparse matrices: the support of the dtmc
matrix (state to state) and the support of the choice CSR (move to state).
The weights do not change them, so they, the values of plain state
expressions and the prob-0/prob-1 sets are made once for the models of a
structure that `MarkovModel.reweigh` gives (`MarkovModel.derived`).
Fixpoints iterate boolean sparse mat-vec steps until they stop changing;
"some move" and "every move" of a state reduce the per-move results over the
state's block of moves.  Reachability is a breadth-first search and strongly
connected components come from `scipy.sparse.csgraph`.

scipy is imported by the functions that build a matrix or call one of its
routines, not here: simulation, validation and emission start without it.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import ast as A
from . import props as P
from .build import (ClosedModel, MarkovModel, RewardStructure, _extended, _fmt_value,
                    attach_rewards)
from .resolve import walk_uses

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10 ** 6  # value iteration sweeps before CheckError
_EXTREMUM = {"max": np.maximum, "min": np.minimum}  # over a state's moves, per mode

# the operators that a state formula nests to be read over the whole model
NESTED = (A.ProbFormula, A.RewardFormula, A.Forall, A.Exists)
# what a plain state expression, one term of `ClosedModel.spec_expr`, holds none of
_NOT_PLAIN = NESTED + (A.DeadlockRef, A.InitRef) + A.PATH_NODES

AE_FRAGMENT = ("X, F, G, U, W, R over state formulas, bounded or not, and the "
               "fairness shapes GF, FG, GF=>GF, FG=>GF, G(p => F q)")


class UnsupportedError(ValueError):
    pass


class CheckError(ValueError):
    pass


@dataclass
class CheckResult:
    prop: str
    config: str
    verdict: object  # bool | float | the string "inf"
    mode: str  # exact | minOverAdversaries | maxOverAdversaries
    engine: str  # numeric | graph
    iterations: int = 0
    wall_time: float = 0.0

    def verdict_json(self):
        if isinstance(self.verdict, bool):
            return self.verdict
        if self.verdict == math.inf:
            return "inf"
        return self.verdict


def _is_state_expr(e: A.Expr) -> bool:
    """Whether e is a state formula: its path operators, if any, are operands
    of P, R, A or E."""
    return not any(isinstance(node, A.PATH_NODES + A.REWARD_PATH_NODES)
                   for node in A.walk(e, stop=NESTED))


def nests(spec: P.SpecAst, kinds: tuple, *exprs: A.Expr) -> bool:
    """Whether one of exprs holds a node of the types `kinds`, itself or
    through the labels and formulas of `spec` that it uses."""
    return any(isinstance(node, kinds) for e in exprs for node in walk_uses(spec, e))


def _per_structure_sets(method):
    """A method of the support graphs and of boolean state sets, computed
    once per structure (`ExactChecker._per_structure`) for each value of the
    sets; the arrays it gives are read-only, as the structure's models share
    them.  Each call takes the support graph first, found or made, so that
    a traced run (`perfbench/tracing.py`) times each checker's use of it."""
    @functools.wraps(method)
    def cached(self, *sets):
        self.pred()

        def make():
            out = method(self, *sets)
            for a in out if isinstance(out, tuple) else (out,):
                a.flags.writeable = False
            return out

        return self._per_structure(
            (method.__name__, *(np.packbits(s).tobytes() for s in sets)), make)

    return cached


class ExactChecker:
    """Checks over a complete model.  `sat` gives a state formula's truth
    at every state the model knows; one that nests no P, R, A or E reads no
    more than those states, so it may be asked of a growing model, as the
    simulation monitors do (`smc.Monitor.cover`)."""

    def __init__(self, mm: MarkovModel, closed: ClosedModel, tol: float = DEFAULT_TOL):
        self.mm = mm
        self.closed = closed
        self.tol = tol
        self.iterations = 0
        self.engine = "graph"
        self.n = mm.num_states
        self._sat_cache: dict[int, np.ndarray] = {}
        self._succ = None
        self._pred = None
        self._dtmc_csr = None
        self._mdp_arrays = None

    @functools.cached_property
    def _deterministic(self) -> bool:
        return bool((np.diff(self.mm.first_move) <= 1).all())

    # --- graph structure -------------------------------------------------

    def _per_structure(self, key, make):
        """make(), computed once for the models of one structure: what the
        store gives whatever the weights (`MarkovModel.derived`)."""
        derived = self.mm.derived
        if key not in derived:
            derived[key] = make()
        return derived[key]

    def succ(self):
        """The support graph: a boolean CSR of the positive dtmc entries.
        Weights are positive, so every model of a structure has the same."""
        if self._succ is None:
            self._succ = self._per_structure("succ", lambda: self.dtmc_matrix().astype(bool))
        return self._succ

    def pred(self):
        """The support graph reversed."""
        if self._pred is None:
            self._pred = self._per_structure("pred", lambda: self.succ().T.tocsr())
        return self._pred

    def dtmc_matrix(self):
        """The dtmc transition matrix (`MarkovModel.dtmc_csr`)."""
        if self._dtmc_csr is None:
            self._dtmc_csr = self.mm.dtmc_csr()
        return self._dtmc_csr

    def mdp_arrays(self):
        """The model's choice CSR (`MarkovModel.choice_csr`)."""
        if self._mdp_arrays is None:
            self._mdp_arrays = self.mm.choice_csr()
        return self._mdp_arrays

    def _move_support(self):
        """The choice CSR's support as a boolean matrix (every state has a
        move: see `check_stochastic`)."""
        return self._per_structure("move_support", lambda: self.mdp_arrays()[0].astype(bool))

    def _move_ranks(self):
        """The choice CSR's first move of each state, and per rank j >= 1
        the states with more than j moves and their moves of rank j."""
        bounds = self.mdp_arrays()[1]
        counts = np.diff(bounds)
        ranks = []
        states = np.flatnonzero(counts > 1)
        while states.size:
            j = len(ranks) + 1
            ranks.append((states, bounds[states] + j))
            states = states[counts[states] > j + 1]
        return bounds[:-1], ranks

    def _reduce_moves(self, per_move: np.ndarray, op) -> np.ndarray:
        """Each state's moves' values reduced by the ufunc `op`: one pass
        per rank over the states with a move of that rank, so that each
        move is read once."""
        first, ranks = self._per_structure("move_ranks", self._move_ranks)
        out = per_move[first]
        for states, moves in ranks:
            out[states] = op(out[states], per_move[moves])
        return out

    # --- state formulas ----------------------------------------------------

    def sat(self, e: A.Expr) -> np.ndarray:
        # keyed by node identity; the node is pinned so ids cannot be recycled
        key = id(e)
        if key in self._sat_cache:
            return self._sat_cache[key][1]
        out = self._sat(e)
        self._sat_cache[key] = (e, out)
        return out

    def _atom(self, e: A.Expr) -> np.ndarray:
        """A plain state expression's truth.  Under the model's own
        configuration it is kept in `MarkovModel.atoms`, which the models of
        a structure share: their configurations differ only in constants
        that no state expression reads."""
        context = None if self.closed is self.mm.closed else self.closed
        # [expression, context, values]: both are kept so their ids are not reused
        entry = self.mm.atoms.setdefault((id(e), id(context)),
                                         [e, context, np.zeros(0, dtype=bool)])
        if entry[2].size < self.n:
            entry[2] = _extended(entry[2], self._evaluate(e, entry[2].size))
            entry[2].flags.writeable = False
        return entry[2]

    def _evaluate(self, e: A.Expr, lo: int) -> np.ndarray:
        """A plain state expression's truth at the states from lo on."""
        fn = self.closed.spec_expr(e)
        return np.array([bool(fn(st)) for st in self.mm.states[lo:]], dtype=bool)

    def _sat(self, e: A.Expr) -> np.ndarray:
        mm = self.mm
        if isinstance(e, A.Lit):
            if not isinstance(e.value, bool):
                raise CheckError("a numeric literal is not a state formula")
            return np.full(self.n, e.value, dtype=bool)
        if isinstance(e, A.DeadlockRef):
            return np.array(mm.deadlock, dtype=bool)
        if isinstance(e, A.InitRef):
            return np.arange(mm.num_states) == mm.initial
        if isinstance(e, A.LabelRef):
            decl = self.closed.spec.find(P.LabelDecl, e.name)
            if decl is None:
                raise CheckError(f"unknown label #{e.name}")
            return self.sat(decl.body)
        if isinstance(e, A.FormulaRef):
            decl = self.closed.spec.find(P.FormulaDecl, e.name)
            if decl is None:
                raise CheckError(f"unknown formula `{e.name}")
            return self.sat(decl.body)
        if not nests(self.closed.spec, _NOT_PLAIN, e):
            return self._atom(e)  # one term, which short-circuits (module docstring)
        if isinstance(e, A.Unary) and e.op == "not":
            return ~self.sat(e.operand)
        if isinstance(e, A.Binary) and e.op in ("/\\", "\\/", "=>", "iff"):
            l = self.sat(e.left)
            r = self.sat(e.right)
            if e.op == "/\\":
                return l & r
            if e.op == "\\/":
                return l | r
            if e.op == "=>":
                return ~l | r
            return l == r
        if isinstance(e, (A.ProbFormula, A.RewardFormula)):
            return self._compare(e)
        if isinstance(e, A.Forall):
            return self.check_ae("A", e.path)
        if isinstance(e, A.Exists):
            return self.check_ae("E", e.path)
        if isinstance(e, A.PATH_NODES):
            raise UnsupportedError(
                "a path formula is not a state formula; wrap it in Prob/Forall/Exists")
        # reads a P, R, A, E, `deadlock` or `init` outside a connective, which
        # `ClosedModel.spec_expr` refuses by name
        return self._atom(e)

    def _compare(self, e: A.ProbFormula | A.RewardFormula) -> np.ndarray:
        """A bounded P or R formula: per state, whether its value meets the
        bound, with a slack of 1e-12 on probabilities and 1e-9 on rewards."""
        if e.query is not None:
            what = "probability" if isinstance(e, A.ProbFormula) else "reward"
            raise CheckError(f"a {what} query is not a state formula; "
                             "queries are only allowed at the top level of a property")
        op = e.bound.op
        p = float(self.closed.spec_expr(e.bound.expr, real=True)(None))
        # upper bounds quantify over the worst (largest) adversary, lower
        # bounds over the smallest
        values = self._values(e, "max" if op in ("<", "<=") else "min")
        slack = 1e-12 if isinstance(e, A.ProbFormula) else 1e-9
        if op == "<":
            return values < p
        if op == "<=":
            return values <= p + slack
        if op == ">":
            return values > p
        return values >= p - slack

    def _values(self, e: A.ProbFormula | A.RewardFormula, mode: str) -> np.ndarray:
        """Per-state value of the path formula of a P or R formula."""
        if isinstance(e, A.ProbFormula):
            return self.prob_path(e.path, mode)
        return self.expected_reward(e.rewards, e.path, mode)

    def _numeric_mode(self, mode: str, what: str) -> str:
        """The mode (exact|min|max) a numeric computation runs in: exact on a
        dtmc or a deterministic mdp, where every adversary is the same."""
        self.engine = "numeric"
        if self.mm.kind == "dtmc" or self._deterministic:
            return "exact"
        if mode == "exact":
            raise CheckError(f"plain {what} are underspecified on an mdp; "
                             "use min =? or max =?")
        return mode

    # --- probability computation ---------------------------------------------

    def prob_path(self, path: A.Expr, mode: str) -> np.ndarray:
        """Per-state probability of a path formula; mode in exact|min|max."""
        mode = self._numeric_mode(mode, "probabilities")
        form = until_form(path, self.closed)
        if form is None:
            if isinstance(path, A.PATH_NODES):
                raise UnsupportedError("nested temporal operators under P are not supported")
            raise UnsupportedError(
                f"{type(path).__name__} is not a supported path formula under P")
        if isinstance(form, A.Next):
            return self._one_step(self.sat(form.operand).astype(float), mode)
        negated, left, right, k = form
        if not negated:
            return self._until(left, right, k, mode)
        # the least probability of a formula is one minus the greatest of its negation
        return np.clip(1.0 - self._until(left, right, k, _flip(mode)), 0.0, 1.0)

    def _one_step(self, target: np.ndarray, mode: str) -> np.ndarray:
        if mode == "exact":
            return self.dtmc_matrix().dot(target)
        mat, bounds = self.mdp_arrays()
        per_move = mat.dot(target)
        return self._reduce_moves(per_move, _EXTREMUM[mode])

    def _until(self, left: A.Expr, right: A.Expr, k: int | None, mode: str) -> np.ndarray:
        sat1 = self.sat(left)
        sat2 = self.sat(right)
        if k is not None:
            return self._bounded_until(sat1, sat2, k, mode)
        if mode == "exact":
            return self._until_dtmc(sat1, sat2)
        return self._until_mdp(sat1, sat2, mode)

    def _bounded_until(self, sat1, sat2, k: int, mode: str) -> np.ndarray:
        if k < 0:
            return np.zeros(self.n)
        return self._backups(sat2.astype(float), k, lambda x: np.where(sat2, 1.0, np.where(
            sat1, self._one_step(x, mode), 0.0)))

    def _backups(self, x, k: int, backup) -> np.ndarray:
        """x after k backups, or after the first that leaves x unchanged, as
        the rest would (a backup is a function of x); `iterations` counts them."""
        self.iterations = 0

        def counted(x):
            self.iterations += 1
            return backup(x)

        return _lfp(counted, x, k)

    # qualitative precomputation ------------------------------------------------

    def _reach_exists(self, sat1: np.ndarray, sat2: np.ndarray) -> np.ndarray:
        """States with a positive-probability path to sat2 through sat1."""
        return _reach(self.pred(), sat1, sat2)

    @_per_structure_sets
    def _prob0_min(self, sat1, sat2):
        """States where the minimum until-probability is 0: the complement
        of the least fixpoint of states where every move keeps a positive
        chance."""
        sup = self._move_support()
        return ~_lfp(lambda x: sat2 | (sat1 & self._reduce_moves(sup @ x, np.logical_and)),
                     sat2)

    @_per_structure_sets
    def _prob01_dtmc(self, sat1, sat2):
        """prob0 and prob1 of sat1 U sat2 on a dtmc: states that reach sat2
        with probability 0, and states that cannot reach a prob0 state
        through sat1 & ~sat2."""
        prob0 = ~self._reach_exists(sat1 & ~sat2, sat2)
        return prob0, ~self._reach_exists(sat1 & ~sat2, prob0)

    @_per_structure_sets
    def _prob1_max(self, sat1, sat2):
        """Prob1E: states where some adversary reaches sat2 almost surely:
        the greatest u such that every state of u reaches sat2 through sat1
        by moves that all stay inside u."""
        sup = self._move_support()

        def attractor(u):
            stays = ~(sup @ ~u)
            return _lfp(lambda v: sat2 | (sat1 & self._reduce_moves(stays & (sup @ v),
                                                                    np.logical_or)), sat2)

        return _lfp(attractor, np.ones(self.n, dtype=bool))

    @_per_structure_sets
    def _prob1_min(self, sat1, sat2):
        """Prob1A: states where every adversary reaches sat2 almost surely."""
        sup = self._move_support()
        # greatest existential invariant inside sat1 & ~sat2
        inv = _lfp(lambda x: x & self._reduce_moves(~(sup @ ~x), np.logical_or),
                   sat1 & ~sat2)
        # existential reach (within ~sat2) of a bad state or the invariant
        return ~self._reach_exists(sat1 & ~sat2, (~sat1 & ~sat2) | inv)

    def _until_dtmc(self, sat1, sat2) -> np.ndarray:
        prob0, prob1 = self._prob01_dtmc(sat1, sat2)
        x = prob1.astype(float)
        maybe = np.flatnonzero(~prob0 & ~prob1)
        self.iterations = 0
        if maybe.size:
            x[maybe] = self._solve(maybe, self.dtmc_matrix()[maybe].dot(x))
        return np.clip(x, 0.0, 1.0)

    def _solve(self, idx: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x with (I - Q) x = b, Q = P[idx, idx] of the dtmc matrix P.

        Every caller's precomputation guarantees that each state of idx
        leaves idx with probability 1, so the system is nonsingular.  A row
        of Q whose only entry is 1.0, to t, says x_s = b_s + x_t; those rows
        are eliminated first, which is exact Gaussian elimination.  No chain
        of them cycles, as its states would never leave idx, so pointer
        jumping follows each chain to its end e, a state of any other row,
        within ceil(log2 |idx|) + 1 rounds: x_s = acc_s + x_e.  One sparse
        LU factorisation of the other rows, their columns redirected to the
        chain ends, gives x at the ends."""
        from scipy import sparse
        from scipy.sparse.linalg import splu
        self.iterations = 1
        p, m = self.dtmc_matrix(), idx.size
        # the entries of Q as (row, column, value), read off P's arrays
        local = np.full(self.n, -1)
        local[idx] = np.arange(m)
        start = p.indptr[idx]
        lens = p.indptr[idx + 1] - start
        entries = np.arange(lens.sum()) + np.repeat(start - np.cumsum(lens) + lens, lens)
        rows, cols = np.repeat(np.arange(m), lens), local[p.indices[entries]]
        inside = cols >= 0
        rows, cols, vals = rows[inside], cols[inside], p.data[entries[inside]]
        unit = (vals == 1.0) & (np.bincount(rows, minlength=m) == 1)[rows]
        chained = np.zeros(m, dtype=bool)
        chained[rows[unit]] = True
        nxt = np.arange(m)
        nxt[rows[unit]] = cols[unit]
        acc = np.where(chained, b, 0.0)
        for _ in range(m.bit_length() + 1):
            if not chained[nxt].any():
                break
            acc += acc[nxt]
            nxt = nxt[nxt]
        else:
            raise CheckError("the linear system is singular: a chain of certain "
                             "moves never leaves the undecided states")
        # the rows of the chain ends, over the chain ends
        ends = np.flatnonzero(~chained)
        k = ends.size
        at = np.full(m, -1)
        at[ends] = np.arange(k)
        rest = ~chained[rows]
        rows, cols, vals = at[rows[rest]], cols[rest], vals[rest]
        diag = np.arange(k)
        a = sparse.csc_matrix((np.concatenate([np.ones(k), -vals]),
                               (np.concatenate([diag, rows]),
                                np.concatenate([diag, at[nxt[cols]]]))), shape=(k, k))
        rhs = b[ends] + np.bincount(rows, weights=vals * acc[cols], minlength=k)
        return acc + splu(a).solve(rhs)[at[nxt]]

    def _until_mdp(self, sat1, sat2, mode) -> np.ndarray:
        if mode == "max":
            prob0 = ~self._reach_exists(sat1 & ~sat2, sat2)
            prob1 = self._prob1_max(sat1, sat2)
        else:
            prob0 = self._prob0_min(sat1, sat2)
            prob1 = self._prob1_min(sat1, sat2)
        x = prob1.astype(float)
        # prob0 holds ~sat1 & ~sat2 and prob1 holds sat2: the undecided
        # states are sat1 & ~sat2, where the backup is the one-step value
        idx = np.flatnonzero(~prob0 & ~prob1)
        x = self._value_iteration(x, idx, lambda x: self._one_step(x, mode))
        return np.clip(x, 0.0, 1.0)

    def _value_iteration(self, x: np.ndarray, idx: np.ndarray, backup) -> np.ndarray:
        """Iterate x[idx] = backup(x)[idx] from x, the other states fixed,
        until the largest change relative to max(|x|, 1) falls below tol."""
        self.iterations = 0
        if idx.size == 0:
            return x
        for it in range(DEFAULT_MAX_ITER):
            new = x.copy()
            new[idx] = backup(x)[idx]
            delta = np.max(np.abs(new[idx] - x[idx]) / np.maximum(np.abs(new[idx]), 1.0))
            x = new
            self.iterations = it + 1
            if delta < self.tol:
                return x
        raise CheckError(f"value iteration hit the cap; last residual {delta:g}")

    # --- A/E path quantifiers ----------------------------------------------------

    def check_ae(self, quant: str, path: A.Expr) -> np.ndarray:
        self.engine = "graph"
        form = until_form(path, self.closed)
        if isinstance(form, A.Next):
            target = self.sat(form.operand)
            return self.succ() @ target if quant == "E" else ~(self.succ() @ ~target)
        if form is not None:
            negated, left, right, k = form
            if negated:
                # A not phi fails exactly where E phi holds, and vice versa
                return ~self._ae_until("A" if quant == "E" else "E", left, right, k)
            return self._ae_until(quant, left, right, k)
        shape = _ae_shape(path)
        if shape is None:
            raise UnsupportedError(
                f"path formula outside the supported A/E fragment ({AE_FRAGMENT})")
        kind, sets = shape[0], [self.sat(e) for e in shape[1:]]
        everywhere = np.ones(self.n, dtype=bool)
        if kind == "G=>F":
            p, q = sets
            if quant == "A":
                return ~self._reach_exists(everywhere, p & self._eg(~q))
            return self._e_response(p, q)
        # E reaches a fair cycle; A fails where E of the negated shape holds
        pairs = _FAIRNESS[kind](everywhere, *sets)[quant == "A"]
        fair = functools.reduce(np.logical_or, (self._cycles(*pair) for pair in pairs))
        found = self._reach_exists(everywhere, fair)
        return found if quant == "E" else ~found

    def _ae_until(self, quant: str, left: A.Expr, right: A.Expr, k: int | None) -> np.ndarray:
        sat1, sat2 = self.sat(left), self.sat(right)
        if k is not None:
            return self._ae_bounded_until(sat1, sat2, k, quant)
        if quant == "E":
            return self._reach_exists(sat1 & ~sat2, sat2)
        bad = self._reach_exists(~sat2, ~sat1 & ~sat2) | self._eg(~sat2)
        return ~bad

    def _ae_bounded_until(self, sat1, sat2, k: int, quant: str) -> np.ndarray:
        if k < 0:
            return np.zeros(self.n, dtype=bool)
        succ = self.succ()
        if quant == "E":
            return _lfp(lambda x: sat2 | (sat1 & (succ @ x)), sat2, k)
        return _lfp(lambda x: sat2 | (sat1 & ~(succ @ ~x)), sat2, k)

    def _eg(self, target: np.ndarray) -> np.ndarray:
        """Greatest fixpoint: states with an infinite path staying in target."""
        succ = self.succ()
        return _lfp(lambda x: x & (succ @ x), target)

    def _cycles(self, stay: np.ndarray, visit: np.ndarray, graph=None) -> np.ndarray:
        """Nodes on a cycle inside `stay` whose strongly connected component
        there holds a `visit` node: the nodes of the lassos that loop
        through `visit` forever and never leave `stay`, the standard
        emptiness check of fairness (Baier and Katoen, Principles of Model
        Checking).  The graph is the support graph unless given."""
        graph = self.succ() if graph is None else graph
        idx = np.flatnonzero(stay)
        labels, cyclic = _sccs(graph[idx][:, idx])
        good = np.zeros(idx.size, dtype=bool)
        good[labels[cyclic & visit[idx]]] = True
        out = np.zeros(graph.shape[0], dtype=bool)
        out[idx] = good[labels]
        return out

    def _e_response(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """E[G (p => F q)] via a one-bit obligation monitor product."""
        # product node = s * 2 + bit, where bit is an obligation still owed
        # after entering s; a good lasso loops through a clean (bit 0) node
        from scipy import sparse
        edges = self.succ().tocoo()
        src, dst = edges.row, edges.col
        owed = ~q[dst]
        rows = np.concatenate([2 * src, 2 * src + 1])
        cols = np.concatenate([2 * dst + (p[dst] & owed), 2 * dst + owed])
        prod = sparse.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)),
                                 shape=(2 * self.n, 2 * self.n))
        everywhere = np.ones(2 * self.n, dtype=bool)
        reach = _reach(prod.T.tocsr(), everywhere,
                       self._cycles(everywhere, np.arange(2 * self.n) % 2 == 0, prod))
        return reach[2 * np.arange(self.n) + (p & ~q)]

    # --- rewards ---------------------------------------------------------------

    def _reward_arrays(self, rname: str | None):
        """The reward per state and per move of the choice CSR."""
        rs = reward_source(self.mm, self.closed, rname)
        self.mdp_arrays()  # the choice CSR, and with it `choice_moves`
        return rs.state[self.mm.row_of], rs.move[self.mm.choice_moves]

    def expected_reward(self, rname: str | None, rpath: A.Expr, mode: str) -> np.ndarray:
        mode = self._numeric_mode(mode, "reward queries")
        state_r, move_r = self._reward_arrays(rname)
        if isinstance(rpath, A.LTLReward):
            op = rpath.operand
            if isinstance(op, A.Finally_) and op.bound is None and _is_state_expr(op.operand):
                rpath = A.Reachable(op.operand)
            else:
                raise UnsupportedError(
                    "LTL rewards are restricted to a plain Finally; "
                    "use Reachable, Cumul, or Total")
        if isinstance(rpath, A.Reachable):
            return self._reach_reward(self.sat(rpath.operand), state_r, move_r, mode)
        if isinstance(rpath, A.Cumul):
            k = max(step_bound(self.closed, A.Bound("<=", rpath.operand)), 0)
            return self._cumul_reward(k, state_r, move_r, mode)
        if isinstance(rpath, A.TotalReward):
            return self._total_reward(state_r, move_r, mode)
        raise UnsupportedError(f"{type(rpath).__name__} is not a reward path formula")

    def _dtmc_reward_base(self, state_r, move_r) -> np.ndarray:
        """Per-state expected one-step reward under the uniform move mixture."""
        mat, bounds = self.mdp_arrays()
        counts = np.diff(bounds).astype(float)
        sums = np.add.reduceat(move_r, bounds[:-1])
        return state_r + sums / counts

    def _expected_move_reward(self, state_r, move_r, x, mode):
        """One Bellman backup of expected reward per state of an mdp."""
        mat, bounds = self.mdp_arrays()
        per_move = move_r + mat.dot(x)
        return state_r + self._reduce_moves(per_move, _EXTREMUM[mode])

    def _reach_reward(self, target: np.ndarray, state_r, move_r, mode) -> np.ndarray:
        ones = np.ones(self.n, dtype=bool)
        if mode == "exact":
            finite = self._prob01_dtmc(ones, target)[1]
        elif mode == "max":
            # sup over adversaries is infinite when some adversary misses the target
            finite = self._prob1_min(ones, target)
        else:
            finite = self._prob1_max(ones, target)
        finite = finite | target
        x = np.where(finite, 0.0, np.inf)
        idx = np.flatnonzero(finite & ~target)
        if mode != "exact":
            # over the finite region; moves into the infinite region are
            # excluded (max) or poison the move (min handled by inf)
            return self._value_iteration(
                x, idx, lambda x: self._expected_move_reward(state_r, move_r, x, mode))
        self.iterations = 0
        if idx.size:
            x[idx] = self._solve(idx, self._dtmc_reward_base(state_r, move_r)[idx])
        return x

    def _cumul_reward(self, k: int, state_r, move_r, mode) -> np.ndarray:
        if mode == "exact":
            base = self._dtmc_reward_base(state_r, move_r)
            mat = self.dtmc_matrix()
            return self._backups(np.zeros(self.n), k, lambda x: base + mat.dot(x))
        return self._backups(np.zeros(self.n), k,
                             lambda x: self._expected_move_reward(state_r, move_r, x, mode))

    def _total_reward(self, state_r, move_r, mode) -> np.ndarray:
        if mode != "exact":
            raise UnsupportedError("Total rewards are supported on dtmc models only")
        # rewards are non-negative (attach_rewards rejects the rest), so a
        # bottom SCC collects reward forever iff one of its states has a
        # positive expected one-step reward; those diverge
        base = self._dtmc_reward_base(state_r, move_r)
        labels, _ = _sccs(self.succ())
        edges = self.succ().tocoo()
        src, dst = labels[edges.row], labels[edges.col]
        leaves = np.zeros(labels.max() + 1, dtype=bool)
        leaves[src[src != dst]] = True
        in_bscc = ~leaves[labels]
        positive = np.zeros(labels.max() + 1, dtype=bool)
        positive[labels[in_bscc & (base > 0)]] = True
        diverge = self._reach_exists(np.ones(self.n, dtype=bool), positive[labels])
        x = np.where(diverge, np.inf, 0.0)
        # the remaining transient states reach zero-reward bottom SCCs only
        idx = np.flatnonzero(~diverge & ~in_bscc)
        self.iterations = 0
        if idx.size:
            x[idx] = self._solve(idx, base[idx])
        return x


def reward_source(mm: MarkovModel, closed: ClosedModel, rname: str | None) -> RewardStructure:
    """The reward structure named `rname` attached to the model (with None,
    the only one attached), else the spec's declaration of that name, which
    is attached; covered over every expanded state."""
    if rname is None:
        names = list(mm.rewards)
        if len(names) != 1:
            raise CheckError("the reward formula needs a rewards name "
                             f"(attached: {names or 'none'})")
        rname = names[0]
    if rname not in mm.rewards:
        decl = closed.spec.find(P.RewardsDecl, rname)
        if decl is None:
            raise CheckError(f"unknown rewards {rname!r}")
        attach_rewards(mm, decl, closed)
    rs = mm.rewards[rname]
    rs.cover(mm)
    return rs


def step_bound(closed: ClosedModel, bound: A.Bound | None) -> int | None:
    """The last step a step bound allows: None when unbounded, -1 when it
    allows none (the empty horizon)."""
    if bound is None:
        return None
    value = closed.spec_expr(bound.expr)(None)
    k = int(value)
    if k != value:
        raise CheckError(f"step bound must be an integer, got {_fmt_value(value)}")
    if bound.op == "<":
        k = k - 1
    elif bound.op != "<=":
        raise UnsupportedError(f"step bound {bound.op!r} is not supported (use <= or <)")
    return max(k, -1)


def until_form(path: A.Expr, closed: ClosedModel):
    """The until normal form of a path formula whose operands are state
    formulas: X phi is itself, every other operator is (negated, left,
    right, k), which means [not] (left U<=k right) with k from `step_bound`.
    None for any other formula.

    By the standard dualities, which keep the step bound (Baier and Katoen,
    Principles of Model Checking, ch. 5 and 10): F phi = true U phi,
    G phi = not (true U not phi), l W r = not ((l and not r) U (not l and
    not r)) and l R r = not (not l U not r)."""
    if isinstance(path, A.Next):
        return path if _is_state_expr(path.operand) else None
    if isinstance(path, (A.Finally_, A.Globally)):
        left, right = A.Lit(True), path.operand
    elif isinstance(path, (A.Until, A.WeakUntil, A.Release)):
        left, right = path.left, path.right
    else:
        return None
    if not (_is_state_expr(left) and _is_state_expr(right)):
        return None
    k = step_bound(closed, path.bound)
    if isinstance(path, (A.Finally_, A.Until)):
        return False, left, right, k
    if isinstance(path, A.Globally):
        return True, left, A.Unary("not", right), k
    if isinstance(path, A.WeakUntil):
        not_right = A.Unary("not", right)
        return (True, A.Binary("/\\", left, not_right),
                A.Binary("/\\", A.Unary("not", left), not_right), k)
    return True, A.Unary("not", left), A.Unary("not", right), k


def _ae_shape(path: A.Expr):
    """The omega-regular A/E shape of a path formula outside the until
    normal form: GF, FG, GF=>GF, FG=>GF or G=>F with its state operands."""
    shape = _gf_or_fg(path)
    if shape is not None:
        return shape
    if isinstance(path, A.Globally) and path.bound is None:
        op = path.operand
        if isinstance(op, A.Binary) and op.op == "=>" and isinstance(op.right, A.Finally_) \
                and op.right.bound is None and _is_state_expr(op.left) \
                and _is_state_expr(op.right.operand):
            return ("G=>F", op.left, op.right.operand)
    if isinstance(path, A.Binary) and path.op == "=>":
        left = _gf_or_fg(path.left)
        right = _gf_or_fg(path.right)
        if left is not None and right is not None and right[0] == "GF":
            return (f"{left[0]}=>GF", left[1], right[1])
    return None


# per fairness shape, given every state and its operands' sets, the
# (stay, visit) pairs of `ExactChecker._cycles` whose fair cycles make E
# hold, and those of the negated shape, which make A fail
_FAIRNESS = {
    "GF": lambda t, p: ([(t, p)], [(~p, t)]),
    "FG": lambda t, p: ([(p, t)], [(t, ~p)]),
    "GF=>GF": lambda t, p, q: ([(~p, t), (t, q)], [(~q, p)]),
    "FG=>GF": lambda t, p, q: ([(t, ~p), (t, q)], [(p & ~q, t)]),
}


def _gf_or_fg(e: A.Expr):
    if isinstance(e, A.Globally) and e.bound is None and isinstance(e.operand, A.Finally_) \
            and e.operand.bound is None and _is_state_expr(e.operand.operand):
        return ("GF", e.operand.operand)
    if isinstance(e, A.Finally_) and e.bound is None and isinstance(e.operand, A.Globally) \
            and e.operand.bound is None and _is_state_expr(e.operand.operand):
        return ("FG", e.operand.operand)
    return None


def _lfp(step, x: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Iterate a step from x until it stops changing (or `limit` times).
    For a monotone boolean step, that is the least fixpoint above an x below
    it, the greatest below an x above it."""
    for _ in itertools.count() if limit is None else range(limit):
        new = step(x)
        if np.array_equal(new, x):
            break
        x = new
    return x


def _reach(rev, through: np.ndarray, target: np.ndarray) -> np.ndarray:
    """States of target, and states of through with a path inside through to
    target: a breadth-first search over the reversed edges `rev` (a square
    CSR matrix) from a virtual root wired to every target state."""
    from scipy import sparse
    from scipy.sparse import csgraph
    n = rev.shape[0]
    keep = through[rev.indices]
    kept = np.concatenate([[0], np.cumsum(keep)])
    roots = np.flatnonzero(target)
    indices = np.concatenate([rev.indices[keep], roots])
    indptr = np.append(kept[rev.indptr], indices.size)
    graph = sparse.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                              shape=(n + 1, n + 1))
    out = np.zeros(n + 1, dtype=bool)
    out[csgraph.breadth_first_order(graph, n, return_predecessors=False)] = True
    return out[:n]


def _sccs(graph):
    """Strongly connected component labels of a square sparse graph, and
    which nodes lie on a cycle: in a component of more than one node, or
    with a self-loop."""
    from scipy.sparse import csgraph
    _, labels = csgraph.connected_components(graph, connection="strong")
    return labels, (np.bincount(labels)[labels] > 1) | (graph.diagonal() != 0)


def _flip(mode: str) -> str:
    if mode == "min":
        return "max"
    if mode == "max":
        return "min"
    return mode


# --- public operations ------------------------------------------------------------


def check_state_formula(mm: MarkovModel, closed: ClosedModel, expr: A.Expr,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-state satisfaction of a boolean state formula."""
    return ExactChecker(mm, closed, tol).sat(expr)


def prob_path(mm: MarkovModel, closed: ClosedModel, path: A.Expr,
              mode: str = "exact", tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-state probability of an unbounded or bounded path formula."""
    return ExactChecker(mm, closed, tol).prob_path(path, mode)


def prob_path_bounded(mm: MarkovModel, closed: ClosedModel, path: A.Expr,
                      mode: str = "exact") -> np.ndarray:
    """Per-state probability of a step-bounded path formula.

    Exact in k backward steps, no convergence threshold involved."""
    if isinstance(path, (A.Finally_, A.Globally, A.Until, A.WeakUntil, A.Release)) \
            and path.bound is None:
        raise CheckError("prob_path_bounded needs a step bound on the formula")
    return ExactChecker(mm, closed).prob_path(path, mode)


def check_AE(mm: MarkovModel, closed: ClosedModel, quant: str, path: A.Expr) -> np.ndarray:
    """Per-state verdict of a Forall/Exists path quantifier."""
    return ExactChecker(mm, closed).check_ae(quant, path)


def expected_reward(mm: MarkovModel, closed: ClosedModel, rname: str | None,
                    rpath: A.Expr, mode: str = "exact",
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-state expected reward (+inf where accumulation diverges)."""
    return ExactChecker(mm, closed, tol).expected_reward(rname, rpath, mode)


def check_property(mm: MarkovModel, closed: ClosedModel, prop: P.ProbProperty,
                   config_id: str = "", tol: float = DEFAULT_TOL) -> CheckResult:
    """Judge a property at the initial state of a built model."""
    t0 = time.perf_counter()
    checker = ExactChecker(mm, closed, tol)
    body = prop.body
    mode_name = "exact"
    if isinstance(body, (A.ProbFormula, A.RewardFormula)) and body.query is not None:
        mode = {A.QUERY_PLAIN: "exact", A.QUERY_MIN: "min", A.QUERY_MAX: "max"}[body.query]
        if mm.kind == "dtmc":
            mode = "exact"  # a dtmc has a single adversary
        v = checker._values(body, mode)[mm.initial]
        verdict = math.inf if np.isinf(v) else float(v)
        mode_name = {"exact": "exact", "min": "minOverAdversaries",
                     "max": "maxOverAdversaries"}[mode]
    else:
        verdict = bool(checker.sat(body)[mm.initial])
    return CheckResult(prop.name, config_id, verdict, mode_name, checker.engine,
                       checker.iterations, time.perf_counter() - t0)
