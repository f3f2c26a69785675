"""Exact property checking over explicit Markov models.

Every engine of rcprob accepts the same linear fragment: X, F, G, U, W
(Weak Until) and R (Release) over state formulas, bounded or not.
`until_form` rewrites each of them into X or a possibly negated until, so
P (here), A/E (here) and simulation (`smc`) implement only those two; A/E
adds the fairness shapes GF, FG, GF=>GF, FG=>GF and G(p => F q).  Each
entry point takes the model alone, and reads the constants, labels,
formulas and rewards of its configuration (`MarkovModel.closed`).

A state formula compiles to nodes (`ExactChecker.node`): each maximal
subterm that holds no P, R, A, E, `deadlock` or `init`, through its labels
and formulas too, is one term of `ClosedModel.spec_expr`; each P, R, A and
E is solved over the whole model; and a connective above them reads its
right operand only where its left leaves it undecided, as the terms do.

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
(`ExactChecker._cycles`), and EG t = E[t U C], C the states on a cycle
inside t.

The graph layer reads two boolean sparse matrices: the support of the dtmc
matrix (state to state) and the support of the choice CSR (move to state).
The weights do not change them, so they, the values of plain state
expressions and the prob-0/prob-1 sets are made once for the models of a
structure that `MarkovModel.reweigh` gives (`MarkovModel.derived`).  The
sets of sat1 U sat2 (`ExactChecker._prob01`) are searches too: prob0 is
the complement of E[(sat1 & ~sat2) U sat2] on a dtmc and for max, and prob1
the complement of E[(sat1 & ~sat2) U prob0] on a dtmc and for min, where
Prob1A = ~E[(sat1 & ~sat2) U Prob0E] (Baier and Katoen, Principles of Model
Checking, 10.6).  Two fixpoints remain: min's prob0, the complement of an
attractor whose step reduces "every move" over each state's block of
moves, and max's prob1 (Prob1E), each round of which is one search over
the edges of the moves that stay inside the current set.  Searches are
breadth-first, and they and strongly connected components come from
`scipy.sparse.csgraph`.

scipy is imported by the functions that build a matrix or call one of its
routines, not here: simulation, validation and emission start without it.
"""

from __future__ import annotations

import functools
import itertools
import math
import time

import numpy as np

from . import ast as A
from . import props as P
from .build import ClosedModel, MarkovModel, RewardStructure, _fmt_value, attach_rewards
from .record import Record

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10 ** 6  # value iteration sweeps before CheckError
_EXTREMUM = {"max": np.maximum, "min": np.minimum}  # over a state's moves, per mode

# the operators of a state formula that are read over the whole model
NESTED = (A.ProbFormula, A.RewardFormula, A.Forall, A.Exists)

AE_FRAGMENT = ("X, F, G, U, W, R over state formulas, bounded or not, and the "
               "fairness shapes GF, FG, GF=>GF, FG=>GF, G(p => F q)")


class UnsupportedError(ValueError):
    pass


class CheckError(ValueError):
    pass


class CheckResult(Record):
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


class ExactChecker:
    """Checks over a model, under its configuration (`MarkovModel.closed`).
    `sat` gives a state formula's truth at every state, or at the expanded
    states that a simulation monitor asks of a model that is still growing
    (`smc.Monitor.cover`), which keeps one checker for the model's life: a
    P, R, A or E in the formula expands the whole model when it is first
    read."""

    def __init__(self, mm: MarkovModel, tol: float = DEFAULT_TOL):
        self.mm = mm
        self.tol = tol
        self.iterations = 0
        self.engine = "graph"
        self._refs: dict = {}  # the nodes of labels and formulas by text (`_compile`)
        self._succ = None
        self._pred = None
        self._dtmc_csr = None
        self._mdp_arrays = None

    @property
    def n(self) -> int:
        return self.mm.num_states

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

    def node(self, e: A.Expr):
        """A state formula compiled to its node: a function of (states, keep)
        that gives its truth at `states` (`sat`).  A plain subterm, which
        holds no P, R, A, E, `deadlock`, `init` or path operator, itself or
        through the labels and formulas it uses, is one term of
        `ClosedModel.spec_expr`; the model keeps its truth by its printed
        form (`MarkovModel.truth`), and that of a P, R, A or E too
        (`_solved`).  The connectives above them combine arrays."""
        node = self._compile(e)
        return self._leaf(e) if node is None else node

    def _compile(self, e: A.Expr):
        """e's node, or None when e is plain: decided from its operands', and
        for a label or formula once per checker, by its text."""
        if isinstance(e, (A.LabelRef, A.FormulaRef)):
            text = P.pretty_pexpr(e)
            if text not in self._refs:
                decl = self.mm.closed.spec.find(
                    P.LabelDecl if isinstance(e, A.LabelRef) else P.FormulaDecl, e.name)
                # an unknown name is plain: `ClosedModel.spec_expr` refuses it
                self._refs[text] = None if decl is None else self._compile(decl.body)
            return self._refs[text]
        if isinstance(e, NESTED):
            text = P.pretty_pexpr(e)
            return lambda states, keep: self._solved(text, e)[states]
        if isinstance(e, A.DeadlockRef):
            return lambda states, keep: np.array(self.mm.deadlock, dtype=bool)[states]
        if isinstance(e, A.InitRef):
            return lambda states, keep: states == self.mm.initial
        if isinstance(e, A.PATH_NODES):
            raise UnsupportedError(
                "a path formula is not a state formula; wrap it in Prob/Forall/Exists")
        operands = A.subexpressions(e)
        nodes = [self._compile(x) for x in operands]
        if all(node is None for node in nodes):
            return None
        nodes = [self._leaf(x) if node is None else node for x, node in zip(operands, nodes)]
        if isinstance(e, A.Unary) and e.op == "not":
            return lambda states, keep: ~nodes[0](states, keep)
        if isinstance(e, A.Binary) and e.op in ("/\\", "\\/", "=>", "iff"):
            return functools.partial(self._connective, e.op, *nodes)
        # reads a P, R, A, E, `deadlock` or `init` outside a connective, which
        # `ClosedModel.spec_expr` refuses by name
        return self._leaf(e)

    def _leaf(self, e: A.Expr):
        """The node of a plain state formula: unless `keep` it is evaluated
        at the states alone, and not kept."""
        if isinstance(e, A.Lit):
            if not isinstance(e.value, bool):
                raise CheckError("a numeric literal is not a state formula")
            return lambda states, keep: np.full(len(states), e.value)
        text, mm = P.pretty_pexpr(e), self.mm
        return lambda states, keep: mm.truth(e, text)[mm.row_of[states]] \
            if keep else mm.evaluate(e, states)

    def sat(self, e, states: np.ndarray | None = None) -> np.ndarray:
        """The truth of a state formula, or of its `node`, at `states`,
        expanded states given by index, or at every state of the model,
        which it expands first."""
        if states is None:
            self.mm.expand_all()
            states = np.arange(self.n)
        return (self.node(e) if isinstance(e, A.Expr) else e)(states, True)

    def _connective(self, op: str, left, right, states, keep: bool) -> np.ndarray:
        """`/\\` and `=>` read their right operand only at the states where the
        left holds, `\\/` where it fails, and keep nothing read there, so that
        an operand is never evaluated where its guard fails."""
        l = left(states, keep)
        if op == "iff":
            return l == right(states, keep)
        need = ~l if op == "\\/" else l
        if need.all():
            return right(states, keep)
        out = ~l if op == "=>" else l.copy()
        if need.any():
            out[need] = right(states[need], False)
        return out

    def _solved(self, text: str, e: A.Expr) -> np.ndarray:
        """The truth of a P, R, A or E at every state, solved over the whole
        model once per model (`MarkovModel.solved`): a later read sets the
        `engine` that the solve used, and counts no `iterations`.  It expands
        a model that is still growing."""
        self.mm.expand_all()
        if text not in self.mm.solved:
            truth = self.check_ae("A" if isinstance(e, A.Forall) else "E", e.path) \
                if isinstance(e, (A.Forall, A.Exists)) else self._compare(e)
            truth.flags.writeable = False
            self.mm.solved[text] = truth, self.engine
        truth, self.engine = self.mm.solved[text]
        return truth

    def _compare(self, e: A.ProbFormula | A.RewardFormula) -> np.ndarray:
        """A bounded P or R formula: per state, whether its value meets the
        bound, with a slack of 1e-12 on probabilities and 1e-9 on rewards."""
        if e.query is not None:
            what = "probability" if isinstance(e, A.ProbFormula) else "reward"
            raise CheckError(f"a {what} query is not a state formula; "
                             "queries are only allowed at the top level of a property")
        op = e.bound.op
        p = float(self.mm.closed.spec_expr(e.bound.expr, real=True)(None))
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
        form = until_form(path, self.mm.closed)
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

    def _prob01(self, sat1, sat2, mode: str):
        """prob0 and prob1 of sat1 U sat2 in `mode` (exact|min|max), by the
        searches and fixpoints of the module docstring.  Made once per
        structure for each value of the sets and the mode; the arrays are
        read-only, as the structure's models share them.  The support graph
        is found or made first, so that a traced run (`perfbench/tracing.py`)
        times each checker's use of it."""
        self.pred()

        def make():
            run = sat1 & ~sat2
            if mode == "min":
                # Prob0E: outside the least set that holds sat2 and each
                # sat1 state whose every move can enter it
                sup = self._move_support()
                prob0 = ~_lfp(lambda x: sat2 | (sat1 & self._reduce_moves(
                    sup @ x, np.logical_and)), sat2)
            else:
                prob0 = ~self._reach_exists(run, sat2)
            if mode == "max":
                # Prob1E: the greatest u from whose states sat2 is reached
                # through sat1 by moves that stay inside u
                sup = self._move_support()
                rev, moves = self._per_structure("move_graph", self._move_graph)
                prob1 = _lfp(lambda u: _reach(rev, sat1, sat2, (~(sup @ ~u))[moves]),
                             np.ones(self.n, dtype=bool))
            else:
                prob1 = ~self._reach_exists(run, prob0)
            prob0.flags.writeable = prob1.flags.writeable = False
            return prob0, prob1

        key = ("_prob01", mode, np.packbits(sat1).tobytes(), np.packbits(sat2).tobytes())
        return self._per_structure(key, make)

    def _move_graph(self):
        """The support graph reversed with one edge per move: a state's row
        holds the state of each move that can reach it; returned with the
        move of each entry."""
        from scipy import sparse
        into = self._move_support().T.tocsr()
        owner = np.repeat(np.arange(self.n), np.diff(self.mdp_arrays()[1]))
        rev = sparse.csr_matrix((into.data, owner[into.indices], into.indptr),
                                shape=(self.n, self.n))
        return rev, into.indices

    def _until_dtmc(self, sat1, sat2) -> np.ndarray:
        prob0, prob1 = self._prob01(sat1, sat2, "exact")
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
        prob0, prob1 = self._prob01(sat1, sat2, mode)
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
        form = until_form(path, self.mm.closed)
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
        """States with an infinite path that stays in target: those that
        reach, inside target, a cycle inside target."""
        return self._reach_exists(target, self._cycles(target, target))

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
        rs = reward_source(self.mm, rname)
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
            k = max(step_bound(self.mm.closed, A.Bound("<=", rpath.operand)), 0)
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
        # the supremum over adversaries is infinite where some adversary
        # misses the target, the infimum where every adversary does
        finite = self._prob01(np.ones(self.n, dtype=bool), target, _flip(mode))[1] | target
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


def reward_source(mm: MarkovModel, rname: str | None) -> RewardStructure:
    """The reward structure named `rname` attached to the model (with None,
    the only one attached), else the declaration of that name in the spec
    of its configuration, which is attached; covered over every expanded
    state."""
    if rname is None:
        names = list(mm.rewards)
        if len(names) != 1:
            raise CheckError("the reward formula needs a rewards name "
                             f"(attached: {names or 'none'})")
        rname = names[0]
    if rname not in mm.rewards:
        decl = mm.closed.spec.find(P.RewardsDecl, rname)
        if decl is None:
            raise CheckError(f"unknown rewards {rname!r}")
        attach_rewards(mm, decl)
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


def _reach(rev, through: np.ndarray, target: np.ndarray, edges=None) -> np.ndarray:
    """States of target, and states of through with a path inside through to
    target: a breadth-first search over the reversed edges `rev` (a square
    CSR matrix), or those of its entries that the mask `edges` keeps, from a
    virtual root wired to every target state."""
    from scipy import sparse
    from scipy.sparse import csgraph
    n = rev.shape[0]
    keep = through[rev.indices]
    if edges is not None:
        keep &= edges
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


def check_state_formula(mm: MarkovModel, expr: A.Expr, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-state satisfaction of a boolean state formula."""
    return ExactChecker(mm, tol).sat(expr)


def prob_path(mm: MarkovModel, path: A.Expr, mode: str = "exact",
              tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-state probability of an unbounded or bounded path formula."""
    return ExactChecker(mm, tol).prob_path(path, mode)


def check_AE(mm: MarkovModel, quant: str, path: A.Expr) -> np.ndarray:
    """Per-state verdict of a Forall/Exists path quantifier."""
    return ExactChecker(mm).check_ae(quant, path)


def expected_reward(mm: MarkovModel, rname: str | None, rpath: A.Expr, mode: str = "exact",
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-state expected reward (+inf where accumulation diverges)."""
    return ExactChecker(mm, tol).expected_reward(rname, rpath, mode)


def check_property(mm: MarkovModel, prop: P.ProbProperty, config_id: str = "",
                   tol: float = DEFAULT_TOL) -> CheckResult:
    """Judge a property at the initial state of a built model."""
    t0 = time.perf_counter()
    checker = ExactChecker(mm, tol)
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
