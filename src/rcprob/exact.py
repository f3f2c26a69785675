"""Exact property checking over explicit Markov models.

Probability and reward operators first split the states by qualitative
graph precomputation (prob-0/prob-1, finite-reward regions, bottom strongly
connected components).  On a dtmc the remaining unbounded values come from
one sparse LU solve of (I - P[m, m]) x = b over the undecided states m; on
an mdp they come from value iteration, which stops when successive iterates
change by less than `tol`.  A/E path quantifiers run pure graph analysis
over the positive-probability edge relation of the deadlock-completed model.

The graph layer reads two boolean sparse matrices: the support of the dtmc
matrix (state to state) and the support of the choice CSR (move to state).
Fixpoints iterate boolean sparse mat-vec steps until they stop changing;
"some move" and "every move" of a state reduce the per-move results over the
state's block of moves.  Reachability is a breadth-first search and strongly
connected components come from `scipy.sparse.csgraph`.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from . import ast as A
from . import props as P
from .build import ClosedModel, MarkovModel, attach_rewards

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10 ** 6

AE_FRAGMENT = ("X, U, F, G with state operands (optionally bounded), GF, FG, "
               "GF=>GF, FG=>GF, and G(p => F q)")


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
    for node in A.walk(e):
        if isinstance(node, A.PATH_NODES + A.REWARD_PATH_NODES):
            return False
    return True


class ExactChecker:
    """Checks over a complete model.  With `states`, an array of state
    indices, `sat` evaluates state formulas at those states only, and the
    model may still be growing: a formula that needs more than each state's
    own valuation (P, R, A, E) expands the whole model first."""

    def __init__(self, mm: MarkovModel, closed: ClosedModel,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 states: np.ndarray | None = None):
        self.mm = mm
        self.closed = closed
        self.tol = tol
        self.max_iter = max_iter
        self.states = states
        self.iterations = 0
        self.engine = "graph"
        self.n = mm.num_states if states is None else states.size
        self._sat_cache: dict[int, np.ndarray] = {}
        self._succ = None
        self._pred = None
        self._dtmc_csr = None
        self._mdp_arrays = None

    @functools.cached_property
    def _deterministic(self) -> bool:
        return all(len(row) <= 1 for row in self.mm.moves)

    # --- graph structure -------------------------------------------------

    def succ(self):
        """The support graph: a boolean CSR of the positive dtmc entries."""
        if self._succ is None:
            self._succ = self.dtmc_matrix().astype(bool)
        return self._succ

    def pred(self):
        """The support graph reversed."""
        if self._pred is None:
            self._pred = self.succ().T.tocsr()
        return self._pred

    def dtmc_matrix(self):
        """The dtmc transition matrix: each state mixes its moves uniformly."""
        if self._dtmc_csr is None:
            mat, bounds = self.mdp_arrays()
            counts = np.diff(bounds)
            mix = sparse.csr_matrix(
                (np.repeat(1.0 / counts, counts), np.arange(mat.shape[0]), bounds),
                shape=(self.n, mat.shape[0]))
            self._dtmc_csr = (mix @ mat).tocsr()
            self._dtmc_csr.sort_indices()
        return self._dtmc_csr

    def mdp_arrays(self):
        """The model's choice CSR (`MarkovModel.choice_csr`)."""
        if self._mdp_arrays is None:
            self._mdp_arrays = self.mm.choice_csr()
        return self._mdp_arrays

    def _move_support(self):
        """The choice CSR's support as a boolean matrix, and the first move
        of each state (every state has one: see `check_stochastic`)."""
        mat, bounds = self.mdp_arrays()
        return mat.astype(bool), bounds[:-1]

    def _reduce_moves(self, per_move: np.ndarray, mode: str) -> np.ndarray:
        mat, bounds = self.mdp_arrays()
        groups = bounds[:-1]
        if mode == "max":
            return np.maximum.reduceat(per_move, groups)
        return np.minimum.reduceat(per_move, groups)

    # --- state formulas ----------------------------------------------------

    def sat(self, e: A.Expr) -> np.ndarray:
        # keyed by node identity; the node is pinned so ids cannot be recycled
        key = id(e)
        if key in self._sat_cache:
            return self._sat_cache[key][1]
        out = self._sat(e)
        self._sat_cache[key] = (e, out)
        return out

    def _at_states(self, values: np.ndarray) -> np.ndarray:
        return values if self.states is None else values[self.states]

    def _on_model(self, e: A.Expr, values_from) -> np.ndarray:
        """A state formula's truth at every state the model knows, cached on
        the model and extended by `values_from(lo)`, its truth at the states
        from lo on."""
        entry = self.mm.values.setdefault((id(e), id(self.closed)),
                                          [e, self.closed, np.zeros(0, dtype=bool)])
        if entry[2].size < self.mm.num_states:
            entry[2] = np.concatenate([entry[2], values_from(entry[2].size)])
            entry[2].flags.writeable = False
        return self._at_states(entry[2])

    def _atom(self, e: A.Expr) -> np.ndarray:
        fn = self.closed.spec_expr(e)
        return self._on_model(e, lambda lo: np.array(
            [bool(fn(st)) for st in self.mm.states[lo:]], dtype=bool))

    def _sat(self, e: A.Expr) -> np.ndarray:
        mm = self.mm
        if isinstance(e, A.Lit):
            if not isinstance(e.value, bool):
                raise CheckError("a numeric literal is not a state formula")
            return np.full(self.n, e.value, dtype=bool)
        if isinstance(e, A.DeadlockRef):
            return self._at_states(np.array(mm.deadlock, dtype=bool))
        if isinstance(e, A.InitRef):
            return self._at_states(np.arange(mm.num_states) == mm.initial)
        if self.states is not None and isinstance(
                e, (A.ProbFormula, A.RewardFormula, A.Forall, A.Exists)):
            mm.expand_all()  # complete from now on: computed once
            return self._on_model(e, lambda lo: ExactChecker(
                mm, self.closed, self.tol, self.max_iter).sat(e)[lo:])
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
        if isinstance(e, A.ProbFormula):
            return self._prob_formula(e)
        if isinstance(e, A.RewardFormula):
            return self._reward_formula(e)
        if isinstance(e, A.Forall):
            return self.check_ae("A", e.path)
        if isinstance(e, A.Exists):
            return self.check_ae("E", e.path)
        if isinstance(e, A.PATH_NODES):
            raise UnsupportedError(
                "a path formula is not a state formula; wrap it in Prob/Forall/Exists")
        # plain boolean state expression over the valuation
        return self._atom(e)

    def _bound_value(self, bound: A.Bound) -> float:
        value = self.closed.spec_expr(bound.expr)(None)
        return float(value)

    def _step_bound(self, bound: A.Bound | None) -> int | None:
        if bound is None:
            return None
        value = self.closed.spec_expr(bound.expr)(None)
        k = int(value)
        if k != value:
            raise CheckError(f"step bound must be an integer, got {value}")
        if bound.op == "<=":
            pass
        elif bound.op == "<":
            k = k - 1
        else:
            raise UnsupportedError(f"step bound {bound.op!r} is not supported (use <= or <)")
        if k < 0:
            k = -1  # empty horizon
        return k

    def _prob_formula(self, e: A.ProbFormula) -> np.ndarray:
        if e.query is not None:
            raise CheckError("a probability query is not a state formula; "
                             "queries are only allowed at the top level of a property")
        bound = e.bound
        p = self._bound_value(bound)
        # upper bounds quantify over the worst (largest) adversary, lower
        # bounds over the smallest
        if self.mm.kind == "mdp" and not self._deterministic:
            mode = "max" if bound.op in ("<", "<=") else "min"
        else:
            mode = "exact"
        values = self.prob_path(e.path, mode)
        if bound.op == "<":
            return values < p
        if bound.op == "<=":
            return values <= p + 1e-12
        if bound.op == ">":
            return values > p
        return values >= p - 1e-12

    def _reward_formula(self, e: A.RewardFormula) -> np.ndarray:
        if e.query is not None:
            raise CheckError("a reward query is not a state formula; "
                             "queries are only allowed at the top level of a property")
        p = self._bound_value(e.bound)
        if self.mm.kind == "mdp" and not self._deterministic:
            mode = "max" if e.bound.op in ("<", "<=") else "min"
        else:
            mode = "exact"
        values = self.expected_reward(e.rewards, e.path, mode)
        if e.bound.op == "<":
            return values < p
        if e.bound.op == "<=":
            return values <= p + 1e-9
        if e.bound.op == ">":
            return values > p
        return values >= p - 1e-9

    # --- probability computation ---------------------------------------------

    def prob_path(self, path: A.Expr, mode: str) -> np.ndarray:
        """Per-state probability of a path formula; mode in exact|min|max."""
        self.engine = "numeric"
        if self.mm.kind == "dtmc" or self._deterministic:
            mode = "exact"
        elif mode == "exact":
            raise CheckError("plain probabilities are underspecified on an mdp; "
                             "use min =? or max =?")
        if isinstance(path, A.Next):
            if not _is_state_expr(path.operand):
                raise UnsupportedError("nested temporal operators under P are not supported")
            target = self.sat(path.operand).astype(float)
            return self._one_step(target, mode)
        if isinstance(path, A.Finally_):
            return self._until(A.Lit(True), path.operand, self._step_bound(path.bound), mode)
        if isinstance(path, A.Globally):
            k = self._step_bound(path.bound)
            inner = self._until(A.Lit(True), A.Unary("not", path.operand), k,
                                _flip(mode))
            return np.clip(1.0 - inner, 0.0, 1.0)
        if isinstance(path, A.Until):
            return self._until(path.left, path.right, self._step_bound(path.bound), mode)
        if isinstance(path, A.WeakUntil):
            k = self._step_bound(path.bound)
            l, r = path.left, path.right
            bad_src = A.Binary("/\\", l, A.Unary("not", r))
            bad_tgt = A.Binary("/\\", A.Unary("not", l), A.Unary("not", r))
            inner = self._until(bad_src, bad_tgt, k, _flip(mode))
            return np.clip(1.0 - inner, 0.0, 1.0)
        if isinstance(path, A.Release):
            k = self._step_bound(path.bound)
            inner = self._until(A.Unary("not", path.left), A.Unary("not", path.right),
                                k, _flip(mode))
            return np.clip(1.0 - inner, 0.0, 1.0)
        raise UnsupportedError(
            f"{type(path).__name__} is not a supported path formula under P")

    def _one_step(self, target: np.ndarray, mode: str) -> np.ndarray:
        if mode == "exact":
            return self.dtmc_matrix().dot(target)
        mat, bounds = self.mdp_arrays()
        per_move = mat.dot(target)
        return self._reduce_moves(per_move, mode)

    def _until(self, left: A.Expr, right: A.Expr, k: int | None, mode: str) -> np.ndarray:
        if not (_is_state_expr(left) and _is_state_expr(right)):
            raise UnsupportedError("nested temporal operators under P are not supported")
        sat1 = self.sat(left)
        sat2 = self.sat(right)
        if k is not None:
            return self._bounded_until(sat1, sat2, k, mode)
        if mode == "exact":
            return self._until_dtmc(sat1, sat2)
        return self._until_mdp(sat1, sat2, mode)

    def _bounded_until(self, sat1, sat2, k: int, mode: str) -> np.ndarray:
        x = sat2.astype(float)
        if k < 0:
            return np.zeros(self.n)
        run = sat1 & ~sat2
        self.iterations = k
        for _ in range(k):
            step = self._one_step(x, mode)
            x = np.where(sat2, 1.0, np.where(run, step, 0.0))
        return x

    # qualitative precomputation ------------------------------------------------

    def _reach_exists(self, sat1: np.ndarray, sat2: np.ndarray) -> np.ndarray:
        """States with a positive-probability path to sat2 through sat1."""
        return _reach(self.pred(), sat1, sat2)

    def _prob0_min(self, sat1, sat2):
        """States where the minimum until-probability is 0: the complement
        of the least fixpoint of states where every move keeps a positive
        chance."""
        sup, starts = self._move_support()
        return ~_lfp(lambda x: sat2 | (sat1 & np.logical_and.reduceat(sup @ x, starts)),
                     sat2)

    def _prob01_dtmc(self, sat1, sat2):
        """prob0 and prob1 of sat1 U sat2 on a dtmc: states that reach sat2
        with probability 0, and states that cannot reach a prob0 state
        through sat1 & ~sat2."""
        prob0 = ~self._reach_exists(sat1 & ~sat2, sat2)
        return prob0, ~self._reach_exists(sat1 & ~sat2, prob0)

    def _prob1_max(self, sat1, sat2):
        """Prob1E: states where some adversary reaches sat2 almost surely:
        the greatest u such that every state of u reaches sat2 through sat1
        by moves that all stay inside u."""
        sup, starts = self._move_support()

        def attractor(u):
            stays = ~(sup @ ~u)
            return _lfp(lambda v: sat2 | (sat1 & np.logical_or.reduceat(stays & (sup @ v), starts)),
                        sat2)

        return _lfp(attractor, np.ones(self.n, dtype=bool))

    def _prob1_min(self, sat1, sat2):
        """Prob1A: states where every adversary reaches sat2 almost surely."""
        sup, starts = self._move_support()
        # greatest existential invariant inside sat1 & ~sat2
        inv = _lfp(lambda x: x & np.logical_or.reduceat(~(sup @ ~x), starts), sat1 & ~sat2)
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
        """x with (I - P[idx, idx]) x = b by one sparse LU factorisation.

        Every caller's precomputation guarantees that each state of idx
        leaves idx with probability 1, so the system is nonsingular."""
        q = self.dtmc_matrix()[idx][:, idx]
        self.iterations = 1
        return splu((sparse.identity(idx.size, format="csc") - q).tocsc()).solve(b)

    def _until_mdp(self, sat1, sat2, mode) -> np.ndarray:
        if mode == "max":
            prob0 = ~self._reach_exists(sat1 & ~sat2, sat2)
            prob1 = self._prob1_max(sat1, sat2)
        else:
            prob0 = self._prob0_min(sat1, sat2)
            prob1 = self._prob1_min(sat1, sat2)
        x = np.zeros(self.n)
        x[prob1] = 1.0
        unknown = ~prob0 & ~prob1
        if not unknown.any():
            self.iterations = 0
            return x
        mat, bounds = self.mdp_arrays()
        self.iterations = 0
        for it in range(self.max_iter):
            per_move = mat.dot(x)
            agg = self._reduce_moves(per_move, mode)
            new_vals = np.where(sat2, 1.0, np.where(sat1, agg, 0.0))
            new_vals[prob1] = 1.0
            new_vals[prob0] = 0.0
            delta = np.max(np.abs(new_vals - x) / np.maximum(np.abs(new_vals), 1.0))
            x = new_vals
            self.iterations = it + 1
            if delta < self.tol:
                break
        else:
            raise CheckError(f"value iteration hit the cap; last residual {delta:g}")
        return np.clip(x, 0.0, 1.0)

    # --- A/E path quantifiers ----------------------------------------------------

    def check_ae(self, quant: str, path: A.Expr) -> np.ndarray:
        self.engine = "graph"
        shape = self._ae_shape(path)
        if shape is None:
            raise UnsupportedError(
                f"path formula outside the supported A/E fragment ({AE_FRAGMENT})")
        kind = shape[0]
        if kind == "X":
            target = self.sat(shape[1])
            return self.succ() @ target if quant == "E" else ~(self.succ() @ ~target)
        if kind == "U":
            _, left, right, k = shape
            sat1, sat2 = self.sat(left), self.sat(right)
            if k is not None:
                return self._ae_bounded_until(sat1, sat2, k, quant)
            if quant == "E":
                return self._reach_exists(sat1 & ~sat2, sat2)
            bad = self._reach_exists(~sat2, ~sat1 & ~sat2) | self._eg(~sat2)
            return ~bad
        if kind == "W":
            _, left, right, k = shape
            sat1, sat2 = self.sat(left), self.sat(right)
            if k is not None:
                if quant == "A":
                    return ~self._ae_bounded_until(sat1 & ~sat2, ~sat1 & ~sat2, k, "E")
                return self._ae_weak_bounded(sat1, sat2, k)
            if quant == "A":
                return ~self._reach_exists(sat1 & ~sat2, ~sat1 & ~sat2)
            return self._reach_exists(sat1 & ~sat2, sat2) | self._eg(sat1)
        if kind == "R":
            # l R r holds exactly where (not l) U (not r) fails
            return ~self.check_ae("E" if quant == "A" else "A", shape[1])
        if kind == "GF":
            target = self.sat(shape[1])
            if quant == "E":
                return self._e_gf(target)
            return ~self._e_fg(~target)
        if kind == "FG":
            target = self.sat(shape[1])
            if quant == "E":
                return self._e_fg(target)
            return ~self._e_gf(~target)
        if kind == "GF=>GF":
            p, q = self.sat(shape[1]), self.sat(shape[2])
            if quant == "A":
                # no reachable cycle through a p-state inside the ~q subgraph
                bad_cycle = self._cycle_states(~q) & p
                return ~self._reach_exists(np.ones(self.n, dtype=bool), bad_cycle)
            return self._e_fg(~p) | self._e_gf(q)
        if kind == "FG=>GF":
            p, q = self.sat(shape[1]), self.sat(shape[2])
            if quant == "A":
                return ~self._e_fg(p & ~q)
            return self._e_gf(~p) | self._e_gf(q)
        if kind == "G=>F":
            p, q = self.sat(shape[1]), self.sat(shape[2])
            if quant == "A":
                bad = p & self._eg(~q)
                return ~self._reach_exists(np.ones(self.n, dtype=bool), bad)
            return self._e_response(p, q)
        if kind == "G":
            target = self.sat(shape[1])
            k = shape[2]
            if k is not None:
                bad = self._ae_bounded_until(np.ones(self.n, dtype=bool), ~target, k,
                                             "E" if quant == "A" else "A")
                return ~bad
            if quant == "E":
                return self._eg(target)
            return ~self._reach_exists(np.ones(self.n, dtype=bool), ~target)
        raise AssertionError(kind)

    def _ae_shape(self, path: A.Expr):
        """Normalize a path formula into one of the supported A/E shapes."""
        if isinstance(path, A.Next) and _is_state_expr(path.operand):
            return ("X", path.operand)
        if isinstance(path, A.Until):
            if _is_state_expr(path.left) and _is_state_expr(path.right):
                return ("U", path.left, path.right, self._step_bound(path.bound))
            return None
        if isinstance(path, A.WeakUntil):
            if _is_state_expr(path.left) and _is_state_expr(path.right):
                return ("W", path.left, path.right, self._step_bound(path.bound))
            return None
        if isinstance(path, A.Release):
            if _is_state_expr(path.left) and _is_state_expr(path.right):
                return ("R", A.Until(A.Unary("not", path.left), path.bound,
                                     A.Unary("not", path.right)))
            return None
        if isinstance(path, A.Finally_):
            op = path.operand
            if isinstance(op, A.Globally) and path.bound is None and op.bound is None \
                    and _is_state_expr(op.operand):
                return ("FG", op.operand)
            if _is_state_expr(op):
                return ("U", A.Lit(True), op, self._step_bound(path.bound))
            return None
        if isinstance(path, A.Globally):
            op = path.operand
            if isinstance(op, A.Finally_) and path.bound is None and op.bound is None \
                    and _is_state_expr(op.operand):
                return ("GF", op.operand)
            if isinstance(op, A.Binary) and op.op == "=>" and path.bound is None \
                    and isinstance(op.right, A.Finally_) and op.right.bound is None \
                    and _is_state_expr(op.left) and _is_state_expr(op.right.operand):
                return ("G=>F", op.left, op.right.operand)
            if _is_state_expr(op):
                return ("G", op, self._step_bound(path.bound))
            return None
        if isinstance(path, A.Binary) and path.op == "=>":
            left = self._gf_or_fg(path.left)
            right = self._gf_or_fg(path.right)
            if left is not None and right is not None and right[0] == "GF":
                return (f"{left[0]}=>GF", left[1], right[1])
            return None
        return None

    def _gf_or_fg(self, e: A.Expr):
        if isinstance(e, A.Globally) and e.bound is None and isinstance(e.operand, A.Finally_) \
                and e.operand.bound is None and _is_state_expr(e.operand.operand):
            return ("GF", e.operand.operand)
        if isinstance(e, A.Finally_) and e.bound is None and isinstance(e.operand, A.Globally) \
                and e.operand.bound is None and _is_state_expr(e.operand.operand):
            return ("FG", e.operand.operand)
        return None

    def _ae_bounded_until(self, sat1, sat2, k: int, quant: str) -> np.ndarray:
        if k < 0:
            return np.zeros(self.n, dtype=bool)
        succ = self.succ()
        if quant == "E":
            return _lfp(lambda x: sat2 | (sat1 & (succ @ x)), sat2, k)
        return _lfp(lambda x: sat2 | (sat1 & ~(succ @ ~x)), sat2, k)

    def _ae_weak_bounded(self, sat1, sat2, k) -> np.ndarray:
        unt = self._ae_bounded_until(sat1, sat2, k, "E")
        glob = ~self._ae_bounded_until(np.ones(self.n, dtype=bool), ~sat1, k, "A")
        return unt | glob

    def _eg(self, target: np.ndarray) -> np.ndarray:
        """Greatest fixpoint: states with an infinite path staying in target."""
        succ = self.succ()
        return _lfp(lambda x: x & (succ @ x), target)

    def _cycle_states(self, restrict: np.ndarray) -> np.ndarray:
        """States on a cycle of the support graph restricted to `restrict`."""
        idx = np.flatnonzero(restrict)
        out = np.zeros(self.n, dtype=bool)
        out[idx] = _sccs(self.succ()[idx][:, idx])[1]
        return out

    def _e_gf(self, target: np.ndarray) -> np.ndarray:
        # reach a cyclic SCC containing a target state, then loop through it
        labels, cyclic = _sccs(self.succ())
        good = np.zeros(labels.max() + 1, dtype=bool)
        good[labels[cyclic & target]] = True
        return self._reach_exists(np.ones(self.n, dtype=bool), good[labels])

    def _e_fg(self, target: np.ndarray) -> np.ndarray:
        return self._reach_exists(np.ones(self.n, dtype=bool), self._eg(target))

    def _e_response(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """E[G (p => F q)] via a one-bit obligation monitor product."""
        # product node = s * 2 + bit, where bit is an obligation still owed
        # after entering s; a good lasso loops through a clean (bit 0) node
        edges = self.succ().tocoo()
        src, dst = edges.row, edges.col
        owed = ~q[dst]
        rows = np.concatenate([2 * src, 2 * src + 1])
        cols = np.concatenate([2 * dst + (p[dst] & owed), 2 * dst + owed])
        prod = sparse.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)),
                                 shape=(2 * self.n, 2 * self.n))
        labels, cyclic = _sccs(prod)
        good = np.zeros(labels.max() + 1, dtype=bool)
        good[labels[0::2][cyclic[0::2]]] = True
        reach = _reach(prod.T.tocsr(), np.ones(2 * self.n, dtype=bool), good[labels])
        return reach[2 * np.arange(self.n) + (p & ~q)]

    # --- rewards ---------------------------------------------------------------

    def _reward_arrays(self, rname: str | None):
        mm = self.mm
        rs = reward_source(mm, self.closed, rname)
        if isinstance(rs, P.RewardsDecl):
            attach_rewards(mm, rs, self.closed)
            rs = mm.rewards[rs.name]
        state_r = np.array([float(v) for v in rs.state])
        mat, bounds = self.mdp_arrays()
        move_r = np.zeros(mat.shape[0])
        for (s, mi), v in rs.move.items():
            move_r[bounds[s] + mi] = float(v)
        return state_r, move_r

    def expected_reward(self, rname: str | None, rpath: A.Expr, mode: str) -> np.ndarray:
        self.engine = "numeric"
        if self.mm.kind == "dtmc" or self._deterministic:
            mode = "exact"
        elif mode == "exact":
            raise CheckError("plain reward queries are underspecified on an mdp; "
                             "use min =? or max =?")
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
            k = int(self.closed.spec_expr(rpath.operand)(None))
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
        return state_r + self._reduce_moves(per_move, mode)

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
        self.iterations = 0
        if idx.size == 0:
            return x
        if mode == "exact":
            x[idx] = self._solve(idx, self._dtmc_reward_base(state_r, move_r)[idx])
            return x
        # value iteration over the finite region; moves into the infinite
        # region are excluded (max) or poison the move (min handled by inf)
        for it in range(self.max_iter):
            backup = self._expected_move_reward(state_r, move_r, x, mode)
            new = x.copy()
            new[idx] = backup[idx]
            delta = np.max(np.abs(new[idx] - x[idx]) / np.maximum(np.abs(new[idx]), 1.0))
            x = new
            self.iterations = it + 1
            if delta < self.tol:
                break
        else:
            raise CheckError(f"value iteration hit the cap; last residual {delta:g}")
        return x

    def _cumul_reward(self, k: int, state_r, move_r, mode) -> np.ndarray:
        x = np.zeros(self.n)
        if mode == "exact":
            base = self._dtmc_reward_base(state_r, move_r)
            mat = self.dtmc_matrix()
            for _ in range(k):
                x = base + mat.dot(x)
        else:
            for _ in range(k):
                x = self._expected_move_reward(state_r, move_r, x, mode)
        self.iterations = k
        return x

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


def reward_source(mm: MarkovModel, closed: ClosedModel, rname: str | None):
    """The reward structure named `rname` attached to the model (with None,
    the only one attached), else the spec's declaration of that name."""
    if rname is None:
        names = list(mm.rewards)
        if len(names) != 1:
            raise CheckError("the reward formula needs a rewards name "
                             f"(attached: {names or 'none'})")
        rname = names[0]
    if rname in mm.rewards:
        return mm.rewards[rname]
    decl = closed.spec.find(P.RewardsDecl, rname)
    if decl is None:
        raise CheckError(f"unknown rewards {rname!r}")
    return decl


def _lfp(step, x: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Iterate a monotone boolean step from x until it stops changing (or
    `limit` times): the least fixpoint above an x below it, the greatest
    below an x above it."""
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
              mode: str = "exact", tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Per-state probability of an unbounded or bounded path formula."""
    return ExactChecker(mm, closed, tol, max_iter).prob_path(path, mode)


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
                   config_id: str = "", tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> CheckResult:
    """Judge a property at the initial state of a built model."""
    t0 = time.perf_counter()
    checker = ExactChecker(mm, closed, tol, max_iter)
    body = prop.body
    mode_name = "exact"
    if isinstance(body, A.ProbFormula) and body.query is not None:
        mode = {A.QUERY_PLAIN: "exact", A.QUERY_MIN: "min", A.QUERY_MAX: "max"}[body.query]
        if mm.kind == "dtmc" and mode != "exact":
            mode = "exact"  # a dtmc has a single adversary
        values = checker.prob_path(body.path, mode)
        verdict = float(values[mm.initial])
        mode_name = {"exact": "exact", "min": "minOverAdversaries",
                     "max": "maxOverAdversaries"}[mode]
    elif isinstance(body, A.RewardFormula) and body.query is not None:
        mode = {A.QUERY_PLAIN: "exact", A.QUERY_MIN: "min", A.QUERY_MAX: "max"}[body.query]
        if mm.kind == "dtmc" and mode != "exact":
            mode = "exact"
        values = checker.expected_reward(body.rewards, body.path, mode)
        v = values[mm.initial]
        verdict = math.inf if np.isinf(v) else float(v)
        mode_name = {"exact": "exact", "min": "minOverAdversaries",
                     "max": "maxOverAdversaries"}[mode]
    else:
        sat = checker.sat(body)
        verdict = bool(sat[mm.initial])
    return CheckResult(prop.name, config_id, verdict, mode_name, checker.engine,
                       checker.iterations, time.perf_counter() - t0)
