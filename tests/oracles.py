"""Independent oracles for the test suite.

Everything here deliberately avoids the engine's own algorithms: reachability
probabilities and rewards come from dense or sparse linear solves over the
exported explicit text format, MDP extrema and their 0/1 states from
exhaustive memoryless-adversary enumeration, qualitative path verdicts
from brute-force simple-cycle enumeration, and state formulas state by
state, with connectives that read left to right.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from rcprob import ast as A
from rcprob import props as P
from rcprob.build import MarkovModel, RewardStructure, WeightTable


class StubContext:
    """Minimal stand-in for a ClosedModel when checking raw Markov models.

    Resolves single-segment references positionally against var_names, so
    expressions like `x == 3` work on synthetic models.
    """

    def __init__(self, var_names):
        self.var_names = tuple(var_names)
        self.spec = P.SpecAst()

    def spec_expr(self, e, real=False):
        idx = {n: i for i, n in enumerate(self.var_names)}

        def compile_(e):
            if isinstance(e, A.Lit):
                return lambda s: e.value
            if isinstance(e, A.Ref):
                name = e.name.segments[-1]
                i = idx[name]
                return lambda s: s[i]
            if isinstance(e, A.Unary):
                f = compile_(e.operand)
                if e.op == "not":
                    return lambda s: not f(s)
                return lambda s: -f(s)
            if isinstance(e, A.Binary):
                lf, rf = compile_(e.left), compile_(e.right)
                import operator
                ops = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                       "<=": operator.le, ">": operator.gt, ">=": operator.ge,
                       "+": operator.add, "-": operator.sub, "*": operator.mul,
                       "/\\": lambda a, b: a and b, "\\/": lambda a, b: a or b,
                       "=>": lambda a, b: (not a) or b}
                op = ops[e.op]
                return lambda s: op(lf(s), rf(s))
            raise TypeError(type(e).__name__)

        return compile_(e)


def var_eq(name: str, value) -> A.Expr:
    return A.Binary("==", A.Ref(A.QName((name,))), A.Lit(value))


def var_in(name: str, values) -> A.Expr:
    expr = var_eq(name, values[0])
    for v in values[1:]:
        expr = A.Binary("\\/", expr, var_eq(name, v))
    return expr


@dataclass
class Move:
    """One move of a state of an explicit model, by destination index."""
    action: str
    # in the order the explorer generated them, each destination once
    branches: tuple[tuple[Fraction, int], ...]
    tags: frozenset = frozenset()


def explicit_model(kind: str, var_names, states, moves: list[list[Move]], deadlock: list[bool],
                   initial: int = 0, lazy: bool = False, closed=None) -> MarkovModel:
    """The model whose state i is `states[i]`, with the moves `moves[i]`
    (branches of weight 0 dropped) and the deadlock flag `deadlock[i]`,
    under the configuration `closed` (by default a `StubContext` of its
    variables).  It knows every state from the start, in index order, and
    is expanded whole, states the initial one cannot reach included; with
    `lazy` it knows only the initial state and is not expanded, so that it
    numbers its states in the order it meets them."""
    index = {st: s for s, st in enumerate(states)}
    nodes = WeightTable()

    def successors(state):
        s = index[state]
        return ([(mv.action, mv.tags,
                  [(nodes.leaf(p), states[d]) for p, d in mv.branches if p > 0])
                 for mv in moves[s]], deadlock[s])

    closed = StubContext(var_names) if closed is None else closed
    if lazy:
        return MarkovModel(kind, tuple(var_names), [states[initial]], successors, nodes,
                           closed=closed)
    mm = MarkovModel(kind, tuple(var_names), list(states), successors, nodes, initial,
                     closed=closed)
    mm.expand_all()
    return mm


def moves_of(mm: MarkovModel, s: int) -> list[Move] | None:
    """The moves of state s, read from mm's move store as `Move` records;
    None while s is unexpanded."""
    r = int(mm.row_of[s])
    if r < 0:
        return None
    out = []
    for m in range(mm.first_move[r], mm.first_move[r + 1]):
        branches = range(mm.first_branch[m], mm.first_branch[m + 1])
        out.append(Move(mm.move_action[m],
                        tuple((mm.weights[mm.node_id[b]], int(mm.dest[b])) for b in branches),
                        mm.move_tags[m]))
    return out


def dtmc_row(mm: MarkovModel, s: int) -> dict[int, Fraction]:
    """The dtmc distribution of state s: uniform mixture over its moves."""
    moves = moves_of(mm, s)
    out: dict[int, Fraction] = {}
    for mv in moves:
        for p, d in mv.branches:
            out[d] = out.get(d, Fraction(0)) + p / len(moves)
    return out


def all_moves(mm: MarkovModel) -> list[list[Move] | None]:
    """The moves of every state of mm, as `explicit_model` takes them."""
    return [moves_of(mm, s) for s in range(mm.num_states)]


def reward_structure(mm: MarkovModel, name: str, state, move=None) -> RewardStructure:
    """Attach to the complete model mm a reward structure given per state
    and per (state, move index), laid out as its move store."""
    rs = RewardStructure(name, np.zeros(len(mm.order)), np.zeros(len(mm.move_action)))
    rs.state[mm.row_of] = [float(v) for v in state]
    for (s, mi), value in (move or {}).items():
        rs.move[mm.first_move[mm.row_of[s]] + mi] = float(value)
    mm.rewards[name] = rs
    return rs


def move_rewards_of(mm: MarkovModel, rs: RewardStructure) -> dict[tuple[int, int], float]:
    """The nonzero move rewards of rs per (state, move index)."""
    out = {}
    for s, r in enumerate(mm.row_of.tolist()):
        m0 = int(mm.first_move[r])
        for m in range(m0, int(mm.first_move[r + 1])):
            if rs.move[m]:
                out[s, m - m0] = float(rs.move[m])
    return out


# --- random model generators -----------------------------------------------------


def random_dtmc(rng, n: int) -> MarkovModel:
    states = [(i,) for i in range(n)]
    moves = []
    n_absorbing = max(1, n // 10)
    absorbing = set(rng.sample(range(n), n_absorbing))
    for s in range(n):
        if s in absorbing:
            moves.append([Move("loop", ((Fraction(1), s),))])
            continue
        k = rng.randint(1, min(4, n))
        dests = rng.sample(range(n), k)
        weights = [rng.randint(1, 5) for _ in dests]
        total = sum(weights)
        branches = tuple((Fraction(w, total), d) for w, d in zip(weights, dests))
        moves.append([Move("a", branches)])
    return explicit_model("dtmc", ("x",), states, moves, [s in absorbing for s in range(n)])


def random_mdp(rng, n: int, max_nondet_states: int = 8) -> MarkovModel:
    states = [(i,) for i in range(n)]
    moves = []
    nondet = set(rng.sample(range(n), min(max_nondet_states, n)))
    absorbing = set(rng.sample(range(n), max(1, n // 5)))
    for s in range(n):
        if s in absorbing:
            moves.append([Move("loop", ((Fraction(1), s),))])
            continue
        n_actions = rng.randint(2, 3) if s in nondet else 1
        row = []
        for a in range(n_actions):
            k = rng.randint(1, min(3, n))
            dests = rng.sample(range(n), k)
            weights = [rng.randint(1, 4) for _ in dests]
            total = sum(weights)
            branches = tuple((Fraction(w, total), d) for w, d in zip(weights, dests))
            row.append(Move(f"a{a}", branches))
        moves.append(row)
    return explicit_model("mdp", ("x",), states, moves, [s in absorbing for s in range(n)])


def random_line_mdp(rng, n: int, max_nondet_states: int = 5) -> MarkovModel:
    """States 0..n-1 on a line, the last absorbing: each branch steps at
    most one back or two ahead, so that graph searches take about n rounds.
    Every state's first move can step ahead; the other moves of a state
    with a choice are drawn freely, so some only stay or step back, which
    makes end components."""
    states = [(i,) for i in range(n)]
    nondet = set(rng.sample(range(n - 1), min(max_nondet_states, n - 1)))
    moves = []
    for s in range(n - 1):
        near = list(range(max(0, s - 1), min(n, s + 3)))
        row = []
        for a in range(rng.randint(2, 3) if s in nondet else 1):
            dests = rng.sample(near, rng.randint(1, min(3, len(near))))
            if a == 0 and s + 1 not in dests:
                dests.append(s + 1)
            weights = [rng.randint(1, 4) for _ in dests]
            total = sum(weights)
            row.append(Move(f"a{a}", tuple((Fraction(w, total), d)
                                          for w, d in zip(weights, dests))))
        moves.append(row)
    moves.append([Move("loop", ((Fraction(1), n - 1),))])
    return explicit_model("mdp", ("x",), states, moves, [s == n - 1 for s in range(n)])


# --- explicit export parsing -------------------------------------------------------


def parse_explicit(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines[0].startswith("STATES ")
    n = int(lines[0].split()[1])
    kind = lines[1].split()[1]
    initial = int(lines[2].split()[1])
    var_names = lines[3].split()[1:]
    states = [None] * n
    deadlock = [False] * n
    moves = [{} for _ in range(n)]
    tags = [{} for _ in range(n)]
    for ln in lines[4:]:
        if ln.startswith("STATE "):
            parts = ln.split()
            idx = int(parts[1])
            rest = parts[2:]
            if rest and rest[0] == "@deadlock":
                deadlock[idx] = True
                rest = rest[1:]
            valuation = {}
            for item in rest:
                k, v = item.split("=", 1)
                valuation[k] = v
            states[idx] = valuation
        else:
            src, rest = ln.split(" (", 1)
            action, rest = rest.split(") ", 1)
            prob_s, dst_s, move_tags = rest.split(" ", 2)
            src = int(src)
            dst = int(dst_s)
            prob = Fraction(prob_s)
            moves[src].setdefault(action, []).append((prob, dst))
            tags[src][action] = move_tags.strip("[]").split(",")
    return {"n": n, "kind": kind, "initial": initial, "vars": var_names,
            "states": states, "deadlock": deadlock, "moves": moves, "tags": tags}


def explicit_dtmc_csr(parsed) -> csr_matrix:
    """The uniform move mixture of the export, as a sparse matrix."""
    n = parsed["n"]
    rows, cols, data = [], [], []
    for s in range(n):
        actions = parsed["moves"][s]
        k = len(actions)
        for branches in actions.values():
            for p, d in branches:
                rows.append(s)
                cols.append(d)
                data.append(float(p) / k)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def explicit_dtmc_matrix(parsed) -> np.ndarray:
    return explicit_dtmc_csr(parsed).toarray()


def dense_reach(mat: np.ndarray, target: np.ndarray) -> np.ndarray:
    """P(F target) per state by graph classification plus a dense solve."""
    n = mat.shape[0]
    # states with a positive-probability path into the target
    can = target.copy()
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if not can[s] and (mat[s][can] > 0).any():
                can[s] = True
                changed = True
    x = np.zeros(n)
    x[target] = 1.0
    unknown = can & ~target
    idx = np.flatnonzero(unknown)
    if idx.size:
        q = mat[np.ix_(idx, idx)]
        b = mat[np.ix_(idx, np.flatnonzero(target))].sum(axis=1)
        x[idx] = np.linalg.solve(np.eye(idx.size) - q, b)
    return np.clip(x, 0.0, 1.0)


def dense_reach_reward(mat: np.ndarray, target: np.ndarray,
                       step_reward: np.ndarray) -> np.ndarray:
    """Expected accumulated reward until target; inf where P(F target) < 1."""
    n = mat.shape[0]
    reach = dense_reach(mat, target)
    x = np.zeros(n)
    finite = (reach > 1 - 1e-12) | target
    x[~finite] = np.inf
    idx = np.flatnonzero(finite & ~target)
    if idx.size:
        q = mat[np.ix_(idx, idx)]
        b = step_reward[idx]
        x[idx] = np.linalg.solve(np.eye(idx.size) - q, b)
    x[target] = 0.0
    return x


def explicit_step_reward(parsed, reward_of) -> np.ndarray:
    """Per-state expected one-step reward under the uniform move mixture,
    where reward_of(valuation, tags) is the reward of one move."""
    out = np.zeros(parsed["n"])
    for s in range(parsed["n"]):
        actions = parsed["tags"][s]
        for tags in actions.values():
            out[s] += reward_of(parsed["states"][s], tags) / len(actions)
    return out


def _sparse_transient_solve(mat: csr_matrix, idx: np.ndarray, b: np.ndarray) -> np.ndarray:
    q = mat[idx, :][:, idx]
    ident = csr_matrix((np.ones(idx.size), (range(idx.size), range(idx.size))),
                       shape=(idx.size, idx.size))
    return np.atleast_1d(spsolve((ident - q).tocsc(), b))


def sparse_reach(mat: csr_matrix, target: np.ndarray) -> np.ndarray:
    """P(F target) per state by backward search plus a sparse LU solve."""
    n = mat.shape[0]
    pred = mat.T.tocsr()
    can = target.copy()
    stack = list(np.flatnonzero(target))
    while stack:
        s = stack.pop()
        for q in pred.indices[pred.indptr[s]:pred.indptr[s + 1]]:
            if not can[q] and mat[q, s] > 0:
                can[q] = True
                stack.append(q)
    x = target.astype(float)
    idx = np.flatnonzero(can & ~target)
    if idx.size:
        x[idx] = _sparse_transient_solve(mat, idx, mat[idx, :].dot(x))
    return np.clip(x, 0.0, 1.0)


def sparse_reach_reward(mat: csr_matrix, target: np.ndarray,
                        step_reward: np.ndarray) -> np.ndarray:
    """Sparse counterpart of dense_reach_reward."""
    reach = sparse_reach(mat, target)
    finite = (reach > 1 - 1e-12) | target
    x = np.where(finite, 0.0, np.inf)
    idx = np.flatnonzero(finite & ~target)
    if idx.size:
        x[idx] = _sparse_transient_solve(mat, idx, step_reward[idx])
    return x


def sparse_total_reward(mat: csr_matrix, step_reward: np.ndarray) -> np.ndarray:
    """Total expected reward of a dtmc whose bottom SCCs are all absorbing
    states without reward: the expected reward before absorption."""
    absorbing = np.isclose(mat.diagonal(), 1.0)
    assert not step_reward[absorbing].any()
    x = np.zeros(mat.shape[0])
    idx = np.flatnonzero(~absorbing)
    if idx.size:
        x[idx] = _sparse_transient_solve(mat, idx, step_reward[idx])
    return x


def mdp_extremal_reach(mm: MarkovModel, target: np.ndarray, mode: str) -> np.ndarray:
    """Min/max reach probability by exhaustive memoryless adversary enumeration."""
    n = mm.num_states
    moves = all_moves(mm)
    best = None
    for combo in itertools.product(*[range(len(row)) for row in moves]):
        mat = np.zeros((n, n))
        for s in range(n):
            for p, d in moves[s][combo[s]].branches:
                mat[s, d] += float(p)
        vals = dense_reach(mat, target)
        if best is None:
            best = vals.copy()
        elif mode == "max":
            best = np.maximum(best, vals)
        else:
            best = np.minimum(best, vals)
    return best


def _backward_reach(succ, through, target) -> np.ndarray:
    """States of target, and states of through with a successor already in
    the set, to a fixpoint."""
    out = [bool(t) for t in target]
    changed = True
    while changed:
        changed = False
        for s, dests in enumerate(succ):
            if not out[s] and through[s] and any(out[d] for d in dests):
                out[s] = changed = True
    return np.array(out, dtype=bool)


def mdp_zero_one_sets(mm: MarkovModel, hold: np.ndarray, goal: np.ndarray):
    """Exact prob-0 and prob-1 states of `hold U goal` for the minimum and the
    maximum over adversaries: (min0, max0, min1, max1).

    Enumerates the memoryless deterministic adversaries, which attain both
    extrema, and splits each induced chain by graph search alone: prob-0
    states have no path to goal through hold, prob-1 states have no path
    through hold & ~goal to a prob-0 state."""
    n = mm.num_states
    min0 = np.zeros(n, dtype=bool)
    max0 = np.ones(n, dtype=bool)
    min1 = np.ones(n, dtype=bool)
    max1 = np.zeros(n, dtype=bool)
    moves = all_moves(mm)
    for combo in itertools.product(*[range(len(row)) for row in moves]):
        succ = [[d for p, d in moves[s][combo[s]].branches if p > 0] for s in range(n)]
        zero = ~_backward_reach(succ, hold & ~goal, goal)
        one = ~_backward_reach(succ, hold & ~goal, zero)
        min0 |= zero
        max0 &= zero
        min1 &= one
        max1 |= one
    return min0, max0, min1, max1


# --- brute-force qualitative path checking ------------------------------------------


def _succ_sets(mm: MarkovModel):
    out = []
    for row in all_moves(mm):
        dests = set()
        for mv in row:
            for p, d in mv.branches:
                if p > 0:
                    dests.add(d)
        out.append(sorted(dests))
    return out


def simple_cycles(succ):
    """Each simple cycle once, from its least node, as the search meets it."""
    def dfs(start, node, path, visited):
        for nxt in succ[node]:
            if nxt == start:
                yield path[:]
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                yield from dfs(start, nxt, path, visited)
                path.pop()
                visited.discard(nxt)

    for start in range(len(succ)):
        yield from dfs(start, start, [start], {start})


def _reachable_from(succ, s, allowed=None):
    seen = {s} if (allowed is None or allowed[s]) else set()
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for v in succ[u]:
            if v not in seen and (allowed is None or allowed[v]):
                seen.add(v)
                frontier.append(v)
    return seen


def _cycle_reachable_within(succ, s, allowed, cycle_pred) -> bool:
    """Is there a path from s (inside `allowed`) to a simple cycle (inside
    `allowed`) satisfying cycle_pred?"""
    if not allowed[s]:
        return False
    region = _reachable_from(succ, s, allowed)
    sub = [[d for d in succ[u] if d in region and allowed[d]] if u in region else []
           for u in range(len(succ))]
    for cyc in simple_cycles(sub):
        if all(u in region for u in cyc) and cycle_pred(cyc):
            return True
    return False


def brute_ae(mm: MarkovModel, quant: str, shape: tuple, sats: dict) -> np.ndarray:
    """Brute-force evaluation of an A/E fragment shape on a small graph.

    `shape` is one of ('F', p), ('G', p), ('U', p, q), ('X', p), ('GF', p),
    ('FG', p), ('GF=>GF', p, q), ('FG=>GF', p, q), ('G=>F', p, q); `sats`
    maps the predicate names to boolean arrays.
    """
    succ = _succ_sets(mm)
    n = mm.num_states
    everywhere = np.ones(n, dtype=bool)

    def exists_violation(s, kind):
        # existence of a single path witnessing the negation, by cycle search
        if kind[0] == "F":
            p = sats[kind[1]]
            return _cycle_reachable_within(succ, s, ~p, lambda cyc: True)
        if kind[0] == "G":
            p = sats[kind[1]]
            return bool(_reachable_from(succ, s) & set(np.flatnonzero(~p)))
        raise AssertionError(kind)

    out = np.zeros(n, dtype=bool)
    for s in range(n):
        if shape[0] == "X":
            p = sats[shape[1]]
            vals = [p[d] for d in succ[s]]
            out[s] = any(vals) if quant == "E" else all(vals)
        elif shape[0] == "F":
            p = sats[shape[1]]
            if quant == "E":
                out[s] = bool(_reachable_from(succ, s) & set(np.flatnonzero(p)))
            else:
                out[s] = not exists_violation(s, ("F", shape[1]))
        elif shape[0] == "G":
            p = sats[shape[1]]
            if quant == "E":
                out[s] = _cycle_reachable_within(succ, s, p, lambda cyc: True)
            else:
                out[s] = not exists_violation(s, ("G", shape[1]))
        elif shape[0] == "U":
            p, q = sats[shape[1]], sats[shape[2]]
            if quant == "E":
                region = _reachable_from(succ, s, p | q)
                out[s] = any(q[u] for u in region)
            else:
                # violation: a ~q path to (~p & ~q), or a ~q path forever
                viol_reach = any((~p & ~q)[u] for u in _reachable_from(succ, s, ~q))
                viol_cycle = _cycle_reachable_within(succ, s, ~q, lambda cyc: True)
                out[s] = not (viol_reach or viol_cycle)
        elif shape[0] == "GF":
            p = sats[shape[1]]
            if quant == "E":
                out[s] = _cycle_reachable_within(
                    succ, s, everywhere, lambda cyc: any(p[u] for u in cyc))
            else:
                # violation: FG ~p
                out[s] = not _cycle_reachable_within(succ, s, everywhere,
                                                     lambda cyc: all(~p[u] for u in cyc))
        elif shape[0] == "FG":
            p = sats[shape[1]]
            if quant == "E":
                out[s] = _cycle_reachable_within(succ, s, everywhere,
                                                 lambda cyc: all(p[u] for u in cyc))
            else:
                out[s] = not _cycle_reachable_within(
                    succ, s, everywhere, lambda cyc: any(~p[u] for u in cyc))
        elif shape[0] == "GF=>GF":
            p, q = sats[shape[1]], sats[shape[2]]
            if quant == "A":
                # violation: p infinitely often while q only finitely often:
                # a reachable cycle inside ~q containing a p-state
                viol = _cycle_reachable_within(
                    succ, s, everywhere,
                    lambda cyc: all(~q[u] for u in cyc) and any(p[u] for u in cyc))
                out[s] = not viol
            else:
                e_fg_not_p = _cycle_reachable_within(succ, s, everywhere,
                                                     lambda cyc: all(~p[u] for u in cyc))
                e_gf_q = _cycle_reachable_within(succ, s, everywhere,
                                                 lambda cyc: any(q[u] for u in cyc))
                out[s] = e_fg_not_p or e_gf_q
        elif shape[0] == "FG=>GF":
            p, q = sats[shape[1]], sats[shape[2]]
            if quant == "A":
                viol = _cycle_reachable_within(succ, s, everywhere,
                                               lambda cyc: all((p & ~q)[u] for u in cyc))
                out[s] = not viol
            else:
                e_gf_not_p = _cycle_reachable_within(succ, s, everywhere,
                                                     lambda cyc: any(~p[u] for u in cyc))
                e_gf_q = _cycle_reachable_within(succ, s, everywhere,
                                                 lambda cyc: any(q[u] for u in cyc))
                out[s] = e_gf_not_p or e_gf_q
        elif shape[0] == "G=>F":
            p, q = sats[shape[1]], sats[shape[2]]
            if quant == "A":
                # violation: reach a p-state from which some path avoids q forever
                viol = False
                for u in _reachable_from(succ, s):
                    if p[u] and _cycle_reachable_within(succ, u, ~q, lambda cyc: True):
                        viol = True
                        break
                out[s] = not viol
            else:
                out[s] = _exists_response_path(succ, s, p, q)
        else:
            raise AssertionError(shape)
    return out


def _exists_response_path(succ, s, p, q) -> bool:
    """E[G(p => F q)] by explicit search over the 1-bit obligation product."""
    n = len(succ)
    start = (s, bool(p[s] and not q[s]))
    # a good lasso loops through a node with no pending obligation
    psucc = {}
    for u in range(n):
        for bit in (False, True):
            outs = []
            for d in succ[u]:
                nbit = (bit or p[d]) and not q[d]
                outs.append((d, nbit))
            psucc[(u, bit)] = outs
    # search for a reachable cycle containing a clean node
    seen = {start}
    frontier = [start]
    reach = set()
    while frontier:
        node = frontier.pop()
        reach.add(node)
        for nxt in psucc[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    for node in reach:
        if node[1]:
            continue
        # can node reach itself?
        seen2 = set()
        frontier = [node]
        while frontier:
            u = frontier.pop()
            for nxt in psucc[u]:
                if nxt == node:
                    return True
                if nxt not in seen2:
                    seen2.add(nxt)
                    frontier.append(nxt)
    return False


# --- reference sampler --------------------------------------------------------------


def philox4x32(counter, key, rounds: int = 10) -> tuple:
    """Philox4x32 (Salmon et al., SC 2011) of four 32-bit counter words
    under two 32-bit key words, in Python ints."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(rounds):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & 0xFFFFFFFF, (p0 >> 32) ^ c3 ^ k1, \
            p0 & 0xFFFFFFFF
        k0, k1 = (k0 + 0x9E3779B9) & 0xFFFFFFFF, (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return c0, c1, c2, c3


class reference_rng:
    """The documented uniforms of sample i of a run with this seed, one per
    step: step t reads the Philox4x32-10 words (a, b, c, d) of the counter
    (t // 2 low, t // 2 high, i low, i high) under the key (seed low, seed
    high), an even step a and b, an odd one c and d, as
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53."""

    def __init__(self, seed: int, i: int):
        self.key = (seed & 0xFFFFFFFF, seed >> 32)
        self.i = i
        self.t = 0

    def random(self) -> float:
        pair, odd = divmod(self.t, 2)
        words = philox4x32((pair & 0xFFFFFFFF, pair >> 32, self.i & 0xFFFFFFFF, self.i >> 32),
                           self.key)
        a, b = words[2 * odd:2 * odd + 2]
        self.t += 1
        return ((a >> 5) * 2 ** 26 + (b >> 6)) / 2 ** 53


def reference_path(mm: MarkovModel, rng, pathlen: int, stop):
    """Walk one path over `moves_of(mm, s)`, one uniform per step, until
    `stop(state, step, absorbing)` returns a value or `pathlen` steps pass.

    A state's entries are its moves in order, each move's positive branches
    in their stored order, with weight p/k for k moves; the successor is the
    first entry whose left-to-right cumulative weight (the last one taken as
    1.0) exceeds the uniform.  Returns (value or None when capped, steps
    taken, [(state, move index)] per step)."""
    s = mm.initial
    steps = []
    while True:
        moves = moves_of(mm, s)
        entries = [(float(p) / len(moves), d, j)
                   for j, mv in enumerate(moves)
                   for p, d in mv.branches if p > 0]
        absorbing = all(d == s for _, d, _ in entries)
        value = stop(s, len(steps), absorbing)
        if value is not None:
            return value, len(steps), steps
        if len(steps) >= pathlen:
            return None, len(steps), steps
        u = rng.random()
        cum = 0.0
        for at, (w, d, j) in enumerate(entries):
            cum = 1.0 if at == len(entries) - 1 else cum + w
            if u < cum:
                break
        steps.append((s, j))
        s = d


def reference_monitor(kind: str, sat1, sat2, k):
    """The decision of X, F, U, G, W or R at a path's state before the given
    step: None while undecided, else the 0/1 sample.  A bounded operator
    decides at step k at the latest; with the empty horizon (k = -1) F and U
    fail at once, and G, W and R hold at once.  G reads its operand from
    sat2; W and R read their left and right operands from sat1 and sat2."""
    def stop(s, step, absorbing):
        at_bound = k is not None and step >= k
        if kind == "X":
            return int(sat2[s]) if step == 1 or absorbing else None
        if kind == "G":
            if k == -1:
                return 1
            if not sat2[s]:
                return 0
            return 1 if absorbing or at_bound else None
        if kind == "W":
            # right after left at every step before, or left at every step
            if k == -1 or sat2[s]:
                return 1
            if not sat1[s]:
                return 0
            return 1 if absorbing or at_bound else None
        if kind == "R":
            # right at every step up to and including the first left
            if k == -1:
                return 1
            if not sat2[s]:
                return 0
            return 1 if sat1[s] or absorbing or at_bound else None
        if at_bound:
            return int(k >= 0 and sat2[s])
        if sat2[s]:
            return 1
        if absorbing or (kind == "U" and not sat1[s]):
            return 0
        return None
    return stop


def short_circuit_sat(e: A.Expr, n: int, nested, atom) -> np.ndarray:
    """The truth of a state formula at each of n states, read state by state
    as Baier and Katoen's satisfaction relation (ch. 10) with connectives
    that read left to right: `/\\` and `=>` read their right operand only at
    a state where the left holds, `\\/` only where it fails.  `nested(e)`
    gives the truth of a P, R, A or E at every state; `atom(e, s)` that of
    any other operand at state s, and is asked nowhere else."""
    def at(e, s) -> bool:
        if isinstance(e, A.Unary) and e.op == "not":
            return not at(e.operand, s)
        if isinstance(e, A.Binary) and e.op in ("/\\", "\\/", "=>", "iff"):
            left = at(e.left, s)
            if e.op == "iff":
                return left == at(e.right, s)
            if e.op == "\\/":
                return left or at(e.right, s)
            return at(e.right, s) if left else e.op == "=>"
        if isinstance(e, (A.ProbFormula, A.RewardFormula, A.Forall, A.Exists)):
            return bool(nested(e)[s])
        return bool(atom(e, s))

    return np.array([at(e, s) for s in range(n)], dtype=bool)


# --- an interpreter of the emitted PRISM subset ------------------------------------

_PRISM_TOKEN = re.compile(r'\s*(?:(\d+)|([A-Za-z_]\w*)|("[^"]*")|'
                          r"(<=>|=>|->|<=|>=|!=|[-+*/()=<>&|!?:,']))")
# binary operators from the loosest: PRISM's precedence
_PRISM_LEVELS = [("<=>",), ("=>",), ("|",), ("&",), ("=", "!=", "<", "<=", ">", ">="),
                 ("+", "-"), ("*", "/")]
_PRISM_OPS = {"<=>": lambda a, b: a == b, "=>": lambda a, b: (not a) or b,
              "|": lambda a, b: a or b, "&": lambda a, b: a and b,
              "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
              "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
              ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
              "+": lambda a, b: a + b, "-": lambda a, b: a - b,
              "*": lambda a, b: a * b, "/": lambda a, b: Fraction(a) / Fraction(b)}


class _PrismParser:
    """Recursive descent over one command or expression.  An expression
    parses to a function of (valuation dict, deadlock flag); `/` divides
    as reals, as PRISM does."""

    def __init__(self, text: str):
        self.tokens, pos = [], 0
        text = text.rstrip()
        while pos < len(text):
            m = _PRISM_TOKEN.match(text, pos)
            assert m and m.end() > pos, f"cannot tokenise {text[pos:]!r}"
            num, ident, label, op = m.groups()
            self.tokens.append(("num", int(num)) if num else ("id", ident) if ident
                               else ("label", label[1:-1]) if label else ("op", op))
            pos = m.end()
        self.i = 0

    def peek(self, k=0):
        return self.tokens[self.i + k] if self.i + k < len(self.tokens) else (None, None)

    def take(self, op=None):
        tok = self.peek()
        assert op is None or tok == ("op", op), f"expected {op!r}, got {tok}"
        self.i += 1
        return tok

    def expr(self):
        cond = self.binary(0)
        if self.peek() == ("op", "?"):
            self.take("?")
            then = self.expr()
            self.take(":")
            orelse = self.expr()
            return lambda v, d: then(v, d) if cond(v, d) else orelse(v, d)
        return cond

    def binary(self, level):
        if level == len(_PRISM_LEVELS):
            return self.unary()
        left = self.binary(level + 1)
        while self.peek()[0] == "op" and self.peek()[1] in _PRISM_LEVELS[level]:
            fn = _PRISM_OPS[self.take()[1]]
            right = self.binary(level + 1)
            left = (lambda f, a, b: lambda v, d: f(a(v, d), b(v, d)))(fn, left, right)
        return left

    def unary(self):
        kind, tok = self.take()
        if (kind, tok) == ("op", "!"):
            inner = self.unary()
            return lambda v, d: not inner(v, d)
        if (kind, tok) == ("op", "-"):
            inner = self.unary()
            return lambda v, d: -inner(v, d)
        if (kind, tok) == ("op", "("):
            inner = self.expr()
            self.take(")")
            return inner
        if kind == "num":
            return lambda v, d: tok
        if kind == "label":
            assert tok == "deadlock", f"unknown label {tok!r}"
            return lambda v, d: d
        assert kind == "id", f"unexpected {tok!r}"
        if tok in ("true", "false"):
            return lambda v, d: tok == "true"
        if tok in ("floor", "ceil") and self.peek() == ("op", "("):
            self.take("(")
            inner = self.expr()
            self.take(")")
            rnd = math.floor if tok == "floor" else math.ceil
            return lambda v, d: rnd(inner(v, d))
        return lambda v, d: v[tok]

    def updates(self):
        """[(probability, [(variable, value)])] of a command's right side."""
        if self.peek() == ("id", "true") and self.peek(1) in (("op", "+"), (None, None)):
            self.take()
            branches = [(lambda v, d: 1, [])]
        else:
            branches = []
            while True:
                prob = lambda v, d: 1
                if not (self.peek() == ("op", "(") and self.peek(2) == ("op", "'")):
                    prob = self.expr()
                    self.take(":")
                assigns = []
                while True:
                    self.take("(")
                    name = self.take()[1]
                    self.take("'")
                    self.take("=")
                    assigns.append((name, self.expr()))
                    self.take(")")
                    if self.peek() != ("op", "&"):
                        break
                    self.take("&")
                branches.append((prob, assigns))
                if self.peek() != ("op", "+"):
                    break
                self.take("+")
        assert self.i == len(self.tokens), f"trailing {self.tokens[self.i:]}"
        return branches


class PrismModel:
    """The emitted PRISM subset, read and explored by its own semantics:
    modules with integer ranges and booleans, global variables, constants,
    and guarded commands whose labels synchronise every module that uses
    them, with the product of their branches.  A state where no command is
    enabled is labelled "deadlock" and loops.  Written apart from the
    engine and the emitter, to check that their step semantics agree."""

    def __init__(self, text: str, consts: dict | None = None):
        """`consts` gives the values of the constants that the text leaves
        open, as PRISM's `-const` option does."""
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("//")]
        self.kind = lines[0]
        self.consts: dict[str, object] = {}
        self.ranges: dict[str, tuple] = {}  # name -> (lo, hi), or None for bool
        self.init: dict[str, object] = {}
        self.modules: list[list[tuple]] = []  # [(label, guard, branches)] per module
        for ln in lines[1:]:
            if ln.startswith("const "):
                decl, _, value = ln.rstrip(";").partition(" = ")
                name = decl.split()[2]
                self.consts[name] = _PrismParser(value).expr()(self.consts, False) if value \
                    else consts[name]
            elif ln.startswith("module "):
                self.modules.append([])
            elif ln.startswith("["):
                label, rest = ln[1:].split("]", 1)
                guard, updates = rest.rstrip(";").split("->", 1)
                self.modules[-1].append((label.strip(), _PrismParser(guard).expr(),
                                         _PrismParser(updates).updates()))
            elif ln != "endmodule":
                m = re.fullmatch(r"(?:global )?(\w+) : (?:\[(-?\d+)\.\.(-?\d+)\]|bool) "
                                 r"init (\S+);", ln)
                assert m, f"unrecognised line {ln!r}"
                name, lo, hi, init = m.groups()
                self.ranges[name] = None if lo is None else (int(lo), int(hi))
                self.init[name] = init == "true" if lo is None else int(init)
        self.names = tuple(self.init)
        self.alphabets = [{label for label, _, _ in cmds if label} for cmds in self.modules]

    def valuation(self, state: tuple) -> dict:
        return {**self.consts, **dict(zip(self.names, state))}

    def _branches(self, v: dict, branches) -> list:
        out = [(Fraction(prob(v, False)), assigns) for prob, assigns in branches]
        assert sum(p for p, _ in out) == 1, out
        return out

    def moves(self, state: tuple) -> list[dict[tuple, Fraction]]:
        """The distributions over successor states that the state chooses
        among; a state without any loops."""
        return self._moves(state) or [{state: Fraction(1)}]

    def _moves(self, state: tuple) -> list[dict[tuple, Fraction]]:
        v = self.valuation(state)
        enabled = [[(label, branches) for label, guard, branches in cmds if guard(v, False)]
                   for cmds in self.modules]
        choices = [[self._branches(v, b)] for cmds in enabled for label, b in cmds if not label]
        labels = dict.fromkeys(label for cmds in enabled for label, _ in cmds if label)
        for label in labels:
            parts = [[self._branches(v, b) for lb, b in cmds if lb == label]
                     for cmds, alphabet in zip(enabled, self.alphabets) if label in alphabet]
            choices.extend(itertools.product(*parts))
        out = []
        for combo in choices:
            dist: dict[tuple, Fraction] = {}
            for branches in itertools.product(*combo):
                p, new = Fraction(1), dict(zip(self.names, state))
                written = set()
                for q, assigns in branches:
                    p *= q
                    for name, value in assigns:
                        assert name not in written, f"{name} assigned twice in one step"
                        written.add(name)
                        new[name] = self._checked(name, value(v, False))
                if p:
                    succ = tuple(new[n] for n in self.names)
                    dist[succ] = dist.get(succ, 0) + p
            out.append(dist)
        return out

    def _checked(self, name: str, value):
        bounds = self.ranges[name]
        if bounds is None:
            assert isinstance(value, bool), (name, value)
            return value
        assert not isinstance(value, bool) and value == int(value), \
            f"{name} is an integer, cannot take {value}"
        assert bounds[0] <= value <= bounds[1], f"{name}={value} outside {bounds}"
        return int(value)

    def holds(self, expr: str, state: tuple) -> bool:
        """A state formula, with "deadlock" true where no command is enabled."""
        deadlock = not self._moves(state)
        return bool(_PrismParser(expr).expr()(self.valuation(state), deadlock))

    def explore(self) -> dict[tuple, list[dict[tuple, Fraction]]]:
        """The moves of every reachable state, from the initial one."""
        init = tuple(self.init[n] for n in self.names)
        found, todo = {init: None}, [init]
        while todo:
            state = todo.pop()
            found[state] = self.moves(state)
            for dist in found[state]:
                for succ in dist:
                    if succ not in found:
                        found[succ] = None
                        todo.append(succ)
        return found
